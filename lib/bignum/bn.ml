(* Little-endian 24-bit limbs.  base = 2^24 so that limb products (<= 2^48)
   and small accumulations fit in the native 63-bit int. *)

let limb_bits = 24
let base = 1 lsl limb_bits
let limb_mask = base - 1

(* Accumulator bound of the product-scanning Montgomery kernels: one
   output column sums at most 2k limb products (k of a*b, k of u*m), each
   at most (2^24-1)^2 < 2^48, plus the carry from the column below
   (< 2k*2^24), all in one native int.  For k < 2^13 the products stay
   below 2k*2^48 <= 2^62 - 2^49, which leaves the carry ample room under
   max_int = 2^62 - 1.  [Mont.create_width] refuses working widths from
   8192 limbs (196608 bits) up, and callers take their non-Montgomery
   fallbacks. *)
let mont_max_limbs = 8191

type t = { sign : int; mag : int array }
(* Invariants: mag has no leading (high-index) zero limb; sign = 0 iff mag
   is empty; each limb is in [0, base). *)

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    let n = abs n in
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let len = count 0 n in
    let mag = Array.make len 0 in
    let v = ref n in
    for i = 0 to len - 1 do
      mag.(i) <- !v land limb_mask;
      v := !v lsr limb_bits
    done;
    { sign; mag }
  end

let one = of_int 1
let two = of_int 2

let to_int t =
  let n = Array.length t.mag in
  if n > 3 then failwith "Bn.to_int: too large"
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      if !v > max_int lsr limb_bits then failwith "Bn.to_int: too large";
      v := (!v lsl limb_bits) lor t.mag.(i)
    done;
    t.sign * !v
  end

let sign t = t.sign
let is_zero t = t.sign = 0
let is_one t = t.sign = 1 && Array.length t.mag = 1 && t.mag.(0) = 1
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0
let is_odd t = not (is_even t)

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign >= 0 then t else { t with sign = 1 }

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

(* magnitude addition: |a| + |b| *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = max la lb in
  let r = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(lmax) <- !carry;
  r

(* magnitude subtraction: |a| - |b|, requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      (* propagate the final carry; it may need several limbs *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    end
  done;
  r

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let sqr a = mul a a

let bit_length t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + bits 0 top
  end

let test_bit t i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr off) land 1 = 1

let num_limbs t = Array.length t.mag

let shift_left_mag a bits =
  if Array.length a = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if off = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl off) lor !carry in
        r.(i + limbs) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    r
  end

let shift_right_mag a bits =
  let limbs = bits / limb_bits and off = bits mod limb_bits in
  let la = Array.length a in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    if off = 0 then Array.blit a limbs r 0 lr
    else
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask else 0 in
        r.(i) <- lo lor hi
      done;
    r
  end

let shift_left t bits =
  if bits < 0 then invalid_arg "Bn.shift_left";
  if t.sign = 0 || bits = 0 then t else normalize t.sign (shift_left_mag t.mag bits)

let shift_right t bits =
  if bits < 0 then invalid_arg "Bn.shift_right";
  if t.sign = 0 || bits = 0 then t else normalize t.sign (shift_right_mag t.mag bits)

(* Short division: magnitude / single limb d (0 < d < base). *)
let divmod_mag_small u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor u.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on magnitudes.  Requires |u| >= |v|, |v| >= 2 limbs. *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* normalize so the top limb of v has its high bit set *)
  let rec lead_shift s top = if top land (1 lsl (limb_bits - 1)) <> 0 then s else lead_shift (s + 1) (top lsl 1) in
  let s = lead_shift 0 v.(n - 1) in
  let un =
    let shifted = shift_left_mag u s in
    (* ensure length m+n+1 *)
    if Array.length shifted >= m + n + 1 then Array.sub shifted 0 (m + n + 1)
    else begin
      let r = Array.make (m + n + 1) 0 in
      Array.blit shifted 0 r 0 (Array.length shifted);
      r
    end
  in
  let vn =
    let shifted = shift_left_mag v s in
    Array.sub shifted 0 n
  in
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) and vsecond = vn.(n - 2) in
  for j = m downto 0 do
    let numer = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (numer / vtop) in
    let rhat = ref (numer mod vtop) in
    let continue_adjust = ref true in
    while !continue_adjust do
      if !qhat >= base || !qhat * vsecond > ((!rhat lsl limb_bits) lor un.(j + n - 2)) then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue_adjust := false
      end
      else continue_adjust := false
    done;
    (* multiply and subtract: un[j..j+n] -= qhat * vn *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let sub = un.(i + j) - (p land limb_mask) - !borrow in
      if sub < 0 then begin
        un.(i + j) <- sub + base;
        borrow := 1
      end
      else begin
        un.(i + j) <- sub;
        borrow := 0
      end
    done;
    let sub = un.(j + n) - !carry - !borrow in
    if sub < 0 then begin
      un.(j + n) <- sub + base;
      (* add back *)
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let sum = un.(i + j) + vn.(i) + !carry2 in
        un.(i + j) <- sum land limb_mask;
        carry2 := sum lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry2) land limb_mask
    end
    else un.(j + n) <- sub;
    q.(j) <- !qhat
  done;
  let r = shift_right_mag (Array.sub un 0 n) s in
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let c = cmp_mag a.mag b.mag in
  if c < 0 then begin
    (* |a| < |b| *)
    if a.sign >= 0 then (zero, a)
    else
      (* a negative: a = q*b + r with 0 <= r < |b| *)
      let q = if b.sign > 0 then of_int (-1) else one in
      (q, normalize 1 (sub_mag b.mag a.mag))
  end
  else begin
    let qm, rm =
      if Array.length b.mag = 1 then begin
        let q, r = divmod_mag_small a.mag b.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      end
      else divmod_mag_knuth a.mag b.mag
    in
    let quo = normalize (a.sign * b.sign) qm in
    let rem = normalize 1 rm in
    if a.sign >= 0 then (quo, if a.sign = 0 then zero else rem)
    else if is_zero rem then (quo, zero)
    else begin
      (* adjust toward Euclidean remainder *)
      let quo = if b.sign > 0 then sub quo one else add quo one in
      let rem = normalize 1 (sub_mag b.mag rem.mag) in
      (quo, rem)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let add_int t n = add t (of_int n)
let mul_int t n = mul t (of_int n)

let rem_int t d =
  if d <= 0 then invalid_arg "Bn.rem_int: modulus must be positive";
  if d < base then begin
    let r = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      r := (((!r lsl limb_bits) lor t.mag.(i))) mod d
    done;
    if t.sign < 0 && !r <> 0 then d - !r else !r
  end
  else to_int (rem t (of_int d))

(* Constant-shape ladder for moduli outside Montgomery's domain (even, or
   single-limb): every bit of the exponent performs the square AND the
   multiply-and-reduce, and the exponent bit only selects which result to
   keep — so the big-number operation sequence, and thus the charged
   cost, is a function of [bit_length exp] alone, never of its bits.
   The select itself is a host-level branch on the bit: no secret in the
   simulated stack ever reaches this path (RSA/DSA moduli are odd
   primes, so secret exponentiations all ride [Mont.pow] / [Ct.crt_exp]);
   the "mod_pow even modulus" tests pin both the correctness of this
   fallback and that odd multi-limb moduli keep routing to Montgomery. *)
let mod_pow_const_shape ~base:b ~exp ~modulus =
  let b = rem b modulus in
  let result = ref (rem one modulus) in
  let nbits = bit_length exp in
  for i = nbits - 1 downto 0 do
    let sq = rem (sqr !result) modulus in
    let sq_mul = rem (mul sq b) modulus in
    result := (if test_bit exp i then sq_mul else sq)
  done;
  !result

(* ---- branchless fixed-width limb primitives (constant-time core) ----

   Everything below operates on little-endian limb arrays of a fixed,
   caller-chosen width and executes the same instruction and memory-access
   sequence regardless of limb values: no data-dependent branches, no
   data-dependent indices, no early exits.  Secrets steer the computation
   only through arithmetic masks ([ct_mask]).  [Mont] builds its kernels
   on these, and the public [Ct] module further down wraps them over [t]
   values for the differential test suite and the constant-shape CRT path.

   The limb-traffic counter is the second leg of the leakage sentinel:
   every primitive advances it by a pure function of the width, so the
   per-op delta sampled by Sim_rsa.private_op must show zero spread
   across keys and exponent bit patterns, exactly like word_muls. *)

let ct_traffic_key = Domain.DLS.new_key (fun () -> ref 0)

let ct_traffic_ () = Domain.DLS.get ct_traffic_key

(* all-ones native-int mask from a condition bit *)
let ct_mask bit = -(bit land 1)

(* dst.(i) <- if bit then a.(i) else b.(i), fixed full-width sweep *)
let ct_select_raw ~k bit a b dst =
  let tc = ct_traffic_ () in
  tc := !tc + k;
  let m = ct_mask bit in
  for i = 0 to k - 1 do
    Array.unsafe_set dst i
      ((Array.unsafe_get a i land m) lor (Array.unsafe_get b i land lnot m))
  done

(* dst <- (a + b) mod base^k; returns the carry bit *)
let ct_add_raw ~k a b dst =
  let tc = ct_traffic_ () in
  tc := !tc + k;
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = a.(i) + b.(i) + !carry in
    dst.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  !carry

(* dst <- (a - b) mod base^k; returns the borrow bit.  A negative step
   already holds the mod-base residue in its low limb_bits (two's
   complement), and its arithmetic shift is all-ones, so the borrow
   propagates without a sign test. *)
let ct_sub_raw ~k a b dst =
  let tc = ct_traffic_ () in
  tc := !tc + k;
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let s = a.(i) - b.(i) - !borrow in
    dst.(i) <- s land limb_mask;
    borrow := (s asr limb_bits) land 1
  done;
  !borrow

(* 1 iff a >= b: the subtraction borrow with the difference discarded.
   Full-width sweep — no early exit on the first differing limb, unlike
   [cmp_mag]. *)
let ct_ge_raw ~k a b =
  let tc = ct_traffic_ () in
  tc := !tc + k;
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let s = a.(i) - b.(i) - !borrow in
    borrow := (s asr limb_bits) land 1
  done;
  1 - !borrow

(* dst <- v - (if v >= m then m else 0) for v = hi*base^k + t[off..off+k-1]
   with v < 2m: the final subtraction of Montgomery reduction.  Always
   computes the difference, then selects by mask.  [sc] is a k-limb
   scratch region starting at [soff]; dst may alias t[off..] or an operand
   array, but not the scratch. *)
let ct_reduce_once ~k ~mm ~hi t off sc soff dst =
  let tc = ct_traffic_ () in
  tc := !tc + (2 * k);
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let s = Array.unsafe_get t (off + i) - Array.unsafe_get mm i - !borrow in
    Array.unsafe_set sc (soff + i) (s land limb_mask);
    borrow := (s asr limb_bits) land 1
  done;
  (* v >= m iff the high limb is set (v >= base^k > m) or there is no
     borrow out of the low-limb subtraction *)
  let m = ct_mask (hi lor (1 - !borrow)) in
  for i = 0 to k - 1 do
    Array.unsafe_set dst i
      ((Array.unsafe_get sc (soff + i) land m)
       lor (Array.unsafe_get t (off + i) land lnot m))
  done

(* dst (length ka+kb) <- a * b: fixed schoolbook with no zero-limb skip,
   and the carry out of each row lands in one fixed cell instead of
   rippling until it dies — identical work for every operand value. *)
let ct_mul_raw ~ka ~kb a b dst =
  let tc = ct_traffic_ () in
  tc := !tc + (ka * kb);
  Array.fill dst 0 (ka + kb) 0;
  for i = 0 to ka - 1 do
    let ai = Array.unsafe_get a i in
    let carry = ref 0 in
    for j = 0 to kb - 1 do
      let s = Array.unsafe_get dst (i + j) + (ai * Array.unsafe_get b j) + !carry in
      Array.unsafe_set dst (i + j) (s land limb_mask);
      carry := s lsr limb_bits
    done;
    dst.(i + kb) <- !carry
  done

(* ---- Montgomery (REDC) arithmetic ---- *)

module Mont = struct
  type ctx = {
    m : t;  (* odd modulus *)
    k : int;  (* working width in limbs (>= limbs of m); R = base^k *)
    n0' : int;  (* -m^-1 mod 2^limb_bits *)
    mm : int array;  (* m padded to k limbs *)
    r2_raw : int array;  (* R^2 mod m as k limbs, for to_mont *)
    one_raw : int array;  (* R mod m as k limbs: 1 in the Montgomery domain *)
  }

  (* Running count of limb multiply-accumulates performed by the Mont
     kernels.  Host-side bookkeeping only (never part of simulated
     state); callers that price modular arithmetic read it before and
     after an operation and charge the delta (see Sim_rsa).  Domain-local:
     the fleet simulator runs one shard per domain, and a shared counter
     would let concurrent shards contaminate each other's deltas. *)
  let word_muls_key = Domain.DLS.new_key (fun () -> ref 0)

  let word_muls_ () = Domain.DLS.get word_muls_key

  let word_muls () = !(word_muls_ ())

  let modulus ctx = ctx.m

  (* inverse of an odd limb modulo 2^limb_bits by Newton–Hensel lifting *)
  let inv_limb m0 =
    let x = ref m0 in
    (* each step doubles the number of correct low bits; 5 steps > 24 bits *)
    for _ = 1 to 5 do
      x := !x * (2 - (m0 * !x)) land limb_mask
    done;
    !x land limb_mask

  (* [width] pads the working width beyond the modulus' own limb count —
     the CRT path uses it so both halves run at one fixed width even when
     p and q have different limb counts.  Widths beyond [mont_max_limbs]
     would overflow the kernels' column accumulator and are refused.
     Context setup itself performs wide divisions (R^2 mod m); it is
     amortized per modulus and sits outside the per-op sentinel scope,
     like real libraries' key-load precomputation. *)
  let create_width ?width m =
    let k = max (Array.length m.mag) (match width with Some w -> w | None -> 0) in
    if m.sign <= 0 || is_even m || is_one m || k > mont_max_limbs then None
    else begin
      let pad x =
        let r = Array.make k 0 in
        Array.blit x.mag 0 r 0 (Array.length x.mag);
        r
      in
      let n0' = base - inv_limb m.mag.(0) in
      let r2 = rem (shift_left one (2 * k * limb_bits)) m in
      let one_m = rem (shift_left one (k * limb_bits)) m in
      Some { m; k; n0'; mm = pad m; r2_raw = pad r2; one_raw = pad one_m }
    end

  let create m = create_width m

  (* The kernels below work on flat little-endian limb arrays of fixed
     length k, with no allocation inside the loops, and scan by product:
     output column i gathers every limb product whose indices sum to i
     into one native-int accumulator and carries once per column (Comba's
     ordering), with the Montgomery reduction interleaved column by
     column (Koc et al.'s "finely integrated product scanning").  The
     reduction digit u_i is fixed by the low limb of column i — it makes
     that limb zero — and joins the u*m products of every later column,
     so the digits live in the low half of the scratch while the high
     half collects the result limbs.  Loop bounds depend on k and the
     column index only; see [mont_max_limbs] for why one int holds a
     column.  The quotient digits are the unique ones that make the low k
     limbs vanish, so the result is the one REDC value for these
     operands, whatever order the products are summed in. *)

  (* In-place Montgomery reduction pass over w (length 2k+1, value < m*R):
     afterwards w[k..2k] holds REDC(w) < 2m and w[0..k-1] the quotient
     digits. *)
  let mont_redc_core ~k ~mm ~n0' w =
    let acc = ref 0 in
    for i = 0 to k - 1 do
      let s = ref (!acc + Array.unsafe_get w i) in
      for j = 0 to i - 1 do
        s := !s + (Array.unsafe_get w j * Array.unsafe_get mm (i - j))
      done;
      let u = (!s land limb_mask) * n0' land limb_mask in
      Array.unsafe_set w i u;
      acc := (!s + (u * Array.unsafe_get mm 0)) lsr limb_bits
    done;
    for i = k to (2 * k) - 1 do
      let s = ref (!acc + Array.unsafe_get w i) in
      for j = i - k + 1 to k - 1 do
        s := !s + (Array.unsafe_get w j * Array.unsafe_get mm (i - j))
      done;
      Array.unsafe_set w i (!s land limb_mask);
      acc := !s lsr limb_bits
    done;
    w.(2 * k) <- w.(2 * k) + !acc

  (* dst (k limbs) <- REDC(w) for w of length 2k+1 (destroyed); the raw
     fixed-width counterpart of [redc], used below [pow] and by the CRT
     path.  The spent quotient digits in w[0..k-1] double as the
     conditional-subtract scratch. *)
  let mont_redc_raw ~k ~mm ~n0' w dst =
    let wc = word_muls_ () in
    wc := !wc + (k * (k + 1));
    mont_redc_core ~k ~mm ~n0' w;
    ct_reduce_once ~k ~mm ~hi:w.(2 * k) w k w 0 dst

  (* REDC(T) = T * R^-1 mod m, for 0 <= T < m*R *)
  let redc ctx t_in =
    let k = ctx.k in
    (* working copy, k extra limbs plus one for carries; the input length
       is a boundary artifact of the [t] representation — below this line
       everything is fixed-width *)
    let w = Array.make ((2 * k) + 1) 0 in
    Array.blit t_in.mag 0 w 0 (Array.length t_in.mag);
    let dst = Array.make k 0 in
    mont_redc_raw ~k ~mm:ctx.mm ~n0':ctx.n0' w dst;
    normalize 1 dst

  let from_mont ctx x = redc ctx x

  (* dst <- a*b*R^-1 mod m.  [t] is scratch of length at least 2k (the
     quotient digits in t[0..k-1], the result limbs in t[k..2k-1], then
     the conditional-subtract scratch over the spent digits); aliasing
     dst with a or b is fine (dst is written only after a and b are
     read), but dst must not alias t. *)
  let mont_mul_raw ~k ~mm ~n0' ~t a b dst =
    let acc = ref 0 in
    for i = 0 to k - 1 do
      let s = ref (!acc + (Array.unsafe_get a i * Array.unsafe_get b 0)) in
      for j = 0 to i - 1 do
        s :=
          !s
          + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
          + (Array.unsafe_get t j * Array.unsafe_get mm (i - j))
      done;
      let u = (!s land limb_mask) * n0' land limb_mask in
      Array.unsafe_set t i u;
      acc := (!s + (u * Array.unsafe_get mm 0)) lsr limb_bits
    done;
    for i = k to (2 * k) - 1 do
      let s = ref !acc in
      for j = i - k + 1 to k - 1 do
        s :=
          !s
          + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
          + (Array.unsafe_get t j * Array.unsafe_get mm (i - j))
      done;
      Array.unsafe_set t i (!s land limb_mask);
      acc := !s lsr limb_bits
    done;
    let wc = word_muls_ () in
    wc := !wc + (2 * k * k);
    (* the result t[k..2k-1] plus the final carry is < 2m: one branchless
       conditional subtraction *)
    ct_reduce_once ~k ~mm ~hi:!acc t k t 0 dst

  (* Column i of a square: twice the off-diagonal products a_j * a_(i-j)
     with lo <= j < i - j, plus the diagonal a_(i/2)^2 of an even column.
     [lo] keeps both indices below the width. *)
  let sqr_column a ~lo i =
    let od = ref 0 in
    for j = lo to ((i + 1) lsr 1) - 1 do
      od := !od + (Array.unsafe_get a j * Array.unsafe_get a (i - j))
    done;
    let d = if i land 1 = 0 then Array.unsafe_get a (i lsr 1) else 0 in
    (2 * !od) + (d * d)

  (* dst <- a*a*R^-1 mod m, with the same scratch [t] as [mont_mul_raw].
     Exploits the symmetry of squaring (each off-diagonal product computed
     once and doubled): ~25% fewer limb products than [mont_mul_raw] with
     both operands equal.  Aliasing dst with a is fine. *)
  let mont_sqr_raw ~k ~mm ~n0' ~t a dst =
    let acc = ref 0 in
    for i = 0 to k - 1 do
      let s = ref (!acc + sqr_column a ~lo:0 i) in
      for j = 0 to i - 1 do
        s := !s + (Array.unsafe_get t j * Array.unsafe_get mm (i - j))
      done;
      let u = (!s land limb_mask) * n0' land limb_mask in
      Array.unsafe_set t i u;
      acc := (!s + (u * Array.unsafe_get mm 0)) lsr limb_bits
    done;
    for i = k to (2 * k) - 1 do
      let s = ref (!acc + sqr_column a ~lo:(i - k + 1) i) in
      for j = i - k + 1 to k - 1 do
        s := !s + (Array.unsafe_get t j * Array.unsafe_get mm (i - j))
      done;
      Array.unsafe_set t i (!s land limb_mask);
      acc := !s lsr limb_bits
    done;
    let wc = word_muls_ () in
    wc := !wc + ((k * (k - 1) / 2) + k + (k * k));
    ct_reduce_once ~k ~mm ~hi:!acc t k t 0 dst

  (* x.mag padded to exactly k limbs *)
  let raw_of ~k x =
    let r = Array.make k 0 in
    Array.blit x.mag 0 r 0 (Array.length x.mag);
    r

  let mul ctx a b =
    if a.sign < 0 || b.sign < 0 then invalid_arg "Bn.Mont.mul: negative input";
    let k = ctx.k in
    if Array.length a.mag <= k && Array.length b.mag <= k then begin
      let t = Array.make (2 * k) 0 in
      let dst = Array.make k 0 in
      mont_mul_raw ~k ~mm:ctx.mm ~n0':ctx.n0' ~t (raw_of ~k a) (raw_of ~k b) dst;
      normalize 1 dst
    end
    else
      (* over-width operand (still requires a*b < m*R): legacy route via
         the variable-length multiplier — public-scale inputs only *)
      redc ctx (mul a b)

  let to_mont ctx x =
    if x.sign < 0 || cmp_mag x.mag ctx.m.mag >= 0 then invalid_arg "Bn.Mont.to_mont: out of range";
    let k = ctx.k in
    let t = Array.make (2 * k) 0 in
    let dst = Array.make k 0 in
    mont_mul_raw ~k ~mm:ctx.mm ~n0':ctx.n0' ~t (raw_of ~k x) ctx.r2_raw dst;
    normalize 1 dst

  (* dst (k limbs) <- table.(idx) without a secret-dependent index: every
     entry is swept and accumulated under an all-or-nothing mask, so not
     even the memory-access pattern follows the exponent window.  The
     equality test is the shift trick: (j xor idx) - 1 is negative exactly
     for the matching entry, and a logical shift of a negative int leaves
     the sign bit. *)
  let ct_gather ~k table idx dst =
    let tc = ct_traffic_ () in
    tc := !tc + (16 * k);
    Array.fill dst 0 k 0;
    for j = 0 to 15 do
      let m = ct_mask (((j lxor idx) - 1) lsr (Sys.int_size - 1)) in
      let e = Array.unsafe_get table j in
      for i = 0 to k - 1 do
        Array.unsafe_set dst i (Array.unsafe_get dst i lor (Array.unsafe_get e i land m))
      done
    done

  (* table.(j) <- bm^j in the Montgomery domain, j = 0..15: the 4-bit
     window table both exponentiation routes gather from *)
  let window_table ctx ~t bm =
    let k = ctx.k in
    let table = Array.make 16 ctx.one_raw in
    table.(1) <- bm;
    for j = 2 to 15 do
      let e = Array.make k 0 in
      mont_mul_raw ~k ~mm:ctx.mm ~n0':ctx.n0' ~t table.(j - 1) bm e;
      table.(j) <- e
    done;
    table

  (* 4-bit window i of exp, read from its magnitude padded to [elimbs]
     limbs; limb_bits is a multiple of 4, so a window never straddles
     limbs *)
  let nibbles ~elimbs exp =
    let emag = Array.make elimbs 0 in
    Array.blit exp.mag 0 emag 0 (Array.length exp.mag);
    fun i ->
      let bitpos = 4 * i in
      (emag.(bitpos / limb_bits) lsr (bitpos mod limb_bits)) land 0xf

  (* Test-only leak hook for the CI leakage-sentinel smoke test: when
     armed, every exponentiation adds the exponent's popcount to both
     secret-independence counters — reintroducing exactly the class of
     secret-dependent cost the ct-leakage sentinel exists to catch. *)
  let test_leak_key = Domain.DLS.new_key (fun () -> ref false)

  let inject_test_leak v = Domain.DLS.get test_leak_key := v

  (* The tail every exponentiation shares: the leak hook, then leave the
     Montgomery domain with a REDC of the k-limb result. *)
  let finish ctx ~exp result =
    if !(Domain.DLS.get test_leak_key) then begin
      let pc = ref 0 in
      Array.iter
        (fun l ->
          let v = ref l in
          while !v <> 0 do
            pc := !pc + (!v land 1);
            v := !v lsr 1
          done)
        exp.mag;
      let wc = word_muls_ () in
      wc := !wc + !pc;
      let tc = ct_traffic_ () in
      tc := !tc + !pc
    end;
    let k = ctx.k in
    let w = Array.make ((2 * k) + 1) 0 in
    Array.blit result 0 w 0 k;
    let out = Array.make k 0 in
    mont_redc_raw ~k ~mm:ctx.mm ~n0':ctx.n0' w out;
    out

  (* braw: the base as exactly k limbs, any value < base^k (it is reduced
     mod m implicitly by the first Montgomery multiply).  Returns
     (braw mod m)^exp mod m as k limbs.  Below this point every kernel is
     fixed-width and branchless; the only exponent-driven control left is
     the short-exponent fast path, reserved for public exponents. *)
  let pow_raw ctx ~braw ~exp =
    let k = ctx.k in
    let mm = ctx.mm and n0' = ctx.n0' in
    let t = Array.make (2 * k) 0 in
    let bm = Array.make k 0 in
    mont_mul_raw ~k ~mm ~n0' ~t braw ctx.r2_raw bm;
    let nbits = bit_length exp in
    let result =
      if nbits <= 2 * limb_bits then begin
        (* short exponents (e.g. the public 65537): plain square-and-multiply
           beats paying for a window table.  Branching on exponent bits is
           acceptable here because short exponents are public by
           construction (RSA e, protocol cofactors) — never dp/dq/x. *)
        let result = Array.copy ctx.one_raw in
        for i = nbits - 1 downto 0 do
          mont_sqr_raw ~k ~mm ~n0' ~t result result;
          if test_bit exp i then mont_mul_raw ~k ~mm ~n0' ~t result bm result
        done;
        result
      end
      else begin
        (* Fixed 4-bit windows.  Long exponents are the secret ones (RSA
           dp/dq, DH private), so the schedule must not depend on their bit
           pattern: the exponent is padded to the modulus width and every
           window pays one gathered table multiply — a zero window
           multiplies by the Montgomery one.  The word-mul count (and thus
           the charged cycle cost) is a function of the limb count k alone,
           which is what the leakage sentinel asserts per private_op
           sample.  The top window seeds the accumulator directly instead
           of squaring the Montgomery one four times — same fixed schedule,
           4 squarings and 1 multiply cheaper per exponentiation. *)
        let table = window_table ctx ~t bm in
        let elimbs = max k (Array.length exp.mag) in
        let nibble = nibbles ~elimbs exp in
        let nwin = elimbs * limb_bits / 4 in
        let g = Array.make k 0 in
        let result = Array.make k 0 in
        ct_gather ~k table (nibble (nwin - 1)) result;
        for w = nwin - 2 downto 0 do
          for _ = 1 to 4 do
            mont_sqr_raw ~k ~mm ~n0' ~t result result
          done;
          ct_gather ~k table (nibble w) g;
          mont_mul_raw ~k ~mm ~n0' ~t result g result
        done;
        result
      end
    in
    finish ctx ~exp result

  let pow ctx ~base:b ~exp =
    if exp.sign < 0 then invalid_arg "Bn.Mont.pow: negative exponent";
    if b.sign < 0 || cmp_mag b.mag ctx.m.mag >= 0 then
      invalid_arg "Bn.Mont.pow: base out of range";
    normalize 1 (pow_raw ctx ~braw:(raw_of ~k:ctx.k b) ~exp)

  (* Fixed-base comb: for a base used over and over (the DH generator),
     precompute comb.(w).(j) = base^(j * 16^w) in the Montgomery domain
     for every 4-bit window w of a k-limb exponent.  Then base^exp is one
     gather per window and a product of the gathered entries — nwin - 1
     multiplies and no squarings, against pow_raw's 4 squarings and a
     multiply per window.  Same constant shape: the schedule and both
     counters depend on k alone. *)
  let comb_create ctx ~braw =
    let k = ctx.k in
    let t = Array.make (2 * k) 0 in
    let nwin = k * limb_bits / 4 in
    let bw = Array.make k 0 in
    mont_mul_raw ~k ~mm:ctx.mm ~n0':ctx.n0' ~t braw ctx.r2_raw bw;
    let comb = Array.make nwin [||] in
    for w = 0 to nwin - 1 do
      if w > 0 then
        for _ = 1 to 4 do
          mont_sqr_raw ~k ~mm:ctx.mm ~n0':ctx.n0' ~t bw bw
        done;
      comb.(w) <- window_table ctx ~t (Array.copy bw)
    done;
    comb

  (* base^exp mod m as k limbs, for an exponent of at most k limbs *)
  let comb_pow ctx comb ~exp =
    let k = ctx.k in
    let t = Array.make (2 * k) 0 in
    let nibble = nibbles ~elimbs:k exp in
    let g = Array.make k 0 in
    let result = Array.make k 0 in
    ct_gather ~k comb.(0) (nibble 0) result;
    for w = 1 to Array.length comb - 1 do
      ct_gather ~k comb.(w) (nibble w) g;
      mont_mul_raw ~k ~mm:ctx.mm ~n0':ctx.n0' ~t result g result
    done;
    finish ctx ~exp result
end

(* Montgomery contexts are costly to build (R^2 mod m needs a wide
   division) while callers exponentiate against a handful of long-lived
   moduli (the DH prime, RSA n/p/q), so keep a tiny move-to-front cache.
   Domain-local, like the word-mul counter: fleet shards running on
   parallel domains must not share or race on it. *)
let mont_cache_key : (t * Mont.ctx option) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let mont_cache_max = 8

let mont_ctx modulus =
  let mont_cache = Domain.DLS.get mont_cache_key in
  match List.assoc_opt modulus !mont_cache with
  | Some ctx ->
    if not (equal (fst (List.hd !mont_cache)) modulus) then
      mont_cache :=
        (modulus, ctx) :: List.filter (fun (m, _) -> not (equal m modulus)) !mont_cache;
    ctx
  | None ->
    let ctx = Mont.create modulus in
    let keep = List.filteri (fun i _ -> i < mont_cache_max - 1) !mont_cache in
    mont_cache := (modulus, ctx) :: keep;
    ctx

let mod_pow ~base:b ~exp ~modulus =
  if modulus.sign <= 0 then invalid_arg "Bn.mod_pow: modulus must be positive";
  if exp.sign < 0 then invalid_arg "Bn.mod_pow: negative exponent";
  if is_one modulus then zero
  else if is_odd modulus && Array.length modulus.mag > 1 then
    match mont_ctx modulus with
    | Some ctx -> Mont.pow ctx ~base:(rem b modulus) ~exp
    | None -> mod_pow_const_shape ~base:b ~exp ~modulus
  else
    (* even or single-limb modulus: Montgomery reduction needs gcd(m, R)=1,
       so take the constant-shape ladder instead of the branchy plain path *)
    mod_pow_const_shape ~base:b ~exp ~modulus

(* Fixed-base comb tables, keyed by (modulus, base).  Domain-local like
   the Montgomery cache; a table holds 16 * 6k entries of k limbs. *)
let comb_cache_key : ((t * t) * (Mont.ctx * int array array array)) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let comb_cache_max = 4

let comb_table modulus b =
  let cache = Domain.DLS.get comb_cache_key in
  match List.find_opt (fun ((m, g), _) -> equal m modulus && equal g b) !cache with
  | Some (_, v) -> Some v
  | None ->
    Option.map
      (fun ctx ->
        let v = (ctx, Mont.comb_create ctx ~braw:(Mont.raw_of ~k:ctx.Mont.k (rem b modulus))) in
        let keep = List.filteri (fun i _ -> i < comb_cache_max - 1) !cache in
        cache := ((modulus, b), v) :: keep;
        v)
      (mont_ctx modulus)

let mod_pow_fixed_base ~base:b ~exp ~modulus =
  (* the moduli mod_pow sends to Montgomery, and exponents a comb covers *)
  let comb =
    if modulus.sign > 0 && is_odd modulus && Array.length modulus.mag > 1 && exp.sign >= 0
    then comb_table modulus b
    else None
  in
  match comb with
  | Some (ctx, comb) when Array.length exp.mag <= ctx.Mont.k ->
    normalize 1 (Mont.comb_pow ctx comb ~exp)
  | _ -> mod_pow ~base:b ~exp ~modulus

(* ---- public constant-time fixed-width wrappers ---- *)

module Ct = struct
  (* the module shadows [add]/[sub]/[mul] with fixed-width versions;
     keep the variable-time ones reachable for the fallback path *)
  let bn_add = add
  let bn_sub = sub
  let bn_mul = mul

  let limb_traffic () = !(ct_traffic_ ())

  (* operand as exactly [width] limbs; conversion between the normalized
     [t] representation and the fixed width happens only at this boundary *)
  let raw ~width x =
    if x.sign < 0 then invalid_arg "Bn.Ct: negative operand";
    if Array.length x.mag > width then invalid_arg "Bn.Ct: operand wider than width";
    let r = Array.make width 0 in
    Array.blit x.mag 0 r 0 (Array.length x.mag);
    r

  let select ~width ~bit a b =
    let d = Array.make width 0 in
    ct_select_raw ~k:width bit (raw ~width a) (raw ~width b) d;
    normalize 1 d

  let add ~width a b =
    let d = Array.make width 0 in
    let carry = ct_add_raw ~k:width (raw ~width a) (raw ~width b) d in
    (normalize 1 d, carry)

  let sub ~width a b =
    let d = Array.make width 0 in
    let borrow = ct_sub_raw ~k:width (raw ~width a) (raw ~width b) d in
    (normalize 1 d, borrow)

  let ge ~width a b = ct_ge_raw ~k:width (raw ~width a) (raw ~width b) = 1

  let mul ~width a b =
    let d = Array.make (2 * width) 0 in
    ct_mul_raw ~ka:width ~kb:width (raw ~width a) (raw ~width b) d;
    normalize 1 d

  let check_mod ~m name =
    if m.sign <= 0 then invalid_arg (name ^ ": modulus must be positive")

  let mod_add ~m a b =
    check_mod ~m "Bn.Ct.mod_add";
    let k = Array.length m.mag in
    let mr = raw ~width:k m in
    let ar = raw ~width:k a and br = raw ~width:k b in
    if ct_ge_raw ~k ar mr = 1 || ct_ge_raw ~k br mr = 1 then
      invalid_arg "Bn.Ct.mod_add: operand out of range";
    let s = Array.make k 0 in
    let hi = ct_add_raw ~k ar br s in
    let sc = Array.make k 0 in
    let d = Array.make k 0 in
    ct_reduce_once ~k ~mm:mr ~hi s 0 sc 0 d;
    normalize 1 d

  let mod_sub ~m a b =
    check_mod ~m "Bn.Ct.mod_sub";
    let k = Array.length m.mag in
    let mr = raw ~width:k m in
    let ar = raw ~width:k a and br = raw ~width:k b in
    if ct_ge_raw ~k ar mr = 1 || ct_ge_raw ~k br mr = 1 then
      invalid_arg "Bn.Ct.mod_sub: operand out of range";
    let d = Array.make k 0 in
    let borrow = ct_sub_raw ~k ar br d in
    let e = Array.make k 0 in
    (* d + m, carry discarded: exact mod base^k when a < b *)
    ignore (ct_add_raw ~k d mr e : int);
    let r = Array.make k 0 in
    ct_select_raw ~k borrow e d r;
    normalize 1 r

  (* CRT-context cache: (p, q) -> width-padded Montgomery contexts for
     both halves plus the recombined modulus.  Domain-local, like the
     mont_ctx cache: fleet shards on parallel domains must not share. *)
  let crt_cache_key : ((t * t) * (t * Mont.ctx * Mont.ctx)) list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let crt_cache_max = 4

  let crt_ctxs p q =
    let cache = Domain.DLS.get crt_cache_key in
    match List.find_opt (fun ((p', q'), _) -> equal p' p && equal q' q) !cache with
    | Some (_, v) -> Some v
    | None ->
      let kh = max (Array.length p.mag) (Array.length q.mag) in
      (match (Mont.create_width ~width:kh p, Mont.create_width ~width:kh q) with
       | Some cp, Some cq ->
         let v = (bn_mul p q, cp, cq) in
         let keep = List.filteri (fun i _ -> i < crt_cache_max - 1) !cache in
         cache := ((p, q), v) :: keep;
         Some v
       | _ -> None)

  (* c mod m in constant shape for any 2k-limb c < m * base^k: one
     Montgomery reduction (c * R^-1 mod m) followed by a multiply with
     R^2 (and its implicit R^-1) lands back on c mod m. *)
  let reduce_mod (ctx : Mont.ctx) craw =
    let k = ctx.Mont.k in
    let w = Array.make ((2 * k) + 1) 0 in
    Array.blit craw 0 w 0 (min (Array.length craw) (2 * k));
    let u = Array.make k 0 in
    Mont.mont_redc_raw ~k ~mm:ctx.Mont.mm ~n0':ctx.Mont.n0' w u;
    let t = Array.make (2 * k) 0 in
    let d = Array.make k 0 in
    Mont.mont_mul_raw ~k ~mm:ctx.Mont.mm ~n0':ctx.Mont.n0' ~t u ctx.Mont.r2_raw d;
    d

  (* variable-time route, kept only for degenerate moduli the Montgomery
     engine rejects (even / one / non-positive p or q) — never for real
     keys *)
  let crt_exp_fallback ~p ~q ~dp ~dq ~qinv c =
    let m1 = mod_pow ~base:c ~exp:dp ~modulus:p in
    let m2 = mod_pow ~base:c ~exp:dq ~modulus:q in
    let h = rem (bn_mul qinv (bn_sub m1 m2)) p in
    let result = bn_add m2 (bn_mul h q) in
    (result, m1, m2, h)

  let crt_exp ~p ~q ~dp ~dq ~qinv c =
    match crt_ctxs p q with
    | None -> crt_exp_fallback ~p ~q ~dp ~dq ~qinv c
    | Some (n, cp, cq) ->
      let kh = cp.Mont.k in
      if c.sign < 0 || compare c n >= 0 || qinv.sign < 0
         || Array.length qinv.mag > kh || dp.sign < 0 || dq.sign < 0
      then crt_exp_fallback ~p ~q ~dp ~dq ~qinv c
      else begin
        (* constant shape end to end: every intermediate is a fixed-width
           limb vector — the halves at kh = max(limbs p, limbs q), the
           recombination at 2*kh — regardless of the values involved *)
        let craw = Array.make (2 * kh) 0 in
        Array.blit c.mag 0 craw 0 (Array.length c.mag);
        let bp = reduce_mod cp craw in
        let bq = reduce_mod cq craw in
        let m1 = Mont.pow_raw cp ~braw:bp ~exp:dp in
        let m2 = Mont.pow_raw cq ~braw:bq ~exp:dq in
        (* h = qinv * (m1 - m2) mod p, entirely inside p's Montgomery
           domain; m2 may exceed p, which to_mont absorbs (any value
           below base^kh reduces mod p through the REDC multiply) *)
        let mmp = cp.Mont.mm and n0p = cp.Mont.n0' in
        let t = Array.make (2 * kh) 0 in
        let am1 = Array.make kh 0 and am2 = Array.make kh 0 in
        Mont.mont_mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t m1 cp.Mont.r2_raw am1;
        Mont.mont_mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t m2 cp.Mont.r2_raw am2;
        let d = Array.make kh 0 in
        let borrow = ct_sub_raw ~k:kh am1 am2 d in
        let e = Array.make kh 0 in
        ignore (ct_add_raw ~k:kh d mmp e : int);
        let dm = Array.make kh 0 in
        ct_select_raw ~k:kh borrow e d dm;
        let qm = Array.make kh 0 in
        Mont.mont_mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t (raw ~width:kh qinv) cp.Mont.r2_raw qm;
        let hm = Array.make kh 0 in
        Mont.mont_mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t dm qm hm;
        let w = Array.make ((2 * kh) + 1) 0 in
        Array.blit hm 0 w 0 kh;
        let h = Array.make kh 0 in
        Mont.mont_redc_raw ~k:kh ~mm:mmp ~n0':n0p w h;
        (* recombine at twice the half width: result = m2 + h*q < p*q *)
        let hq = Array.make (2 * kh) 0 in
        ct_mul_raw ~ka:kh ~kb:kh h (raw ~width:kh q) hq;
        let m2w = Array.make (2 * kh) 0 in
        Array.blit m2 0 m2w 0 kh;
        let res = Array.make (2 * kh) 0 in
        ignore (ct_add_raw ~k:(2 * kh) hq m2w res : int);
        (normalize 1 res, normalize 1 m1, normalize 1 m2, normalize 1 h)
      end
end

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let egcd a b =
  let rec go old_r r old_s s old_t t =
    if is_zero r then (old_r, old_s, old_t)
    else begin
      let q, rm = divmod old_r r in
      go r rm s (sub old_s (mul q s)) t (sub old_t (mul q t))
    end
  in
  let g, x, y = go a b one zero zero one in
  if g.sign < 0 then (neg g, neg x, neg y) else (g, x, y)

let mod_inverse a m =
  if m.sign <= 0 then invalid_arg "Bn.mod_inverse: modulus must be positive";
  let g, x, _ = egcd (rem a m) m in
  if not (is_one g) then None else Some (rem x m)

(* ---- conversions ---- *)

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then zero
  else begin
    let nlimbs = ((n * 8) + limb_bits - 1) / limb_bits in
    let mag = Array.make nlimbs 0 in
    (* consume bytes from the end (least significant) *)
    let acc = ref 0 and accbits = ref 0 and limb = ref 0 in
    for i = n - 1 downto 0 do
      acc := !acc lor (Char.code s.[i] lsl !accbits);
      accbits := !accbits + 8;
      if !accbits >= limb_bits then begin
        mag.(!limb) <- !acc land limb_mask;
        acc := !acc lsr limb_bits;
        accbits := !accbits - limb_bits;
        incr limb
      end
    done;
    if !accbits > 0 && !limb < nlimbs then mag.(!limb) <- !acc;
    normalize 1 mag
  end

let to_bytes_be t =
  if t.sign = 0 then ""
  else begin
    let nbytes = (bit_length t + 7) / 8 in
    let b = Bytes.create nbytes in
    for i = 0 to nbytes - 1 do
      (* byte i is the most significant remaining *)
      let bit_off = (nbytes - 1 - i) * 8 in
      let limb = bit_off / limb_bits and off = bit_off mod limb_bits in
      let lo = t.mag.(limb) lsr off in
      let hi =
        if off > limb_bits - 8 && limb + 1 < Array.length t.mag then
          t.mag.(limb + 1) lsl (limb_bits - off)
        else 0
      in
      Bytes.set b i (Char.chr ((lo lor hi) land 0xff))
    done;
    Bytes.unsafe_to_string b
  end

let to_bytes_be_pad t n =
  let s = to_bytes_be t in
  let l = String.length s in
  if l > n then invalid_arg "Bn.to_bytes_be_pad: value too large"
  else String.make (n - l) '\000' ^ s

let of_hex h =
  let neg_sign, h = if String.length h > 0 && h.[0] = '-' then (true, String.sub h 1 (String.length h - 1)) else (false, h) in
  if String.length h = 0 then invalid_arg "Bn.of_hex: empty";
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  let v = of_bytes_be (Memguard_util.Bytes_util.string_of_hex h) in
  if neg_sign then neg v else v

let to_hex t =
  if t.sign = 0 then "0"
  else begin
    let s = Memguard_util.Bytes_util.hex_of_string (to_bytes_be t) in
    let s = if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1) else s in
    if t.sign < 0 then "-" ^ s else s
  end

let of_dec s =
  let neg_sign, s = if String.length s > 0 && s.[0] = '-' then (true, String.sub s 1 (String.length s - 1)) else (false, s) in
  if String.length s = 0 then invalid_arg "Bn.of_dec: empty";
  let v = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> v := add_int (mul_int !v 10) (Char.code c - Char.code '0')
      | _ -> invalid_arg "Bn.of_dec: bad digit")
    s;
  if neg_sign then neg !v else !v

let to_dec t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let ten9 = of_int 1_000_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod v ten9 in
        go q ((to_int r) :: acc)
      end
    in
    let chunks = go (abs t) [] in
    (match chunks with
     | [] -> ()
     | first :: rest ->
       if t.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt t = Format.pp_print_string fmt (to_dec t)

(* ---- randomness and primality ---- *)

let random_bits rng bits =
  if bits < 0 then invalid_arg "Bn.random_bits";
  if bits = 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let mag = Array.make nlimbs 0 in
    for i = 0 to nlimbs - 1 do
      mag.(i) <- Memguard_util.Prng.int rng base
    done;
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize 1 mag
  end

let random_below rng bound =
  if bound.sign <= 0 then invalid_arg "Bn.random_below: bound must be positive";
  let bits = bit_length bound in
  let rec go () =
    let candidate = random_bits rng bits in
    if compare candidate bound < 0 then candidate else go ()
  in
  go ()

let small_primes =
  (* primes below 1024 via a quick sieve *)
  let limit = 1024 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  let i = ref 2 in
  while !i * !i <= limit do
    if sieve.(!i) then begin
      let j = ref (!i * !i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + !i
      done
    end;
    incr i
  done;
  let acc = ref [] in
  for p = limit downto 2 do
    if sieve.(p) then acc := p :: !acc
  done;
  Array.of_list !acc

let miller_rabin_witness n d s a =
  (* true if a witnesses compositeness of n; d odd, n-1 = d * 2^s *)
  let x = mod_pow ~base:a ~exp:d ~modulus:n in
  let n1 = sub n one in
  if is_one x || equal x n1 then false
  else begin
    let rec go i x =
      if i >= s - 1 then true
      else begin
        let x = rem (sqr x) n in
        if equal x n1 then false else go (i + 1) x
      end
    in
    go 0 x
  end

let is_probable_prime ?(rounds = 20) rng n =
  if n.sign <= 0 then false
  else
    match to_int n with
    | small when small < 4 -> small = 2 || small = 3
    | exception Failure _ -> (
      if is_even n then false
      else begin
        let divisible =
          Array.exists (fun p -> rem_int n p = 0) small_primes
        in
        if divisible then false
        else begin
          let n1 = sub n one in
          let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
          let d, s = split n1 0 in
          let rec trial i =
            if i >= rounds then true
            else begin
              let a = add (random_below rng (sub n (of_int 3))) two in
              if miller_rabin_witness n d s a then false else trial (i + 1)
            end
          in
          trial 0
        end
      end)
    | small ->
      if small mod 2 = 0 then false
      else begin
        let rec chk d = d * d > small || (small mod d <> 0 && chk (d + 2)) in
        chk 3
      end

let gen_prime ?(rounds = 20) rng ~bits =
  if bits < 8 then invalid_arg "Bn.gen_prime: need at least 8 bits";
  let rec go () =
    let candidate = random_bits rng bits in
    (* force exact bit length, top two bits, oddness *)
    let top = add (shift_left one (bits - 1)) (shift_left one (bits - 2)) in
    let candidate =
      let masked = rem candidate (shift_left one (bits - 2)) in
      let c = add masked top in
      if is_even c then add c one else c
    in
    if is_probable_prime ~rounds rng candidate then candidate else go ()
  in
  go ()
