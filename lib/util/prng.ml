type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

let of_int seed = create ~seed:(Int64.of_int seed)

(* splitmix64 finalizer *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }

(* Domain-separation constant for [derive], distinct from [golden_gamma] so
   a tagged child stream can never alias one of the parent's own future
   states (which march in [golden_gamma] steps).  The constant is the LXM
   paper's 64-bit multiplier — any odd constant with good avalanche under
   [mix] works; what matters is that it is fixed, so derivation is a pure
   function of (parent state, tag). *)
let derive_gamma = 0xD1342543DE82EF95L

let derive t ~tag =
  if tag < 0 then invalid_arg "Prng.derive: tag must be non-negative";
  let z = Int64.add t.state (Int64.mul (Int64.of_int (tag + 1)) derive_gamma) in
  { state = mix (Int64.logxor (mix z) golden_gamma) }

let copy t = { state = t.state }

let bits30 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* rejection sampling to avoid modulo bias *)
    let rec go () =
      let r = bits30 t in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then go () else v
    in
    go ()
  end else
    (* large bound: use 62 bits *)
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    r mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.compare (next_int64 t) 0L < 0

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let fill_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Prng.fill_bytes: bad range";
  (* one generator step yields eight bytes *)
  let limit = pos + len in
  let i = ref pos in
  while !i + 8 <= limit do
    Bytes.set_int64_le b !i (next_int64 t);
    i := !i + 8
  done;
  if !i < limit then begin
    let r = ref (next_int64 t) in
    while !i < limit do
      Bytes.unsafe_set b !i (Char.unsafe_chr (Int64.to_int !r land 0xff));
      r := Int64.shift_right_logical !r 8;
      incr i
    done
  end

let bytes t n =
  let b = Bytes.create n in
  fill_bytes t b ~pos:0 ~len:n;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))
