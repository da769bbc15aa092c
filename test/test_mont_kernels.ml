(* The product-scanning Montgomery kernels and the fixed-base comb:
   differential checks against a variable-time Bn.mul/Bn.rem reference
   over 1..40-limb moduli (including the all-0xffffff shapes that fill the
   column accumulators the most, and k = 1), the per-op counters pinned at
   three RSA sizes, the accumulator-bound guard at its boundary, and the
   constant-time shape of fixed-base DH keygen. *)

open Memguard_bignum
open Memguard_util
module Rsa = Memguard_crypto.Rsa
module Dh = Memguard_crypto.Dh

let bn = Alcotest.testable Bn.pp Bn.equal

(* ---- reference ---- *)

let ref_pow b e m =
  let b = Bn.rem b m in
  let r = ref (Bn.rem Bn.one m) in
  for i = Bn.bit_length e - 1 downto 0 do
    r := Bn.rem (Bn.mul !r !r) m;
    if Bn.test_bit e i then r := Bn.rem (Bn.mul !r b) m
  done;
  !r

(* R^-1 mod m for R = 2^(24k), k = the modulus' limb count *)
let r_inv m =
  Option.get (Bn.mod_inverse (Bn.shift_left Bn.one (24 * Bn.num_limbs m)) m)

(* ---- generator: a modulus shape, two operands, an exponent ---- *)

type case = { m : Bn.t; a : Bn.t; b : Bn.t; e : Bn.t }

let all_ones k = Bn.sub (Bn.shift_left Bn.one (24 * k)) Bn.one

let gen_case =
  let open QCheck.Gen in
  let* width = int_range 1 40 in
  let* shape = int_range 0 3 in
  let* seed = int_range 0 ((1 lsl 30) - 1) in
  let* pick_a = int_range 0 4 and* pick_b = int_range 0 4 and* pick_e = int_range 0 5 in
  let rng = Prng.of_int seed in
  let m =
    match shape with
    | 0 -> all_ones width
    | 1 when width > 1 -> Bn.add (Bn.shift_left Bn.one (24 * (width - 1))) Bn.one
    | _ ->
      (* random odd modulus with a non-zero top limb, >= 3 *)
      let v = Bn.random_bits rng (24 * width) in
      let v = Bn.add (Bn.shift_left (Bn.shift_right v 1) 1) Bn.one in
      if Bn.num_limbs v < width || Bn.compare v (Bn.of_int 3) < 0 then all_ones width
      else v
  in
  let operand pick =
    match pick with
    | 0 -> Bn.zero
    | 1 -> Bn.one
    | 2 -> Bn.sub m Bn.one
    | _ -> Bn.random_below rng m
  in
  let e =
    match pick_e with
    | 0 -> Bn.zero
    | 1 -> Bn.one
    | 2 -> Bn.sub m Bn.one
    | 3 -> all_ones width
    | 4 -> Bn.random_bits rng (24 * (width + 1))
    | _ -> Bn.random_bits rng (Prng.int rng (24 * width) + 1)
  in
  return { m; a = operand pick_a; b = operand pick_b; e }

let arb_case =
  QCheck.make gen_case ~print:(fun c ->
      Printf.sprintf "limbs=%d m=%s a=%s b=%s e=%s" (Bn.num_limbs c.m) (Bn.to_hex c.m)
        (Bn.to_hex c.a) (Bn.to_hex c.b) (Bn.to_hex c.e))

let prop_mont_differential =
  QCheck.Test.make ~name:"Mont mul/pow/from_mont and fixed-base = reference, 1-40 limbs"
    ~count:120 arb_case (fun { m; a; b; e } ->
      let ctx = Option.get (Bn.Mont.create m) in
      let ri = r_inv m in
      let red x = Bn.rem x m in
      Bn.equal (Bn.Mont.mul ctx a b) (red (Bn.mul (Bn.mul a b) ri))
      && Bn.equal (Bn.Mont.from_mont ctx a) (red (Bn.mul a ri))
      && Bn.equal
           (Bn.Mont.from_mont ctx (Bn.Mont.mul ctx (Bn.Mont.to_mont ctx a) (Bn.Mont.to_mont ctx b)))
           (red (Bn.mul a b))
      && (let expect = ref_pow a e m in
          Bn.equal (Bn.Mont.pow ctx ~base:a ~exp:e) expect
          && Bn.equal (Bn.mod_pow_fixed_base ~base:a ~exp:e ~modulus:m) expect
          && Bn.equal (Bn.mod_pow ~base:a ~exp:e ~modulus:m) expect))

(* Squaring runs the multiply loop but is counted as the squaring
   kernel: a^(2^j) by Mont.pow (short-exponent path: the domain entry,
   j + 1 squarings, one multiply by the base and the exit REDC) equals
   j Montgomery self-products, and the word-mul count is exactly the
   per-kernel formulas'. *)
let prop_sqr_matches_mul =
  QCheck.Test.make ~name:"Mont squaring = Mont.mul a a, 1-45 limbs, counted as squaring"
    ~count:90
    QCheck.(triple (int_range 1 45) (int_range 1 4) (int_range 0 ((1 lsl 30) - 1)))
    (fun (width, j, seed) ->
      let rng = Prng.of_int seed in
      let m =
        let v = Bn.add (Bn.shift_left (Bn.random_bits rng ((24 * width) - 1)) 1) Bn.one in
        if Bn.num_limbs v < width || Bn.compare v (Bn.of_int 3) < 0 then all_ones width
        else v
      in
      let ctx = Option.get (Bn.Mont.create m) in
      let a = if seed mod 7 = 0 then Bn.sub m Bn.one else Bn.random_below rng m in
      let x = ref (Bn.Mont.to_mont ctx a) in
      for _ = 1 to j do
        x := Bn.Mont.mul ctx !x !x
      done;
      let w0 = Bn.Mont.word_muls () in
      let got = Bn.Mont.pow ctx ~base:a ~exp:(Bn.shift_left Bn.one j) in
      let words = Bn.Mont.word_muls () - w0 in
      let k = width in
      let sqr = (k * (k - 1) / 2) + k + (k * k) in
      Bn.equal got (Bn.Mont.from_mont ctx !x)
      && words = (2 * k * k) + ((j + 1) * sqr) + (2 * k * k) + (k * (k + 1)))

(* k = 1: a single column in each half, with empty inner product loops;
   edge residues of several single-limb moduli, all-ones 0xffffff among
   them *)
let test_single_limb () =
  List.iter
    (fun m ->
      let m = Bn.of_int m in
      let ctx = Option.get (Bn.Mont.create m) in
      let ri = r_inv m in
      List.iter
        (fun a ->
          let a = Bn.of_int a in
          Alcotest.check bn "mul" (Bn.rem (Bn.mul (Bn.mul a a) ri) m) (Bn.Mont.mul ctx a a);
          Alcotest.check bn "from_mont" (Bn.rem (Bn.mul a ri) m) (Bn.Mont.from_mont ctx a);
          List.iter
            (fun e ->
              Alcotest.check bn "pow" (ref_pow a e m) (Bn.Mont.pow ctx ~base:a ~exp:e);
              Alcotest.check bn "fixed-base" (ref_pow a e m)
                (Bn.mod_pow_fixed_base ~base:a ~exp:e ~modulus:m))
            [ Bn.zero; Bn.one; Bn.of_int 0xfffffe; all_ones 3 ])
        [ 0; 1; 2; Bn.to_int m - 1 ])
    [ 3; 0xffffff; 0xfffffd; 0x800001 ]

(* ---- Ct.crt_exp against the reference, uneven widths up to 40 limbs ---- *)

let gen_crt =
  let open QCheck.Gen in
  let* kp = int_range 1 40 and* kq = int_range 1 40 in
  let* seed = int_range 0 ((1 lsl 30) - 1) and* pick_c = int_range 0 3 in
  let rng = Prng.of_int seed in
  let odd k =
    let v = Bn.add (Bn.shift_left (Bn.random_bits rng ((24 * k) - 1)) 1) Bn.one in
    if Bn.compare v (Bn.of_int 3) < 0 then all_ones k else v
  in
  let p = if kp mod 5 = 0 then all_ones kp else odd kp in
  let q = odd kq in
  let n = Bn.mul p q in
  let c =
    match pick_c with
    | 0 -> Bn.zero
    | 1 -> Bn.one
    | 2 -> Bn.sub n Bn.one
    | _ -> Bn.random_below rng n
  in
  return
    ( p, q, Bn.random_below rng p, Bn.random_below rng q,
      Bn.random_below rng p, c )

let prop_crt_differential =
  QCheck.Test.make ~name:"Ct.crt_exp = reference, uneven 1-40 limb halves" ~count:40
    (QCheck.make gen_crt ~print:(fun (p, q, _, _, _, c) ->
         Printf.sprintf "p=%s q=%s c=%s" (Bn.to_hex p) (Bn.to_hex q) (Bn.to_hex c)))
    (fun (p, q, dp, dq, qinv, c) ->
      let m, m1, m2, h = Bn.Ct.crt_exp ~p ~q ~dp ~dq ~qinv c in
      let e1 = ref_pow c dp p and e2 = ref_pow c dq q in
      let eh = Bn.rem (Bn.mul qinv (Bn.sub e1 e2)) p in
      Bn.equal m1 e1 && Bn.equal m2 e2 && Bn.equal h eh
      && Bn.equal m (Bn.add e2 (Bn.mul eh q)))

(* ---- per-op counters pinned ---- *)

let crt_counts bits =
  let key = Rsa.generate (Prng.of_int 31) ~bits in
  let c = Bn.rem (Bn.of_hex "123456789abcdef0123456789abcdef") key.Rsa.n in
  let w0 = Bn.Mont.word_muls () and l0 = Bn.Ct.limb_traffic () in
  ignore
    (Bn.Ct.crt_exp ~p:key.Rsa.p ~q:key.Rsa.q ~dp:key.Rsa.dp ~dq:key.Rsa.dq
       ~qinv:key.Rsa.qinv c);
  (Bn.Mont.word_muls () - w0, Bn.Ct.limb_traffic () - l0)

let test_crt_counters_pinned () =
  List.iter
    (fun (bits, muls, traffic) ->
      let m, t = crt_counts bits in
      Alcotest.(check int) (Printf.sprintf "word_muls %d" bits) muls m;
      Alcotest.(check int) (Printf.sprintf "limb_traffic %d" bits) traffic t)
    [ (256, 23802, 11670); (512, 138072, 38610); (1024, 1063370, 152966) ]

let keygen_counts rng group =
  let w0 = Bn.Mont.word_muls () and l0 = Bn.Ct.limb_traffic () in
  let kp = Dh.generate_keypair rng group in
  (kp, (Bn.Mont.word_muls () - w0, Bn.Ct.limb_traffic () - l0))

let test_keygen_counts_secret_independent () =
  List.iter
    (fun (name, (group : Dh.params)) ->
      (* the first keypair of a group on this domain also builds its table *)
      ignore (Dh.generate_keypair (Prng.of_int 1) group);
      let samples = List.map (fun s -> keygen_counts (Prng.of_int s) group) [ 2; 3; 4; 5; 6 ] in
      let counts = List.map snd samples in
      let c0 = List.hd counts in
      Alcotest.(check bool) (name ^ " counts positive") true (fst c0 > 0 && snd c0 > 0);
      List.iter
        (fun c -> Alcotest.(check (pair int int)) (name ^ " same counts") c0 c)
        counts;
      List.iter
        (fun ((kp : Dh.keypair), _) ->
          Alcotest.check bn (name ^ " public = g^x")
            (Bn.mod_pow ~base:group.Dh.g ~exp:kp.Dh.secret ~modulus:group.Dh.p)
            kp.Dh.public)
        samples;
      (* a comb evaluation is nwin - 1 multiplies plus the exit REDC *)
      let k = Bn.num_limbs group.Dh.p in
      let nwin = k * 24 / 4 in
      Alcotest.(check int) (name ^ " word_muls = f(k)")
        (((nwin - 1) * 2 * k * k) + (k * (k + 1)))
        (fst c0))
    [ ("dh128", Dh.group_small); ("dh256", Dh.group_medium) ]

(* the leak hook reaches the comb path too *)
let test_fixed_base_leak_hook () =
  let g = Dh.group_small in
  let bits = Bn.bit_length g.Dh.p in
  let low = Bn.shift_left Bn.one (bits - 2) in
  let high = Bn.sub (Bn.shift_left Bn.one (bits - 1)) Bn.one in
  let counts e =
    let w0 = Bn.Mont.word_muls () and l0 = Bn.Ct.limb_traffic () in
    ignore (Bn.mod_pow_fixed_base ~base:g.Dh.g ~exp:e ~modulus:g.Dh.p);
    (Bn.Mont.word_muls () - w0, Bn.Ct.limb_traffic () - l0)
  in
  ignore (counts low);
  Alcotest.(check (pair int int)) "popcount-blind" (counts low) (counts high);
  Bn.Mont.inject_test_leak true;
  let (ml, ll), (mh, lh) =
    Fun.protect
      ~finally:(fun () -> Bn.Mont.inject_test_leak false)
      (fun () -> (counts low, counts high))
  in
  Alcotest.(check bool) "leak visible in word_muls" true (mh > ml);
  Alcotest.(check bool) "leak visible in limb_traffic" true (lh > ll)

(* moduli and exponents outside the comb's domain take mod_pow *)
let test_fixed_base_fallbacks () =
  let check name ~base ~exp ~modulus =
    Alcotest.check bn name (Bn.mod_pow ~base ~exp ~modulus)
      (Bn.mod_pow_fixed_base ~base ~exp ~modulus)
  in
  let p = Dh.group_small.Dh.p and g = Dh.group_small.Dh.g in
  check "exponent wider than the modulus" ~base:g
    ~exp:(Bn.add (Bn.shift_left Bn.one 300) Bn.one) ~modulus:p;
  check "even modulus" ~base:(Bn.of_int 3) ~exp:(Bn.of_int 1000)
    ~modulus:(Bn.shift_left Bn.one 80);
  check "base above the modulus" ~base:(Bn.add p (Bn.of_int 5)) ~exp:(Bn.of_int 77) ~modulus:p;
  Alcotest.check bn "modulus one" Bn.zero
    (Bn.mod_pow_fixed_base ~base:g ~exp:Bn.two ~modulus:Bn.one)

(* ---- accumulator-bound guard ---- *)

let test_width_guard () =
  let m = Bn.of_hex "c07fb2aa9db9c27fedbb1822dff7c873" in
  Alcotest.(check bool) "8191 limbs accepted" true
    (Bn.Mont.create_width ~width:8191 m <> None);
  Alcotest.(check bool) "8192 limbs refused" true
    (Bn.Mont.create_width ~width:8192 m = None);
  Alcotest.(check bool) "8192-limb modulus refused" true (Bn.Mont.create (all_ones 8192) = None)

(* k = 8191 with every limb 0xffffff: the widest columns the guard
   admits.  R = base^k = 1 mod m, so the Montgomery product is the plain
   one and (m-1)^2 = 1. *)
let test_width_boundary_product () =
  let m = all_ones 8191 in
  let ctx = Option.get (Bn.Mont.create m) in
  let m1 = Bn.sub m Bn.one in
  Alcotest.check bn "(m-1)(m-1) = 1" Bn.one (Bn.Mont.mul ctx m1 m1);
  Alcotest.check bn "from_mont (m-1) = m-1" m1 (Bn.Mont.from_mont ctx m1)

let suite =
  [ ( "mont-kernels",
      [ QCheck_alcotest.to_alcotest prop_mont_differential;
        QCheck_alcotest.to_alcotest prop_sqr_matches_mul;
        Alcotest.test_case "single-limb modulus" `Quick test_single_limb;
        QCheck_alcotest.to_alcotest prop_crt_differential;
        Alcotest.test_case "crt_exp counters pinned" `Quick test_crt_counters_pinned;
        Alcotest.test_case "fixed-base keygen counts" `Quick
          test_keygen_counts_secret_independent;
        Alcotest.test_case "fixed-base leak hook" `Quick test_fixed_base_leak_hook;
        Alcotest.test_case "fixed-base fallbacks" `Quick test_fixed_base_fallbacks;
        Alcotest.test_case "width guard" `Quick test_width_guard;
        Alcotest.test_case "width boundary product" `Slow test_width_boundary_product
      ] )
  ]
