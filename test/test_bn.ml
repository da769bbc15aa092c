open Memguard_bignum
open Memguard_util

let bn = Alcotest.testable Bn.pp Bn.equal

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Bn.to_int (Bn.of_int n)))
    [ 0; 1; -1; 42; -42; 0xffffff; 0x1000000; -0x1000000; max_int / 2; min_int / 2 ]

let test_dec_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Bn.to_dec (Bn.of_dec s)))
    [ "0"; "1"; "-1"; "123456789"; "999999999999999999999999999999";
      "-170141183460469231731687303715884105727" ]

let test_hex_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Bn.to_hex (Bn.of_hex s)))
    [ "0"; "1"; "ff"; "100"; "deadbeefcafebabe123456789abcdef"; "-abc123" ]

let test_add_known () =
  Alcotest.check bn "big add"
    (Bn.of_dec "111111111011111111100")
    (Bn.add (Bn.of_dec "12345678901234567890") (Bn.of_dec "98765432109876543210"))

let test_sub_known () =
  Alcotest.check bn "big sub"
    (Bn.of_dec "-86419753208641975320")
    (Bn.sub (Bn.of_dec "12345678901234567890") (Bn.of_dec "98765432109876543210"))

let test_mul_known () =
  Alcotest.check bn "big mul"
    (Bn.of_dec "1219326311370217952237463801111263526900")
    (Bn.mul (Bn.of_dec "12345678901234567890") (Bn.of_dec "98765432109876543210"))

let test_divmod_known () =
  let q, r = Helpers.divmod (Bn.of_dec "98765432109876543210") (Bn.of_dec "12345678901234567890") in
  Alcotest.check bn "quotient" (Bn.of_int 8) q;
  Alcotest.check bn "remainder" (Bn.of_dec "900000000090") r

let test_divmod_negative () =
  (* Euclidean convention: remainder always non-negative *)
  let q, r = Helpers.divmod (Bn.of_int (-7)) (Bn.of_int 3) in
  Alcotest.check bn "q" (Bn.of_int (-3)) q;
  Alcotest.check bn "r" (Bn.of_int 2) r;
  let q, r = Helpers.divmod (Bn.of_int 7) (Bn.of_int (-3)) in
  Alcotest.check bn "q neg divisor" (Bn.of_int (-2)) q;
  Alcotest.check bn "r neg divisor" (Bn.of_int 1) r

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Helpers.divmod Bn.one Bn.zero))

let test_shift () =
  Alcotest.check bn "shl" (Bn.of_int 1024) (Bn.shift_left Bn.one 10);
  Alcotest.check bn "shr" (Bn.of_int 1) (Bn.shift_right (Bn.of_int 1024) 10);
  Alcotest.check bn "shr to zero" Bn.zero (Bn.shift_right (Bn.of_int 5) 10);
  let big = Bn.of_hex "123456789abcdef0123456789abcdef" in
  Alcotest.check bn "shl/shr inverse" big (Bn.shift_right (Bn.shift_left big 37) 37)

let test_bit_length () =
  Alcotest.(check int) "zero" 0 (Bn.bit_length Bn.zero);
  Alcotest.(check int) "one" 1 (Bn.bit_length Bn.one);
  Alcotest.(check int) "255" 8 (Bn.bit_length (Bn.of_int 255));
  Alcotest.(check int) "256" 9 (Bn.bit_length (Bn.of_int 256));
  Alcotest.(check int) "2^100" 101 (Bn.bit_length (Bn.shift_left Bn.one 100))

let test_mod_pow_known () =
  (* 3^100 mod 101 = 1 by Fermat *)
  Alcotest.check bn "fermat"
    Bn.one
    (Bn.mod_pow ~base:(Bn.of_int 3) ~exp:(Bn.of_int 100) ~modulus:(Bn.of_int 101));
  Alcotest.check bn "2^10 mod 1000" (Bn.of_int 24)
    (Bn.mod_pow ~base:Bn.two ~exp:(Bn.of_int 10) ~modulus:(Bn.of_int 1000))

let test_mod_inverse_known () =
  match Bn.mod_inverse (Bn.of_int 3) (Bn.of_int 11) with
  | Some x -> Alcotest.check bn "3^-1 mod 11" (Bn.of_int 4) x
  | None -> Alcotest.fail "inverse should exist"

let test_mod_inverse_none () =
  Alcotest.(check bool) "no inverse of 6 mod 9" true (Bn.mod_inverse (Bn.of_int 6) (Bn.of_int 9) = None)

let test_gcd () =
  Alcotest.check bn "gcd" (Bn.of_int 6) (Bn.gcd (Bn.of_int 54) (Bn.of_int 24));
  Alcotest.check bn "gcd with zero" (Bn.of_int 7) (Bn.gcd (Bn.of_int 7) Bn.zero)

let test_bytes_be_roundtrip () =
  let v = Bn.of_hex "0123456789abcdef0011223344" in
  Alcotest.check bn "roundtrip" v (Bn.of_bytes_be (Bn.to_bytes_be v));
  Alcotest.(check string) "zero is empty" "" (Bn.to_bytes_be Bn.zero);
  Alcotest.check bn "leading zeros ignored" (Bn.of_int 258) (Bn.of_bytes_be "\000\000\001\002")

let test_bytes_be_pad () =
  Alcotest.(check string) "padded" "\000\000\001\002" (Bn.to_bytes_be_pad (Bn.of_int 258) 4);
  Alcotest.check_raises "too small" (Invalid_argument "Bn.to_bytes_be_pad: value too large")
    (fun () -> ignore (Bn.to_bytes_be_pad (Bn.of_int 258) 1))

let test_primality_known () =
  let rng = Prng.of_int 1 in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) (string_of_int n) expect (Bn.is_probable_prime rng (Bn.of_int n)))
    [ (2, true); (3, true); (4, false); (17, true); (561, false) (* Carmichael *);
      (7919, true); (7917, false); (1, false); (0, false) ]

let test_primality_big () =
  let rng = Prng.of_int 2 in
  (* 2^127 - 1 is a Mersenne prime *)
  let m127 = Bn.sub (Bn.shift_left Bn.one 127) Bn.one in
  Alcotest.(check bool) "M127 prime" true (Bn.is_probable_prime rng m127);
  Alcotest.(check bool) "M127+2 composite" false (Bn.is_probable_prime rng (Bn.add m127 Bn.two))

let test_gen_prime () =
  let rng = Prng.of_int 3 in
  let p = Bn.gen_prime rng ~bits:64 in
  Alcotest.(check int) "exact bit length" 64 (Bn.bit_length p);
  Alcotest.(check bool) "odd" true (Bn.is_odd p);
  Alcotest.(check bool) "probable prime" true (Bn.is_probable_prime rng p)

let test_rem_int () =
  Alcotest.(check int) "positive" 2 (Bn.rem_int (Bn.of_dec "12345678901234567892") 10);
  Alcotest.(check int) "negative value" 7 (Bn.rem_int (Bn.of_int (-13)) 10)

(* ---- properties ---- *)

let gen_bn =
  (* random magnitudes up to ~200 bits, signed *)
  QCheck.make
    ~print:Bn.to_dec
    QCheck.Gen.(
      let* nbits = int_range 0 200 in
      let* seed = int_range 0 (1 lsl 30 - 1) in
      let* negp = bool in
      let rng = Prng.of_int seed in
      let v = Bn.random_bits rng nbits in
      return (if negp then Bn.neg v else v))

let gen_bn_pos =
  QCheck.make
    ~print:Bn.to_dec
    QCheck.Gen.(
      let* nbits = int_range 1 200 in
      let* seed = int_range 0 (1 lsl 30 - 1) in
      let rng = Prng.of_int seed in
      return (Bn.add (Bn.random_bits rng nbits) Bn.one))

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative" ~count:300 (QCheck.pair gen_bn gen_bn)
    (fun (a, b) -> Bn.equal (Bn.add a b) (Bn.add b a))

let prop_add_associative =
  QCheck.Test.make ~name:"add associative" ~count:300 (QCheck.triple gen_bn gen_bn gen_bn)
    (fun (a, b, c) -> Bn.equal (Bn.add (Bn.add a b) c) (Bn.add a (Bn.add b c)))

let prop_sub_inverse =
  QCheck.Test.make ~name:"a + b - b = a" ~count:300 (QCheck.pair gen_bn gen_bn)
    (fun (a, b) -> Bn.equal a (Bn.sub (Bn.add a b) b))

let prop_mul_commutative =
  QCheck.Test.make ~name:"mul commutative" ~count:300 (QCheck.pair gen_bn gen_bn)
    (fun (a, b) -> Bn.equal (Bn.mul a b) (Bn.mul b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:300
    (QCheck.triple gen_bn gen_bn gen_bn)
    (fun (a, b, c) -> Bn.equal (Bn.mul a (Bn.add b c)) (Bn.add (Bn.mul a b) (Bn.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r, 0 <= r < |b|" ~count:500 (QCheck.pair gen_bn gen_bn_pos)
    (fun (a, b) ->
      let q, r = Helpers.divmod a b in
      Bn.equal a (Bn.add (Bn.mul q b) r) && Bn.sign r >= 0 && Bn.compare r (Bn.abs b) < 0)

let prop_divmod_neg_divisor =
  QCheck.Test.make ~name:"divmod with negative divisor" ~count:300 (QCheck.pair gen_bn gen_bn_pos)
    (fun (a, b) ->
      let b = Bn.neg b in
      let q, r = Helpers.divmod a b in
      Bn.equal a (Bn.add (Bn.mul q b) r) && Bn.sign r >= 0 && Bn.compare r (Bn.abs b) < 0)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"of_bytes_be . to_bytes_be = id (non-negative)" ~count:300 gen_bn
    (fun a ->
      let a = Bn.abs a in
      Bn.equal a (Bn.of_bytes_be (Bn.to_bytes_be a)))

let prop_dec_roundtrip =
  QCheck.Test.make ~name:"of_dec . to_dec = id" ~count:300 gen_bn
    (fun a -> Bn.equal a (Bn.of_dec (Bn.to_dec a)))

let prop_mod_pow_matches_naive =
  QCheck.Test.make ~name:"mod_pow matches naive for small exps" ~count:100
    QCheck.(triple (int_range 0 50) (int_range 0 12) (int_range 2 1000))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      Bn.to_int (Bn.mod_pow ~base:(Bn.of_int b) ~exp:(Bn.of_int e) ~modulus:(Bn.of_int m)) = !naive)

let prop_mod_inverse_correct =
  QCheck.Test.make ~name:"mod_inverse correct when it exists" ~count:300
    (QCheck.pair gen_bn_pos gen_bn_pos)
    (fun (a, m) ->
      QCheck.assume (Bn.compare m Bn.one > 0);
      match Bn.mod_inverse a m with
      | None -> not (Bn.is_one (Bn.gcd a m))
      | Some x -> Bn.is_one (Bn.rem (Bn.mul a x) m) || Bn.is_one m)

let prop_egcd_bezout =
  QCheck.Test.make ~name:"egcd satisfies Bezout" ~count:300 (QCheck.pair gen_bn gen_bn)
    (fun (a, b) ->
      let g, x, y = Bn.egcd a b in
      Bn.equal g (Bn.add (Bn.mul a x) (Bn.mul b y)) && Bn.sign g >= 0)

let prop_shift_mul_pow2 =
  QCheck.Test.make ~name:"shift_left k = mul 2^k" ~count:200 (QCheck.pair gen_bn (QCheck.int_range 0 64))
    (fun (a, k) -> Bn.equal (Bn.shift_left a k) (Bn.mul a (Bn.shift_left Bn.one k)))

let suite =
  [ ( "bn",
      [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
        Alcotest.test_case "dec roundtrip" `Quick test_dec_roundtrip;
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "add known" `Quick test_add_known;
        Alcotest.test_case "sub known" `Quick test_sub_known;
        Alcotest.test_case "mul known" `Quick test_mul_known;
        Alcotest.test_case "divmod known" `Quick test_divmod_known;
        Alcotest.test_case "divmod negative" `Quick test_divmod_negative;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero;
        Alcotest.test_case "shifts" `Quick test_shift;
        Alcotest.test_case "bit_length" `Quick test_bit_length;
        Alcotest.test_case "mod_pow known" `Quick test_mod_pow_known;
        Alcotest.test_case "mod_inverse known" `Quick test_mod_inverse_known;
        Alcotest.test_case "mod_inverse none" `Quick test_mod_inverse_none;
        Alcotest.test_case "gcd" `Quick test_gcd;
        Alcotest.test_case "bytes roundtrip" `Quick test_bytes_be_roundtrip;
        Alcotest.test_case "bytes pad" `Quick test_bytes_be_pad;
        Alcotest.test_case "primality small" `Quick test_primality_known;
        Alcotest.test_case "primality big" `Quick test_primality_big;
        Alcotest.test_case "gen_prime" `Quick test_gen_prime;
        Alcotest.test_case "rem_int" `Quick test_rem_int;
        QCheck_alcotest.to_alcotest prop_add_commutative;
        QCheck_alcotest.to_alcotest prop_add_associative;
        QCheck_alcotest.to_alcotest prop_sub_inverse;
        QCheck_alcotest.to_alcotest prop_mul_commutative;
        QCheck_alcotest.to_alcotest prop_mul_distributes;
        QCheck_alcotest.to_alcotest prop_divmod_identity;
        QCheck_alcotest.to_alcotest prop_divmod_neg_divisor;
        QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
        QCheck_alcotest.to_alcotest prop_dec_roundtrip;
        QCheck_alcotest.to_alcotest prop_mod_pow_matches_naive;
        QCheck_alcotest.to_alcotest prop_mod_inverse_correct;
        QCheck_alcotest.to_alcotest prop_egcd_bezout;
        QCheck_alcotest.to_alcotest prop_shift_mul_pow2
      ] )
  ]

(* ---- Montgomery arithmetic ---- *)

let test_mont_create () =
  Alcotest.(check bool) "even modulus rejected" true (Bn.Mont.create (Bn.of_int 100) = None);
  Alcotest.(check bool) "one rejected" true (Bn.Mont.create Bn.one = None);
  Alcotest.(check bool) "negative rejected" true (Bn.Mont.create (Bn.of_int (-7)) = None);
  Alcotest.(check bool) "odd accepted" true (Bn.Mont.create (Bn.of_int 101) <> None)

let test_mont_roundtrip () =
  let m = Bn.of_dec "170141183460469231731687303715884105727" in
  let ctx = Option.get (Bn.Mont.create m) in
  let rng = Prng.of_int 4 in
  for _ = 1 to 20 do
    let x = Bn.random_below rng m in
    Alcotest.check bn "from(to(x)) = x" x (Bn.Mont.from_mont ctx (Bn.Mont.to_mont ctx x))
  done

let test_mont_mul_matches_plain () =
  let m = Bn.of_dec "170141183460469231731687303715884105727" in
  let ctx = Option.get (Bn.Mont.create m) in
  let rng = Prng.of_int 5 in
  for _ = 1 to 20 do
    let a = Bn.random_below rng m and b = Bn.random_below rng m in
    let via_mont =
      Bn.Mont.from_mont ctx (Bn.Mont.mul ctx (Bn.Mont.to_mont ctx a) (Bn.Mont.to_mont ctx b))
    in
    Alcotest.check bn "mont mul = plain mul mod m" (Bn.rem (Bn.mul a b) m) via_mont
  done

let test_mont_pow_matches_fermat () =
  (* a^(m-1) = 1 mod prime m *)
  let m = Bn.sub (Bn.shift_left Bn.one 127) Bn.one in
  let ctx = Option.get (Bn.Mont.create m) in
  let rng = Prng.of_int 6 in
  for _ = 1 to 5 do
    let a = Bn.add (Bn.random_below rng (Bn.sub m Bn.two)) Bn.one in
    Alcotest.check bn "fermat" Bn.one (Bn.Mont.pow ctx ~base:a ~exp:(Bn.sub m Bn.one))
  done

let prop_mont_pow_matches_plain =
  QCheck.Test.make ~name:"Mont.pow matches plain square-and-multiply" ~count:100
    QCheck.(triple (int_range 1 1000000) (int_range 0 500) (int_range 2 100000))
    (fun (b, e, m_raw) ->
      let m = (2 * m_raw) + 1 (* odd, >= 5 *) in
      QCheck.assume (m > 1);
      let mb = Bn.of_int m in
      match Bn.Mont.create mb with
      | None -> true
      | Some ctx ->
        let base = Bn.rem (Bn.of_int b) mb in
        let expected =
          let r = ref 1 in
          for _ = 1 to e do
            r := !r * b mod m
          done;
          Bn.of_int (((!r mod m) + m) mod m)
        in
        Bn.equal expected (Bn.Mont.pow ctx ~base ~exp:(Bn.of_int e)))

let prop_mod_pow_mont_vs_plain_big =
  QCheck.Test.make ~name:"mod_pow (Montgomery path) = plain path on big odd moduli" ~count:30
    QCheck.(triple (int_range 0 100000) (int_range 0 100000) (int_range 0 100000))
    (fun (sb, se, sm) ->
      let rngm = Prng.of_int sm and rngb = Prng.of_int sb and rnge = Prng.of_int se in
      let m =
        let v = Bn.random_bits rngm 120 in
        let v = if Bn.is_odd v then v else Bn.add v Bn.one in
        if Bn.compare v (Bn.of_int 3) < 0 then Bn.of_int 5 else v
      in
      let b = Bn.random_below rngb m in
      let e = Bn.random_bits rnge 64 in
      Bn.equal
        (Bn.mod_pow ~base:b ~exp:e ~modulus:m)
        (let result = ref Bn.one in
         let nbits = Bn.bit_length e in
         let b = Bn.rem b m in
         for i = nbits - 1 downto 0 do
           result := Bn.rem (Bn.mul !result !result) m;
           if Bn.test_bit e i then result := Bn.rem (Bn.mul !result b) m
         done;
         !result))

(* RSA-sized operands: many limbs and long exponents drive the windowed
   exponentiation and every carry path of the squaring/multiply kernels *)
let prop_mod_pow_wide =
  QCheck.Test.make ~name:"mod_pow = square-and-multiply on 256-bit operands" ~count:15
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let m =
        let v = Bn.random_bits rng 256 in
        if Bn.is_odd v then v else Bn.add v Bn.one
      in
      let b = Bn.random_below rng m in
      let e = Bn.random_bits rng 256 in
      Bn.equal
        (Bn.mod_pow ~base:b ~exp:e ~modulus:m)
        (let result = ref Bn.one in
         for i = Bn.bit_length e - 1 downto 0 do
           result := Bn.rem (Bn.mul !result !result) m;
           if Bn.test_bit e i then result := Bn.rem (Bn.mul !result b) m
         done;
         !result))

(* Even moduli are outside Montgomery's gcd(m, R) = 1 domain and route to
   the constant-shape square-and-always-multiply fallback — pin its
   correctness on known values and on multi-limb random even moduli, so
   the routing can never silently return Montgomery garbage. *)
let test_mod_pow_even_known () =
  Alcotest.(check bool) "3^100 mod 1000 = 1" true
    (Bn.equal Bn.one
       (Bn.mod_pow ~base:(Bn.of_int 3) ~exp:(Bn.of_int 100) ~modulus:(Bn.of_int 1000)));
  Alcotest.(check bool) "2^20 mod 10^6" true
    (Bn.equal (Bn.of_int 48576)
       (Bn.mod_pow ~base:Bn.two ~exp:(Bn.of_int 20) ~modulus:(Bn.of_int 1000000)));
  (* multi-limb even modulus: 123456789^65537 mod (2^80 + 2) *)
  let m = Bn.add (Bn.shift_left Bn.one 80) Bn.two in
  Alcotest.(check bool) "even modulus spans limbs" false (Bn.is_odd m);
  Alcotest.(check bool) "123456789^65537 mod (2^80+2)" true
    (Bn.equal
       (Bn.of_dec "966836190486844084273917")
       (Bn.mod_pow ~base:(Bn.of_int 123456789) ~exp:(Bn.of_int 65537) ~modulus:m));
  Alcotest.(check bool) "exp 0 -> 1 even modulus" true
    (Bn.equal Bn.one (Bn.mod_pow ~base:(Bn.of_int 7) ~exp:Bn.zero ~modulus:(Bn.of_int 64)))

let prop_mod_pow_even_wide =
  QCheck.Test.make ~name:"mod_pow = square-and-multiply on 256-bit even moduli" ~count:15
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let m =
        let v = Bn.random_bits rng 256 in
        let v = if Bn.is_odd v then Bn.add v Bn.one else v in
        if Bn.compare v Bn.two < 0 then Bn.two else v
      in
      let b = Bn.random_below rng m in
      let e = Bn.random_bits rng 128 in
      Bn.equal
        (Bn.mod_pow ~base:b ~exp:e ~modulus:m)
        (let result = ref Bn.one in
         let b = Bn.rem b m in
         for i = Bn.bit_length e - 1 downto 0 do
           result := Bn.rem (Bn.mul !result !result) m;
           if Bn.test_bit e i then result := Bn.rem (Bn.mul !result b) m
         done;
         !result))

let mont_suite =
  ( "bn_montgomery",
    [ Alcotest.test_case "create" `Quick test_mont_create;
      Alcotest.test_case "roundtrip" `Quick test_mont_roundtrip;
      Alcotest.test_case "mul matches plain" `Quick test_mont_mul_matches_plain;
      Alcotest.test_case "pow fermat" `Quick test_mont_pow_matches_fermat;
      Alcotest.test_case "mod_pow even modulus" `Quick test_mod_pow_even_known;
      QCheck_alcotest.to_alcotest prop_mont_pow_matches_plain;
      QCheck_alcotest.to_alcotest prop_mod_pow_mont_vs_plain_big;
      QCheck_alcotest.to_alcotest prop_mod_pow_wide;
      QCheck_alcotest.to_alcotest prop_mod_pow_even_wide
    ] )

let suite = suite @ [ mont_suite ]
