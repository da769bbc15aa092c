(* The constant-time limb engine (Bn.Ct + the branchless Mont kernels):
   differential correctness against the variable-time reference,
   secret-independence of the word-mul and limb-traffic counters, the
   fixed-width serialization regression, the rem_int/egcd/mod_inverse
   edge-case pins, and the fleet fingerprint determinism guard. *)

open Memguard_kernel
open Memguard_ssl
open Memguard_bignum
open Memguard_util
module Rsa = Memguard_crypto.Rsa
module Fleet = Memguard_fleet.Fleet

let bn = Alcotest.testable Bn.pp Bn.equal

(* ---- differential: fixed-width primitives vs the reference ---- *)

(* adversarial shapes the QCheck generators rarely hit: zero, one, the
   top of the range, values whose high-order limbs are all zero *)
let adversarial width m =
  [ Bn.zero; Bn.one; Bn.sub m Bn.one; Bn.of_int 2;
    Bn.rem (Bn.of_hex "ffffff000001") m;
    Bn.rem (Bn.shift_left Bn.one (24 * (width - 1))) m;
    Bn.rem (Bn.sub (Bn.shift_left Bn.one 24) Bn.one) m ]

let test_ct_primitives_known () =
  let width = 4 in
  let cap = Bn.shift_left Bn.one (24 * width) in
  let m = Bn.sub cap (Bn.of_int 59) in
  let shapes = adversarial width m in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let s, carry = Bn.Ct.add ~width a b in
          let full = Bn.add a b in
          Alcotest.check bn "ct_add mod base^k" (Bn.rem full cap) s;
          Alcotest.(check int) "ct_add carry"
            (if Bn.compare full cap >= 0 then 1 else 0)
            carry;
          let d, borrow = Bn.Ct.sub ~width a b in
          let expect =
            if Bn.compare a b >= 0 then Bn.sub a b else Bn.add (Bn.sub a b) cap
          in
          Alcotest.check bn "ct_sub mod base^k" expect d;
          Alcotest.(check int) "ct_sub borrow"
            (if Bn.compare a b < 0 then 1 else 0)
            borrow;
          Alcotest.(check bool) "ct_ge" (Bn.compare a b >= 0) (Bn.Ct.ge ~width a b);
          Alcotest.check bn "ct_mul" (Bn.mul a b) (Bn.Ct.mul ~width a b);
          Alcotest.check bn "ct select a" a (Bn.Ct.select ~width ~bit:1 a b);
          Alcotest.check bn "ct select b" b (Bn.Ct.select ~width ~bit:0 a b);
          Alcotest.check bn "mod_add" (Bn.rem (Bn.add a b) m) (Bn.Ct.mod_add ~m a b);
          let sexpect = Bn.rem (Bn.add (Bn.sub a b) m) m in
          Alcotest.check bn "mod_sub" sexpect (Bn.Ct.mod_sub ~m a b))
        shapes)
    shapes

let gen_pair_below =
  (* a modulus of 2..8 limbs and two residues below it *)
  QCheck.make
    ~print:(fun (m, a, b) ->
      Printf.sprintf "m=%s a=%s b=%s" (Bn.to_dec m) (Bn.to_dec a) (Bn.to_dec b))
    QCheck.Gen.(
      let* width = int_range 2 8 in
      let* seed = int_range 0 (1 lsl 30 - 1) in
      let rng = Prng.of_int seed in
      let m = Bn.add (Bn.random_bits rng (24 * width)) Bn.two in
      let a = Bn.random_below rng m in
      let b = Bn.random_below rng m in
      return (m, a, b))

let prop_ct_differential =
  QCheck.Test.make ~name:"Ct ops match variable-time reference" ~count:300
    gen_pair_below (fun (m, a, b) ->
      let width = Bn.num_limbs m in
      let cap = Bn.shift_left Bn.one (24 * width) in
      let s, carry = Bn.Ct.add ~width a b in
      let full = Bn.add a b in
      Bn.equal s (Bn.rem full cap)
      && carry = (if Bn.compare full cap >= 0 then 1 else 0)
      && (let d, borrow = Bn.Ct.sub ~width a b in
          let expect =
            if Bn.compare a b >= 0 then Bn.sub a b else Bn.add (Bn.sub a b) cap
          in
          Bn.equal d expect && borrow = (if Bn.compare a b < 0 then 1 else 0))
      && Bn.Ct.ge ~width a b = (Bn.compare a b >= 0)
      && Bn.equal (Bn.Ct.mul ~width a b) (Bn.mul a b)
      && Bn.equal (Bn.Ct.mod_add ~m a b) (Bn.rem (Bn.add a b) m)
      && Bn.equal (Bn.Ct.mod_sub ~m a b) (Bn.rem (Bn.add (Bn.sub a b) m) m))

(* ---- differential: crt_exp vs the plain mod_pow formula ---- *)

let reference_crt (k : Rsa.priv) c =
  let m1 = Bn.mod_pow ~base:c ~exp:k.Rsa.dp ~modulus:k.Rsa.p in
  let m2 = Bn.mod_pow ~base:c ~exp:k.Rsa.dq ~modulus:k.Rsa.q in
  let h = Bn.rem (Bn.mul k.Rsa.qinv (Bn.sub m1 m2)) k.Rsa.p in
  Bn.add m2 (Bn.mul h k.Rsa.q)

let crt_of_key (k : Rsa.priv) c =
  let m, _, _, _ =
    Bn.Ct.crt_exp ~p:k.Rsa.p ~q:k.Rsa.q ~dp:k.Rsa.dp ~dq:k.Rsa.dq
      ~qinv:k.Rsa.qinv c
  in
  m

let test_crt_exp_matches_reference () =
  let key = Rsa.generate (Prng.of_int 91) ~bits:256 in
  List.iter
    (fun c ->
      Alcotest.check bn
        ("crt c=" ^ Bn.to_dec c)
        (reference_crt key c) (crt_of_key key c))
    (Bn.zero :: Bn.one :: Bn.sub key.Rsa.n Bn.one
     :: List.map Bn.of_int [ 2; 3; 65537; 123456789 ])

(* p and q of different bit lengths: the halves still run at one common
   width (the wider prime's limb count) and recombine correctly *)
let test_crt_exp_uneven_primes () =
  let rng = Prng.of_int 7 in
  let p = Bn.gen_prime rng ~bits:120 in
  let q = Bn.gen_prime rng ~bits:72 in
  let n = Bn.mul p q in
  let p1 = Bn.sub p Bn.one and q1 = Bn.sub q Bn.one in
  let e = Bn.of_int 65537 in
  let d = Option.get (Bn.mod_inverse e (Bn.mul p1 q1)) in
  let key =
    { Rsa.n; e; d; p; q;
      dp = Bn.rem d p1;
      dq = Bn.rem d q1;
      qinv = Option.get (Bn.mod_inverse q p)
    }
  in
  List.iter
    (fun c ->
      let c = Bn.rem c n in
      Alcotest.check bn
        ("uneven crt c=" ^ Bn.to_dec c)
        (reference_crt key c) (crt_of_key key c);
      Alcotest.check bn "round trip"
        c
        (crt_of_key key (Bn.mod_pow ~base:c ~exp:e ~modulus:n)))
    [ Bn.of_int 2; Bn.of_hex "deadbeefcafebabe0123456789abcdef";
      Bn.sub n Bn.one ]

let prop_crt_exp_random =
  QCheck.Test.make ~name:"crt_exp decrypts what encrypt_raw encrypted" ~count:25
    QCheck.(pair (int_range 0 (1 lsl 28)) (int_range 0 (1 lsl 28)))
    (fun (kseed, mseed) ->
      let key = Rsa.generate (Prng.of_int (100 + (kseed mod 17))) ~bits:128 in
      let m = Bn.random_below (Prng.of_int mseed) key.Rsa.n in
      let c = Rsa.encrypt_raw (Rsa.public_of_priv key) m in
      Bn.equal m (crt_of_key key c))

(* ---- secret-independence of the counters ---- *)

let deltas key c =
  let muls0 = Bn.Mont.word_muls () in
  let limbs0 = Bn.Ct.limb_traffic () in
  ignore (crt_of_key key c);
  (Bn.Mont.word_muls () - muls0, Bn.Ct.limb_traffic () - limbs0)

let test_counters_key_independent () =
  (* distinct same-size keys, same-size ciphertexts: identical counts *)
  let keys = List.map (fun s -> Rsa.generate (Prng.of_int s) ~bits:256) [ 3; 4; 5 ] in
  let sample key = deltas key (Bn.rem (Bn.of_hex "123456789abcdef") key.Rsa.n) in
  match List.map sample keys with
  | [] -> assert false
  | (m0, l0) :: rest ->
    Alcotest.(check bool) "positive counts" true (m0 > 0 && l0 > 0);
    List.iteri
      (fun i (m, l) ->
        Alcotest.(check int) (Printf.sprintf "word_muls key %d" i) m0 m;
        Alcotest.(check int) (Printf.sprintf "limb_traffic key %d" i) l0 l)
      rest

let test_counters_hamming_independent () =
  (* one key, exponents of minimal vs maximal vs mixed popcount at the
     same bit width — the engine must charge identical work *)
  let key = Rsa.generate (Prng.of_int 11) ~bits:256 in
  let bits = Bn.bit_length key.Rsa.dp in
  let low = Bn.shift_left Bn.one (bits - 1) in
  let high = Bn.sub (Bn.shift_left Bn.one bits) Bn.one in
  let mixed = Bn.rem (Bn.add low (Bn.of_hex "5555555555555555")) high in
  let with_exp dp =
    let muls0 = Bn.Mont.word_muls () in
    let limbs0 = Bn.Ct.limb_traffic () in
    ignore
      (Bn.Ct.crt_exp ~p:key.Rsa.p ~q:key.Rsa.q ~dp ~dq:key.Rsa.dq
         ~qinv:key.Rsa.qinv (Bn.of_int 1234567));
    (Bn.Mont.word_muls () - muls0, Bn.Ct.limb_traffic () - limbs0)
  in
  let m_low, l_low = with_exp low in
  let m_high, l_high = with_exp high in
  let m_mix, l_mix = with_exp mixed in
  Alcotest.(check int) "word_muls popcount-blind (max)" m_low m_high;
  Alcotest.(check int) "word_muls popcount-blind (mixed)" m_low m_mix;
  Alcotest.(check int) "limb_traffic popcount-blind (max)" l_low l_high;
  Alcotest.(check int) "limb_traffic popcount-blind (mixed)" l_low l_mix

let test_injected_leak_fires () =
  (* the test-only hook reintroduces a popcount-dependent cost; both
     counters must show it (this is what arms the CI smoke check) *)
  let key = Rsa.generate (Prng.of_int 11) ~bits:256 in
  let bits = Bn.bit_length key.Rsa.dp in
  let low = Bn.shift_left Bn.one (bits - 1) in
  let high = Bn.sub (Bn.shift_left Bn.one bits) Bn.one in
  let with_exp dp =
    let muls0 = Bn.Mont.word_muls () in
    let limbs0 = Bn.Ct.limb_traffic () in
    ignore
      (Bn.Ct.crt_exp ~p:key.Rsa.p ~q:key.Rsa.q ~dp ~dq:key.Rsa.dq
         ~qinv:key.Rsa.qinv (Bn.of_int 1234567));
    (Bn.Mont.word_muls () - muls0, Bn.Ct.limb_traffic () - limbs0)
  in
  Bn.Mont.inject_test_leak true;
  let leak =
    Fun.protect
      ~finally:(fun () -> Bn.Mont.inject_test_leak false)
      (fun () ->
        let m_low, l_low = with_exp low in
        let m_high, l_high = with_exp high in
        (m_high - m_low, l_high - l_low))
  in
  Alcotest.(check bool) "leak visible in word_muls" true (fst leak > 0);
  Alcotest.(check bool) "leak visible in limb_traffic" true (snd leak > 0);
  (* and disarming restores silence *)
  let m_low, l_low = with_exp low in
  let m_high, l_high = with_exp high in
  Alcotest.(check int) "word_muls silent again" m_low m_high;
  Alcotest.(check int) "limb_traffic silent again" l_low l_high

(* ---- fixed-width serialization regression (length side channel) ---- *)

(* a key one of whose CRT parts has a leading zero byte: the minimal
   encoding used to shrink the stored pattern for exactly these keys *)
let crafted_key =
  lazy
    (let rec hunt seed =
       if seed > 5000 then Alcotest.fail "no key with short part found"
       else
         let key = Rsa.generate (Prng.of_int seed) ~bits:256 in
         let half = String.length (Bn.to_bytes_be key.Rsa.p) in
         if
           List.exists
             (fun v -> String.length (Bn.to_bytes_be v) < half)
             [ key.Rsa.dp; key.Rsa.dq; key.Rsa.qinv ]
         then key
         else hunt (seed + 1)
     in
     hunt 1)

let test_fixed_width_storage () =
  let key = Lazy.force crafted_key in
  let config = { Kernel.default_config with num_pages = 1024 } in
  let k = Kernel.create ~config () in
  let proc = Kernel.spawn k ~name:"ssh" in
  let sim = Sim_rsa.of_priv k proc key in
  let nbytes = (Bn.bit_length key.Rsa.n + 7) / 8 in
  List.iter
    (fun (b : Sim_bn.t) ->
      Alcotest.(check int) "part stored at modulus width" nbytes b.Sim_bn.size)
    [ sim.Sim_rsa.d; sim.Sim_rsa.p; sim.Sim_rsa.q; sim.Sim_rsa.dp;
      sim.Sim_rsa.dq; sim.Sim_rsa.qinv ];
  (* the stored bytes decode back to the exact values *)
  Alcotest.(check bool) "recovered key equal" true
    (Helpers.equal_priv key (Sim_rsa.recover_priv k proc sim));
  (* and the op itself is still correct through the simulated key *)
  let m = Bn.of_hex "1122334455667788" in
  let c = Rsa.encrypt_raw (Rsa.public_of_priv key) m in
  Alcotest.check bn "private_op round trip" m (Sim_rsa.private_op k proc sim c)

let test_fixed_width_pattern_padded () =
  (* the padded pattern still contains the minimal magnitude, so the
     scanner keeps matching; the length no longer depends on the value *)
  let key = Lazy.force crafted_key in
  let config = { Kernel.default_config with num_pages = 1024 } in
  let k = Kernel.create ~config () in
  let proc = Kernel.spawn k ~name:"ssh" in
  let nbytes = (Bn.bit_length key.Rsa.n + 7) / 8 in
  let b = Sim_bn.alloc ~width:nbytes k proc key.Rsa.dp in
  let stored = Sim_bn.pattern k proc b in
  Alcotest.(check int) "padded length" nbytes (String.length stored);
  Alcotest.(check string) "payload is the padded magnitude"
    (Bn.to_bytes_be_pad key.Rsa.dp nbytes)
    stored

(* ---- rem_int / egcd / mod_inverse edge-case pins ---- *)

let test_rem_int_edges () =
  (* both the single-limb fast path and the d >= base slow path, across
     signs; result is always the non-negative residue *)
  List.iter
    (fun a ->
      List.iter
        (fun d ->
          let expect = ((a mod d) + d) mod d in
          Alcotest.(check int)
            (Printf.sprintf "rem_int %d %d" a d)
            expect
            (Bn.rem_int (Bn.of_int a) d))
        [ 1; 2; 7; 255; 16777215; 16777216; 16777217; 1 lsl 30 ])
    [ 0; 1; -1; 42; -42; 123456789; -123456789 ];
  let big = Bn.of_dec "123456789012345678901234567890" in
  List.iter
    (fun d ->
      let r = Bn.rem_int big d and rn = Bn.rem_int (Bn.neg big) d in
      Alcotest.(check bool) "range" true (r >= 0 && r < d && rn >= 0 && rn < d);
      Alcotest.(check int) "pos and neg residues sum to 0 mod d" 0 ((r + rn) mod d);
      Alcotest.check bn "agrees with rem" (Bn.of_int r) (Bn.rem big (Bn.of_int d)))
    [ 16777216; (1 lsl 40) + 123 ];
  Alcotest.check_raises "zero modulus" (Invalid_argument "Bn.rem_int: modulus must be positive")
    (fun () -> ignore (Bn.rem_int (Bn.of_int 3) 0));
  Alcotest.check_raises "negative modulus" (Invalid_argument "Bn.rem_int: modulus must be positive")
    (fun () -> ignore (Bn.rem_int (Bn.of_int 3) (-5)))

let test_egcd_edges () =
  (* zero and negative operands: Bezout identity holds and g = gcd >= 0 *)
  List.iter
    (fun (a, b) ->
      let ab = Bn.of_int a and bb = Bn.of_int b in
      let g, x, y = Bn.egcd ab bb in
      Alcotest.check bn
        (Printf.sprintf "bezout %d %d" a b)
        g
        (Bn.add (Bn.mul ab x) (Bn.mul bb y));
      let rec igcd a b = if b = 0 then abs a else igcd b (a mod b) in
      Alcotest.(check int) (Printf.sprintf "gcd %d %d" a b) (igcd a b) (Bn.to_int g))
    [ (0, 0); (0, 5); (5, 0); (0, -5); (-5, 0); (12, 18); (-12, 18);
      (12, -18); (-12, -18); (1, 17); (-1, -1); (270, 192) ]

let test_mod_inverse_edges () =
  (* gcd <> 1 refuses; m = 1 maps everything to 0; negative a reduced
     into range first; result always in [0, m) *)
  Alcotest.(check (option bn)) "gcd<>1 -> None" None
    (Bn.mod_inverse (Bn.of_int 2) (Bn.of_int 4));
  Alcotest.(check (option bn)) "zero not invertible" None
    (Bn.mod_inverse Bn.zero (Bn.of_int 5));
  Alcotest.(check (option bn)) "mod 1 -> Some 0" (Some Bn.zero)
    (Bn.mod_inverse (Bn.of_int 5) Bn.one);
  (match Bn.mod_inverse (Bn.of_int (-3)) (Bn.of_int 7) with
   | None -> Alcotest.fail "-3 invertible mod 7"
   | Some x ->
     Alcotest.(check bool) "in range" true (Bn.sign x >= 0 && Bn.compare x (Bn.of_int 7) < 0);
     Alcotest.check bn "(-3)x = 1 mod 7" Bn.one
       (Bn.rem (Bn.mul (Bn.of_int (-3)) x) (Bn.of_int 7)));
  Alcotest.check_raises "zero modulus"
    (Invalid_argument "Bn.mod_inverse: modulus must be positive") (fun () ->
      ignore (Bn.mod_inverse (Bn.of_int 3) Bn.zero))

(* ---- fleet fingerprint determinism with the new engine ---- *)

let test_fleet_fingerprint_stable () =
  let cfg =
    { Fleet.default with
      Fleet.shards = 2; domains = 2; num_pages = 1024; conns_low = 1;
      conns_high = 2; master_seed = 5
    }
  in
  let a = Fleet.run cfg and b = Fleet.run cfg in
  Alcotest.(check string) "fixed-seed fleet fingerprint byte-identical"
    (Fleet.fingerprint a) (Fleet.fingerprint b)

let suite =
  [ ( "ct-engine",
      [ Alcotest.test_case "primitives on adversarial shapes" `Quick
          test_ct_primitives_known;
        QCheck_alcotest.to_alcotest prop_ct_differential;
        Alcotest.test_case "crt_exp matches reference" `Quick
          test_crt_exp_matches_reference;
        Alcotest.test_case "crt_exp uneven prime widths" `Quick
          test_crt_exp_uneven_primes;
        QCheck_alcotest.to_alcotest prop_crt_exp_random;
        Alcotest.test_case "counters key-independent" `Quick
          test_counters_key_independent;
        Alcotest.test_case "counters popcount-independent" `Quick
          test_counters_hamming_independent;
        Alcotest.test_case "injected leak is visible" `Quick
          test_injected_leak_fires;
        Alcotest.test_case "fixed-width key storage" `Quick
          test_fixed_width_storage;
        Alcotest.test_case "padded pattern regression" `Quick
          test_fixed_width_pattern_padded;
        Alcotest.test_case "rem_int edges" `Quick test_rem_int_edges;
        Alcotest.test_case "egcd edges" `Quick test_egcd_edges;
        Alcotest.test_case "mod_inverse edges" `Quick test_mod_inverse_edges;
        Alcotest.test_case "fleet fingerprint stable" `Quick
          test_fleet_fingerprint_stable
      ] )
  ]
