(* Hamming-weight sweep for the CI alert-smoke job.

   Runs the CRT private-op core over exponents of minimal, maximal and
   mixed popcount, across distinct keys at two key sizes, and fixed-base
   DH keygen over secrets of the same three shapes in both built-in
   groups, feeding the per-op word-mul and limb-traffic counts into the
   standing telemetry rules.  The two constant-time sentinels
   (ct-leakage, ct-leakage-limbs) must stay silent — and, with the
   test-only leak hook armed (--leak), must both fire.  Exit 0 on the
   expected outcome, 1 otherwise. *)

open Memguard_bignum
open Memguard_util
module Rsa = Memguard_crypto.Rsa
module Dh = Memguard_crypto.Dh
module Obs = Memguard_obs.Obs
module Dashboard = Memguard.Dashboard

let sentinels = [ "ct-leakage"; "ct-leakage-limbs" ]

let exponent_shapes dp =
  (* same bit width as the real exponent, extreme and mixed popcounts *)
  let bits = Bn.bit_length dp in
  let low = Bn.shift_left Bn.one (bits - 1) in
  let high = Bn.sub (Bn.shift_left Bn.one bits) Bn.one in
  let mixed =
    let m = Bn.rem (Bn.of_hex "5555555555555555aaaaaaaaaaaaaaaa") high in
    Bn.add low (Bn.shift_right m 1)
  in
  [ ("popcount-min", low); ("popcount-max", high); ("mixed", mixed); ("real", dp) ]

(* run [f] and feed its counter deltas to the sentinels' series *)
let sample obs ~tick f =
  let muls0 = Bn.Mont.word_muls () in
  let limbs0 = Bn.Ct.limb_traffic () in
  f ();
  incr tick;
  Obs.set_tick obs !tick;
  Obs.Timeseries.record obs "rsa.private_op.word_muls"
    (float_of_int (Bn.Mont.word_muls () - muls0));
  Obs.Timeseries.record obs "rsa.private_op.limb_traffic"
    (float_of_int (Bn.Ct.limb_traffic () - limbs0));
  Obs.Alert.eval obs ~tick:!tick

let sweep_crt obs ~tick ~bits =
  (* distinct same-size keys x exponent shapes: every sample must charge
     the same counts or the spread rules fire *)
  let keys = List.map (fun s -> Rsa.generate (Prng.of_int s) ~bits) [ 31; 47; 59 ] in
  List.iter
    (fun (key : Rsa.priv) ->
      let c = Bn.rem (Bn.of_hex "123456789abcdef0123456789abcdef") key.Rsa.n in
      List.iter
        (fun (_label, dp) ->
          sample obs ~tick (fun () ->
              ignore
                (Bn.Ct.crt_exp ~p:key.Rsa.p ~q:key.Rsa.q ~dp ~dq:key.Rsa.dq
                   ~qinv:key.Rsa.qinv c)))
        (exponent_shapes key.Rsa.dp))
    keys

let sweep_dh (group : Dh.params) obs ~tick =
  (* secrets one bit shorter than p, so every shape is a valid secret;
     the first, unsampled keypair builds the group's comb table *)
  ignore (Dh.keypair_of_secret group Bn.two);
  List.iter
    (fun (_label, secret) ->
      sample obs ~tick (fun () -> ignore (Dh.keypair_of_secret group secret)))
    (exponent_shapes (Bn.shift_right group.Dh.p 1))

(* one obs context per key size or group: the counts legitimately differ
   across sizes, only same-size spread is leakage *)
let with_sentinels ~leak label run =
  let obs = Obs.create () in
  Dashboard.install_default_alerts obs;
  run obs ~tick:(ref 0);
  List.for_all
    (fun rule ->
      let fired = Obs.Alert.fired obs rule in
      let ok = if leak then fired > 0 else fired = 0 in
      Printf.printf "  %-14s %-18s fired=%d %s\n" label rule fired
        (if ok then "ok" else "UNEXPECTED");
      ok)
    sentinels

let run_case ~leak =
  Bn.Mont.inject_test_leak leak;
  Fun.protect ~finally:(fun () -> Bn.Mont.inject_test_leak false) @@ fun () ->
  let crt =
    List.map
      (fun bits -> with_sentinels ~leak (Printf.sprintf "%d-bit crt" bits) (sweep_crt ~bits))
      [ 256; 512 ]
  in
  let dh =
    List.map
      (fun (name, group) -> with_sentinels ~leak name (sweep_dh group))
      [ ("dh128 keygen", Dh.group_small); ("dh256 keygen", Dh.group_medium) ]
  in
  List.for_all Fun.id (crt @ dh)

let () =
  let leak = Array.exists (( = ) "--leak") Sys.argv in
  Printf.printf "ct_sweep: Hamming-weight sweep (%s)\n"
    (if leak then "leak hook ARMED: sentinels must fire"
     else "clean engine: sentinels must stay silent");
  if run_case ~leak then print_endline "ct_sweep OK"
  else begin
    print_endline "ct_sweep FAILED";
    exit 1
  end
