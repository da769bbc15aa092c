(* The deterministic regression gate, run in Tier-1: record the three
   flight archives CI gates — the fig-5 sshd timeline, the four-level
   overhead report and a small sequential fleet — and diff each against
   its committed baseline under bench/.  Every gated observable is
   simulated, so any hard regression (a cycle total, an exposure
   byte·tick count, a series envelope, a fleet merge count) fails here
   exactly as [memguard_cli diff --fail-on regression] fails in CI, and
   so does any change to an archive's meta block (run configuration,
   fleet fingerprint). *)

open Memguard
module Obs = Memguard_obs.Obs
module Fleet = Memguard_fleet.Fleet

let recorded run =
  let captured = ref None in
  run (fun snap -> captured := Some snap);
  Option.get !captured

(* paths are relative to the test's run directory; test/dune declares
   the archives as deps so they are copied there.  The fresh archive is
   diffed as [--flight] writes it: the JSON rounds floats to six
   significant digits, so an unrounded ratio differs from its baseline in
   the last place, and a deterministic key gates in either direction. *)
let check_against path current =
  let current = Result.get_ok (Obs.Snapshot.of_json (Obs.Snapshot.to_json current)) in
  match Obs.Snapshot.read path with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok base ->
    let d = Obs.Diff.diff base current in
    if Obs.Diff.hard_regressions d > 0 then
      Alcotest.failf "%s: %d hard regression(s)@.%a" path (Obs.Diff.hard_regressions d)
        Obs.Diff.pp d;
    Alcotest.(check bool) (path ^ ": observables compared") true (d.Obs.Diff.compared > 0);
    (* meta is deterministic too: a changed fleet fingerprint or timeline
       server must fail here, not only in the CLI diff *)
    let show = Option.value ~default:"(absent)" in
    Alcotest.(check (list string))
      (path ^ ": meta unchanged")
      []
      (List.map
         (fun (k, b, c) -> Printf.sprintf "%s: %s -> %s" k (show b) (show c))
         d.Obs.Diff.meta_diff)

let test_flight_archives_match_baselines () =
  check_against "../bench/flight_baseline.json"
    (recorded (fun recorder ->
         ignore
           (Experiment.timeline ~level:Protection.Unprotected ~num_pages:2048 ~seed:1
              ~recorder Experiment.Ssh)));
  check_against "../bench/flight_overhead.json"
    (recorded (fun recorder -> ignore (Overhead.run ~num_pages:1024 ~recorder ())));
  check_against "../bench/flight_fleet.json"
    (recorded (fun recorder ->
         ignore
           (Fleet.run ~recorder
              { Fleet.default with
                Fleet.shards = 4;
                domains = 1;
                num_pages = 1024;
                conns_low = 8;
                conns_high = 16
              })))

let suite =
  [ ( "gate",
      [ Alcotest.test_case "flight archives match bench baselines" `Quick
          test_flight_archives_match_baselines
      ] )
  ]
