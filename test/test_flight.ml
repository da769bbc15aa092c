(* The flight recorder and the differential run observatory: canonical
   float/JSON emission (NaN/infinity become null), archive construction,
   JSON round-trips, file round-trips, the structural differ's family
   classification and verdicts, the paper's exposure ordering as seen
   through a diff, and the observer-only guarantee (recording changes
   nothing about the run it records). *)

open Memguard
module Obs = Memguard_obs.Obs
module Report = Memguard_scan.Report
module Fleet = Memguard_fleet.Fleet

let contains ~needle hay =
  Memguard_util.Bytes_util.count ~needle (Bytes.of_string hay) >= 1

(* ---- float_json: canonical numerics, null for non-finite ---- *)

let test_float_json_goldens () =
  Alcotest.(check string) "nan is null" "null" (Obs.float_json Float.nan);
  Alcotest.(check string) "inf is null" "null" (Obs.float_json Float.infinity);
  Alcotest.(check string) "-inf is null" "null" (Obs.float_json Float.neg_infinity);
  Alcotest.(check string) "integral stays integral" "3" (Obs.float_json 3.0);
  Alcotest.(check string) "negative integral" "-42" (Obs.float_json (-42.0));
  Alcotest.(check string) "zero" "0" (Obs.float_json 0.0);
  Alcotest.(check string) "fraction" "1.5" (Obs.float_json 1.5)

(* A crafted NaN sample must emit literal null in the archive (valid
   JSON) and round-trip back to NaN through the parser. *)
let test_nan_sample_round_trips () =
  let ctx = Obs.create () in
  Obs.set_tick ctx 1;
  Obs.Timeseries.record ctx "crafted" Float.nan;
  let snap = Obs.Snapshot.record ~kind:"test" ctx in
  let json = Obs.Snapshot.to_json snap in
  Alcotest.(check bool) "archive emits null" true (contains ~needle:"null" json);
  Alcotest.(check bool) "archive never emits nan" false (contains ~needle:"nan" json);
  match Obs.Snapshot.of_json json with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok back ->
    let s =
      List.find
        (fun (e : Obs.Snapshot.series_env) -> e.Obs.Snapshot.e_name = "crafted")
        back.Obs.Snapshot.ar_series
    in
    Alcotest.(check bool) "last is NaN again" true (Float.is_nan s.Obs.Snapshot.e_last)

(* ---- archive round-trips ---- *)

let timeline_snapshot ?(level = Protection.Unprotected) ?(seed = 7) () =
  let captured = ref None in
  ignore
    (Experiment.timeline ~level ~seed ~num_pages:1024
       ~recorder:(fun s -> captured := Some s)
       Experiment.Ssh);
  Option.get !captured

let test_json_round_trip () =
  let snap = timeline_snapshot () in
  let json = Obs.Snapshot.to_json snap in
  match Obs.Snapshot.of_json json with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok back ->
    Alcotest.(check string) "canonical bytes survive a round-trip" json
      (Obs.Snapshot.to_json back);
    Alcotest.(check int) "version" Obs.Snapshot.version back.Obs.Snapshot.ar_version;
    Alcotest.(check string) "kind" "timeline" back.Obs.Snapshot.ar_kind;
    Alcotest.(check bool) "series survived" true (back.Obs.Snapshot.ar_series <> []);
    Alcotest.(check bool) "exposure survived" true (back.Obs.Snapshot.ar_exposure <> [])

let test_file_round_trip () =
  let snap = timeline_snapshot () in
  let path = Filename.temp_file "flight" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Snapshot.write path snap;
      match Obs.Snapshot.read path with
      | Error e -> Alcotest.failf "read failed: %s" e
      | Ok back ->
        Alcotest.(check string) "file round-trip is byte-stable"
          (Obs.Snapshot.to_json snap) (Obs.Snapshot.to_json back))

let test_version_rejected () =
  match Obs.Snapshot.of_json "{\"flight_version\": 99, \"kind\": \"x\"}" with
  | Ok _ -> Alcotest.fail "version 99 must be rejected"
  | Error e -> Alcotest.(check bool) "error names the version" true (contains ~needle:"99" e)

(* ---- the differ ---- *)

let test_same_config_diff_is_empty () =
  let a = timeline_snapshot () and b = timeline_snapshot () in
  let d = Obs.Diff.diff a b in
  Alcotest.(check int) "zero deltas" 0 (List.length d.Obs.Diff.deltas);
  Alcotest.(check (list (triple string (option string) (option string))))
    "zero meta changes" [] d.Obs.Diff.meta_diff;
  Alcotest.(check bool) "plenty compared" true (d.Obs.Diff.compared > 100)

(* The paper's headline ordering, read off a diff: going from Integrated
   to Unprotected every sensitive_unsafe observable grows, and each is a
   hard exposure-family regression. *)
let test_exposure_ordering () =
  let integ = timeline_snapshot ~level:Protection.Integrated () in
  let unprot = timeline_snapshot ~level:Protection.Unprotected () in
  let d = Obs.Diff.diff integ unprot in
  let unsafe =
    List.filter
      (fun (dl : Obs.Diff.delta) ->
        contains ~needle:"sensitive_unsafe" dl.Obs.Diff.d_key
        && dl.Obs.Diff.d_base <> None && dl.Obs.Diff.d_cur <> None)
      d.Obs.Diff.deltas
  in
  Alcotest.(check bool) "headline keys present" true (unsafe <> []);
  List.iter
    (fun (dl : Obs.Diff.delta) ->
      Alcotest.(check bool)
        (dl.Obs.Diff.d_key ^ " is exposure family") true
        (dl.Obs.Diff.d_family = Obs.Diff.Exposure);
      Alcotest.(check bool)
        (dl.Obs.Diff.d_key ^ " regressed hard") true
        (dl.Obs.Diff.d_verdict = Obs.Diff.Regression && dl.Obs.Diff.d_hard))
    unsafe;
  (* and the reverse direction reads as improvement *)
  let back = Obs.Diff.diff unprot integ in
  List.iter
    (fun (dl : Obs.Diff.delta) ->
      match
        List.find_opt
          (fun (b : Obs.Diff.delta) -> b.Obs.Diff.d_key = dl.Obs.Diff.d_key)
          back.Obs.Diff.deltas
      with
      | Some b ->
        Alcotest.(check bool)
          (dl.Obs.Diff.d_key ^ " improves on the way back") true
          (b.Obs.Diff.d_verdict = Obs.Diff.Improvement)
      | None -> Alcotest.failf "%s vanished from the reverse diff" dl.Obs.Diff.d_key)
    unsafe

let test_family_classification () =
  let check key fam =
    Alcotest.(check string) key (Obs.Diff.family_name fam)
      (Obs.Diff.family_name (Obs.Diff.family_of_key key))
  in
  check "overhead_cycles_integrated" Obs.Diff.Deterministic;
  check "counter:sshd.connections" Obs.Diff.Deterministic;
  check "fleet_timeline_domains_4_s" Obs.Diff.Wallclock;
  check "fleet_connections_per_sec" Obs.Diff.Wallclock;
  check "scan_cache_hit_rate" Obs.Diff.Wallclock;
  check "fleet_speedup_domains_4" Obs.Diff.Wallclock;
  check "exposure:heap/plain_anon" Obs.Diff.Exposure;
  check "series:exposure.sensitive_unsafe/max" Obs.Diff.Exposure;
  check "budget:t7" Obs.Diff.Exposure;
  check "fleet_gate_sensitive_unsafe" Obs.Diff.Exposure

let test_verdicts_and_tolerances () =
  let base = Obs.Snapshot.of_scalars [ ("cycles", 100.); ("gone", 5.); ("wall_s", 1.0) ] in
  let cur =
    Obs.Snapshot.of_scalars [ ("cycles", 120.); ("fresh", 1.); ("wall_s", 1.05) ]
  in
  let d = Obs.Diff.diff base cur in
  let find k =
    List.find (fun (dl : Obs.Diff.delta) -> dl.Obs.Diff.d_key = k) d.Obs.Diff.deltas
  in
  let grew = find "cycles" in
  Alcotest.(check bool) "deterministic growth is a hard regression" true
    (grew.Obs.Diff.d_verdict = Obs.Diff.Regression && grew.Obs.Diff.d_hard);
  Alcotest.(check (float 0.01)) "pct computed" 20.0 grew.Obs.Diff.d_pct;
  let vanished = find "gone" in
  Alcotest.(check bool) "vanished key is a hard regression" true
    (vanished.Obs.Diff.d_cur = None
     && vanished.Obs.Diff.d_verdict = Obs.Diff.Regression
     && vanished.Obs.Diff.d_hard);
  let fresh = find "fresh" in
  Alcotest.(check bool) "new key is a neutral note" true
    (fresh.Obs.Diff.d_base = None && fresh.Obs.Diff.d_verdict = Obs.Diff.Neutral);
  Alcotest.(check bool) "wall-clock within tolerance produces no delta" true
    (not
       (List.exists
          (fun (dl : Obs.Diff.delta) -> dl.Obs.Diff.d_key = "wall_s")
          d.Obs.Diff.deltas));
  (* beyond tolerance the wall-clock family regresses softly *)
  let d2 =
    Obs.Diff.diff
      (Obs.Snapshot.of_scalars [ ("wall_s", 1.0) ])
      (Obs.Snapshot.of_scalars [ ("wall_s", 1.5) ])
  in
  match d2.Obs.Diff.deltas with
  | [ dl ] ->
    Alcotest.(check bool) "wall-clock regression is never hard" true
      (dl.Obs.Diff.d_verdict = Obs.Diff.Regression && not dl.Obs.Diff.d_hard);
    Alcotest.(check int) "and never gates" 0 (Obs.Diff.hard_regressions d2)
  | l -> Alcotest.failf "expected one delta, got %d" (List.length l)

let test_meta_diff () =
  let a = timeline_snapshot ~level:Protection.Unprotected () in
  let b = timeline_snapshot ~level:Protection.Integrated () in
  let d = Obs.Diff.diff a b in
  Alcotest.(check bool) "level change surfaces in meta" true
    (List.exists
       (fun (k, base, cur) ->
         k = "level" && base = Some "unprotected" && cur = Some "integrated")
       d.Obs.Diff.meta_diff)

(* ---- overhead / fleet recorders ---- *)

let test_overhead_recorder_matches_gate_keys () =
  let captured = ref None in
  ignore (Overhead.run ~num_pages:1024 ~recorder:(fun s -> captured := Some s) ());
  let snap = Option.get !captured in
  let scalars = Obs.Snapshot.scalars snap in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " recorded") true (List.mem_assoc key scalars))
    [ "overhead_cycles_unprotected"; "overhead_cycles_integrated";
      "overhead_slowdown_integrated"; "overhead_requests_library"
    ];
  (* per-subsystem keys ride along, as bench/flight_overhead.json gates them *)
  Alcotest.(check bool) "per-subsystem key present" true
    (List.exists
       (fun (k, _) -> contains ~needle:"overhead_cycles_integrated_" k)
       scalars)

let fleet_cfg ~domains =
  { Fleet.default with
    Fleet.shards = 2;
    domains;
    num_pages = 512;
    conns_low = 4;
    conns_high = 8
  }

let test_fleet_snapshot_domain_invariant () =
  let snap domains =
    let captured = ref None in
    ignore (Fleet.run ~recorder:(fun s -> captured := Some s) (fleet_cfg ~domains));
    Obs.Snapshot.to_json (Option.get !captured)
  in
  Alcotest.(check string) "archive bytes identical across domain counts" (snap 1)
    (snap 2);
  let r = Fleet.run (fleet_cfg ~domains:1) in
  let s = Fleet.snapshot r in
  Alcotest.(check bool) "meta carries the fingerprint" true
    (List.assoc_opt "fingerprint" s.Obs.Snapshot.ar_meta
     = Some (Fleet.fingerprint r));
  Alcotest.(check bool) "meta excludes domains" true
    (List.assoc_opt "domains" s.Obs.Snapshot.ar_meta = None);
  Alcotest.(check int) "one shard_env per shard" 2
    (List.length s.Obs.Snapshot.ar_shards)

(* ---- observer-only guard ---- *)

(* Recording must never perturb the run it records: for any seed, the
   timeline's snapshot series is byte-identical with and without a
   recorder, and the fleet fingerprint likewise. *)
let prop_recorder_is_observer_only =
  QCheck.Test.make ~name:"recorder on = recorder off (timeline + fleet)" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let series r = Format.asprintf "%a" Report.pp_series r in
      let plain = Experiment.timeline ~seed ~num_pages:1024 Experiment.Ssh in
      let hits = ref 0 in
      let recorded =
        Experiment.timeline ~seed ~num_pages:1024 ~recorder:(fun _ -> incr hits)
          Experiment.Ssh
      in
      let cfg = { (fleet_cfg ~domains:1) with Fleet.master_seed = seed } in
      let f_plain = Fleet.fingerprint (Fleet.run cfg) in
      let f_recorded = Fleet.fingerprint (Fleet.run ~recorder:(fun _ -> incr hits) cfg) in
      !hits = 2 && series plain = series recorded && f_plain = f_recorded)

(* ---- CLI file paths: a bad path is a one-line error and exit 2 ---- *)

let test_cli_path_errors () =
  let cli args =
    let err = Filename.temp_file "memguard-cli" ".err" in
    let code =
      Sys.command (Printf.sprintf "../bin/memguard_cli.exe %s >/dev/null 2>%s" args err)
    in
    let stderr = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    (code, stderr)
  in
  let check what (code, stderr) =
    Alcotest.(check int) (what ^ ": exit 2") 2 code;
    Alcotest.(check bool) (what ^ ": names the path") true
      (contains ~needle:"no-such-dir" stderr);
    Alcotest.(check bool) (what ^ ": no exception") false (contains ~needle:"exception" stderr);
    Alcotest.(check int) (what ^ ": one line") 1
      (List.length (String.split_on_char '\n' (String.trim stderr)))
  in
  check "diff of a missing path" (cli "diff no-such-dir");
  check "observe into a missing directory"
    (cli "observe --pages 256 --json no-such-dir/x.json")

let suite =
  [ ( "flight",
      [ Alcotest.test_case "float_json goldens" `Quick test_float_json_goldens;
        Alcotest.test_case "NaN sample round-trips as null" `Quick
          test_nan_sample_round_trips;
        Alcotest.test_case "archive JSON round-trip" `Quick test_json_round_trip;
        Alcotest.test_case "archive file round-trip" `Quick test_file_round_trip;
        Alcotest.test_case "unknown version rejected" `Quick test_version_rejected;
        Alcotest.test_case "same-config diff is empty" `Quick
          test_same_config_diff_is_empty;
        Alcotest.test_case "exposure ordering across levels" `Quick
          test_exposure_ordering;
        Alcotest.test_case "family classification" `Quick test_family_classification;
        Alcotest.test_case "verdicts and tolerances" `Quick test_verdicts_and_tolerances;
        Alcotest.test_case "meta diff surfaces config changes" `Quick test_meta_diff;
        Alcotest.test_case "overhead recorder matches gate keys" `Quick
          test_overhead_recorder_matches_gate_keys;
        Alcotest.test_case "fleet snapshot domain-invariant" `Quick
          test_fleet_snapshot_domain_invariant;
        QCheck_alcotest.to_alcotest prop_recorder_is_observer_only;
        Alcotest.test_case "CLI path errors exit 2" `Quick test_cli_path_errors
      ] )
  ]
