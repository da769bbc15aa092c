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

let timeline_snapshot ?(level = Protection.Unprotected) ?(seed = 7) ?(num_pages = 1024) () =
  let captured = ref None in
  ignore
    (Experiment.timeline ~level ~seed ~num_pages
       ~recorder:(fun s -> captured := Some s)
       Experiment.Ssh);
  Option.get !captured

let test_json_round_trip () =
  let snap = timeline_snapshot () in
  (* [float_json]'s exponent and negative-zero forms must stay readable *)
  let snap =
    { snap with
      Obs.Snapshot.ar_scalars =
        List.sort compare
          (("neg_zero", -0.) :: ("tiny", 1.5e-07) :: snap.Obs.Snapshot.ar_scalars) }
  in
  let json = Obs.Snapshot.to_json snap in
  Alcotest.(check bool) "float forms written" true
    (contains ~needle:"\"neg_zero\": -0," json && contains ~needle:"\"tiny\": 1.5e-07" json);
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
  (* a fractional version must not truncate to 1, one past float range
     must not read as 0, and numbers JSON forbids must not read at all *)
  List.iter
    (fun v ->
      match Obs.Snapshot.of_json ("{\"flight_version\": " ^ v ^ ", \"kind\": \"x\"}") with
      | Ok _ -> Alcotest.fail ("version " ^ v ^ " must be rejected")
      | Error e -> Alcotest.(check bool) ("error names version " ^ v) true (contains ~needle:v e))
    [ "99"; "1.5"; "1e400"; "+1"; "01"; "1." ]

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
   hard exposure-family regression — at 1024 pages (seed 7) and at CI's
   cli-smoke flight-diff configuration (2048 pages, seed 1). *)
let exposure_ordering ~num_pages ~seed =
  let integ = timeline_snapshot ~level:Protection.Integrated ~num_pages ~seed () in
  let unprot = timeline_snapshot ~level:Protection.Unprotected ~num_pages ~seed () in
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

let test_exposure_ordering () =
  List.iter
    (fun (num_pages, seed) -> exposure_ordering ~num_pages ~seed)
    [ (1024, 7); (2048, 1) ]

let test_family_classification () =
  let check key fam =
    Alcotest.(check string) key (Obs.Diff.family_name fam)
      (Obs.Diff.family_name (Obs.Diff.family_of_key key))
  in
  check "overhead_cycles_integrated" Obs.Diff.Deterministic;
  check "counter:sshd.connections" Obs.Diff.Deterministic;
  check "fleet_timeline_domains_4_s" Obs.Diff.Wallclock;
  check "fleet_connections_per_sec" Obs.Diff.Wallclock;
  check "timeseries_overhead_pct" Obs.Diff.Wallclock;
  (* wall-clock is a unit suffix, not a substring: these are simulated *)
  check "scan_cache_hit_rate" Obs.Diff.Deterministic;
  check "hist:scan.wall_s/count" Obs.Diff.Deterministic;
  check "hist:scan.wall_s.incremental/count" Obs.Diff.Deterministic;
  check "series:scan.cache_hit_rate/max" Obs.Diff.Deterministic;
  check "series:scan.cache_hit_rate/samples" Obs.Diff.Deterministic;
  check "exposure:heap/plain_anon" Obs.Diff.Exposure;
  check "series:exposure.sensitive_unsafe/max" Obs.Diff.Exposure;
  check "budget:t7" Obs.Diff.Exposure;
  check "fleet_gate_sensitive_unsafe" Obs.Diff.Exposure

let test_verdicts_and_tolerances () =
  let base =
    Obs.Snapshot.of_scalars
      [ ("cycles", 100.); ("pages", 200.); ("exposure_bt", 40.); ("gone", 5.);
        ("wall_s", 1.0) ]
  in
  let cur =
    Obs.Snapshot.of_scalars
      [ ("cycles", 120.); ("pages", 100.); ("exposure_bt", 20.); ("fresh", 1.);
        ("wall_s", 1.05) ]
  in
  let d = Obs.Diff.diff base cur in
  let find k =
    List.find (fun (dl : Obs.Diff.delta) -> dl.Obs.Diff.d_key = k) d.Obs.Diff.deltas
  in
  let grew = find "cycles" in
  Alcotest.(check bool) "deterministic growth is a hard regression" true
    (grew.Obs.Diff.d_verdict = Obs.Diff.Regression && grew.Obs.Diff.d_hard);
  Alcotest.(check (float 0.01)) "pct computed" 20.0 grew.Obs.Diff.d_pct;
  let fell = find "pages" in
  Alcotest.(check bool) "deterministic fall is a hard improvement" true
    (fell.Obs.Diff.d_verdict = Obs.Diff.Improvement && fell.Obs.Diff.d_hard);
  let safer = find "exposure_bt" in
  Alcotest.(check bool) "exposure fall is a soft improvement" true
    (safer.Obs.Diff.d_verdict = Obs.Diff.Improvement && not safer.Obs.Diff.d_hard);
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
  (match d2.Obs.Diff.deltas with
   | [ dl ] ->
     Alcotest.(check bool) "wall-clock regression is never hard" true
       (dl.Obs.Diff.d_verdict = Obs.Diff.Regression && not dl.Obs.Diff.d_hard);
     Alcotest.(check int) "and never gates" 0 (Obs.Diff.hard_regressions d2)
   | l -> Alcotest.failf "expected one delta, got %d" (List.length l));
  (* a throughput reads the other way round: more operations per second
     is the improvement, and it still only warns *)
  let throughput a b =
    match
      (Obs.Diff.diff
         (Obs.Snapshot.of_scalars [ ("chaos_integrated_ops_per_sec", a) ])
         (Obs.Snapshot.of_scalars [ ("chaos_integrated_ops_per_sec", b) ]))
        .Obs.Diff.deltas
    with
    | [ dl ] -> dl
    | l -> Alcotest.failf "expected one delta, got %d" (List.length l)
  in
  let rising = throughput 100. 200. and falling = throughput 200. 100. in
  Alcotest.(check string) "rising _per_sec is an improvement" "improvement"
    (Obs.Diff.verdict_name rising.Obs.Diff.d_verdict);
  Alcotest.(check string) "falling _per_sec is a regression" "regression"
    (Obs.Diff.verdict_name falling.Obs.Diff.d_verdict);
  Alcotest.(check bool) "neither gates" false
    (rising.Obs.Diff.d_hard || falling.Obs.Diff.d_hard)

let test_meta_diff () =
  let a = timeline_snapshot ~level:Protection.Unprotected () in
  let b = timeline_snapshot ~level:Protection.Integrated () in
  let d = Obs.Diff.diff a b in
  Alcotest.(check bool) "level change surfaces in meta" true
    (List.exists
       (fun (k, base, cur) ->
         k = "level" && base = Some "unprotected" && cur = Some "integrated")
       d.Obs.Diff.meta_diff)

(* ---- fleet recorder ---- *)

let fleet_cfg ~domains =
  { Fleet.default with
    Fleet.shards = 2;
    domains;
    num_pages = 512;
    conns_low = 4;
    conns_high = 8
  }

(* Archive bytes at one and two domains are pinned by the two bench/dune
   fleet rules, which diff both against bench/flight_fleet.json.  Here:
   what ties the fingerprint to the archive. *)
let test_fleet_snapshot_domain_invariant () =
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
   recorder.  Every fleet shard records its archive, so the fleet has no
   recorder-off run; the bench/dune fleet rules pin its fingerprint (in
   bench/flight_fleet.json's meta) instead. *)
let prop_recorder_is_observer_only =
  QCheck.Test.make ~name:"recorder on = recorder off (timeline)" ~count:5
    QCheck.(int_range 1 1000)
    (fun seed ->
      let series r = Format.asprintf "%a" Report.pp_series r in
      let plain = Experiment.timeline ~seed ~num_pages:1024 Experiment.Ssh in
      let hits = ref 0 in
      let recorded =
        Experiment.timeline ~seed ~num_pages:1024 ~recorder:(fun _ -> incr hits)
          Experiment.Ssh
      in
      !hits = 1 && series plain = series recorded)

(* run the CLI; its exit code and stderr *)
let cli args =
  let err = Filename.temp_file "memguard-cli" ".err" in
  let code = Sys.command (Printf.sprintf "../bin/memguard_cli.exe %s >/dev/null 2>%s" args err) in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

(* ---- CLI file paths: a bad path is a one-line error and exit 2 ---- *)

let test_cli_path_errors () =
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
    (cli "observe --pages 256 --flight no-such-dir/x.json");
  check "dat under a missing directory" (cli "dat --what tty --out no-such-dir/data")

(* ---- CLI counts: a count out of range is a usage error, exit 124 ---- *)

let test_cli_bad_counts () =
  List.iter
    (fun args ->
      let code, stderr = cli args in
      Alcotest.(check int) (args ^ ": exit 124") 124 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) (args ^ ": no " ^ needle) false (contains ~needle stderr))
        [ "exception"; "Invalid_argument" ])
    [ "fleet --conns-per-shard 0";
      "fleet --domains=0";
      "chaos --ops 0";
      "chaos --scan-every 0";
      "chaos --seeds=-1";
      "perf --concurrent 0";
      "perf --transactions=-1";
      "tty --trials=-1";
      "before-after --trials=-1";
      "ext2 --connections=-1";
      (* a usage error, not Prometheus text in a .json file *)
      "timeline --series x.json"
    ]

(* ---- the JSON codec ---- *)

let archives =
  [ "flight_baseline.json"; "flight_overhead.json"; "flight_fleet.json";
    "flight_simulated.json" ]

(* test/dune copies the archives next to the test's run directory *)
let read_archive name = In_channel.with_open_bin ("../bench/" ^ name) In_channel.input_all

(* What a printed value reads back as: an integral [Num] prints with no
   fraction or as an exponent form, so it compares as the [Int] it reads
   as (except -0, which reads back as [Num (-0.)]), and NaN and the
   infinities print as null. *)
let rec normalise (v : Obs.Json.t) : Obs.Json.t =
  match v with
  | Num f when not (Float.is_finite f) -> Null
  | Num f when Float.is_integer f && Float.abs f < 0x1p62 && not (f = 0. && Float.sign_bit f)
    ->
    Int (int_of_float f)
  | Arr xs -> Arr (List.map normalise xs)
  | Obj kvs -> Obj (List.map (fun (k, x) -> (k, normalise x)) kvs)
  | v -> v

(* structural equality that tells -0. from 0. *)
let rec same (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr xs, Arr ys -> List.equal same xs ys
  | Obj xs, Obj ys -> List.equal (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | _ -> a = b

(* Random values.  Numbers have at most 6 significant digits, the ones
   [float_json]'s "%.6g" prints exactly, plus -0, NaN and the
   infinities; integers include both ends of the range; one string holds
   every byte 0x00-0x7f. *)
let arb_json =
  let open QCheck.Gen in
  let str =
    oneof
      [ return (String.init 128 Char.chr); string_size ~gen:char (0 -- 8);
        string_size ~gen:printable (0 -- 8) ]
  in
  let num =
    oneof
      [ oneofl [ -0.; Float.nan; Float.infinity; Float.neg_infinity ];
        map2
          (fun m e -> float_of_string (Printf.sprintf "%de%d" m e))
          (int_range (-999999) 999999) (int_range (-30) 30) ]
  in
  let leaf =
    oneof
      [ return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (oneof [ oneofl [ max_int; min_int; 0 ]; int ]);
        map (fun f -> Obs.Json.Num f) num;
        map (fun s -> Obs.Json.Str s) str ]
  in
  let gen =
    sized
      (fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Obs.Json.Arr l) (list_size (0 -- 4) (self (n / 3))));
                 (1, map (fun l -> Obs.Json.Obj l) (list_size (0 -- 4) (pair str (self (n / 3))))) ]))
  in
  QCheck.make ~print:(Obs.Json.to_string Compact) gen

let prop_json_round_trip =
  QCheck.Test.make ~name:"JSON reads back what every layout prints" ~count:500 arb_json
    (fun v ->
      List.for_all
        (fun layout ->
          match Obs.Json.parse (Obs.Json.to_string layout v) with
          | Ok back -> same (normalise back) (normalise v)
          | Error _ -> false)
        [ Obs.Json.Compact; Archive; Fleet ])

(* Each layout's exact bytes: the archive layout reprints every committed
   archive, and one value pins all three, an empty array included. *)
let test_layout_bytes () =
  List.iter
    (fun name ->
      let text = read_archive name in
      Alcotest.(check string) (name ^ " reprints byte for byte") text
        (Obs.Json.to_string Archive (Helpers.json text) ^ "\n"))
    archives;
  let v =
    Obs.Json.(
      Obj
        [ ("config", Obj [ ("a", Int 1); ("b", Str "x") ]); ("total", Int 2);
          ("rows", Arr [ Obj [ ("id", Int 0); ("pts", Arr [ Arr [ Int 1; Num 1.5 ] ]) ] ]);
          ("none", Arr []) ])
  in
  List.iter
    (fun (layout, name, bytes) ->
      Alcotest.(check string) name bytes (Obs.Json.to_string layout v))
    [ ( Compact,
        "compact",
        {|{"config":{"a":1,"b":"x"},"total":2,"rows":[{"id":0,"pts":[[1,1.5]]}],"none":[]}|} );
      ( Archive,
        "archive",
        {|{
"config": {
 "a": 1,
 "b": "x"
},
"total": 2,
"rows": [
 {"id":0,"pts":[[1,1.5]]}
],
"none": [
]
}|} );
      ( Fleet,
        "fleet",
        {|{
  "config": {"a": 1, "b": "x"},
  "total": 2,
  "rows": [
    {"id": 0, "pts": [[1,1.5]]}
  ],
  "none": [

  ]
}|} ) ]

(* ---- the archive reader on truncated and corrupted archives ---- *)

(* Cut-off and damaged copies of each committed archive read back [Ok]
   or [Error], never an exception.  Every prefix of a 26 KB archive
   costs ~10 s, so past 4 KiB prefixes are sampled; the flips are one
   to four seeded byte changes per round. *)
let test_reader_never_raises () =
  let rng = Random.State.make [| 30 |] in
  let read what text =
    match Obs.Snapshot.of_json text with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) text
  in
  List.iter
    (fun name ->
      let text = read_archive name in
      let n = String.length text in
      Alcotest.(check bool) (name ^ " reads") true (Result.is_ok (Obs.Snapshot.of_json text));
      let sampled =
        if n <= 4097 then [] else List.init 400 (fun _ -> 4097 + Random.State.int rng (n - 4097))
      in
      List.iter
        (fun len -> read (name ^ " prefix") (String.sub text 0 len))
        (List.init (min 4097 n) Fun.id @ sampled);
      for _ = 1 to 250 do
        let b = Bytes.of_string text in
        for _ = 0 to Random.State.int rng 4 do
          let i = Random.State.int rng n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int rng 255)))
        done;
        read (name ^ " flip") (Bytes.to_string b)
      done)
    archives

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
        Alcotest.test_case "fleet snapshot domain-invariant" `Quick
          test_fleet_snapshot_domain_invariant;
        QCheck_alcotest.to_alcotest prop_recorder_is_observer_only;
        Alcotest.test_case "CLI path errors exit 2" `Quick test_cli_path_errors;
        Alcotest.test_case "CLI bad counts exit 124" `Quick test_cli_bad_counts;
        QCheck_alcotest.to_alcotest prop_json_round_trip;
        Alcotest.test_case "each layout's exact bytes" `Quick test_layout_bytes;
        Alcotest.test_case "archive reader never raises" `Quick test_reader_never_raises
      ] )
  ]
