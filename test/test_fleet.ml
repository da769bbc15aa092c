(* Fleet determinism and merge correctness.

   The contract under test: shard [i]'s result is a pure function of
   [(config, i)], so the merged report is byte-identical for any number
   of worker domains, and every merged aggregate is exactly the sum (or
   ordered concatenation) of the shards run one by one on this domain. *)

open Memguard
module Fleet = Memguard_fleet.Fleet
module Obs = Memguard_obs.Obs

(* keep the unit-test fleet small: 3 shards x 512 pages runs in ~1s *)
let cfg ?(shards = 3) ?(domains = 1) ?(seed = 1) () =
  { Fleet.default with
    shards;
    domains;
    num_pages = 512;
    master_seed = seed;
    conns_low = 2;
    conns_high = 4;
    churn = 1;
    level = Protection.Unprotected;
    breach_age = Some 4
  }

let test_fingerprint_domain_invariant () =
  let r1 = Fleet.run (cfg ~domains:1 ()) in
  let r2 = Fleet.run (cfg ~domains:2 ()) in
  let r4 = Fleet.run (cfg ~domains:4 ()) in
  Alcotest.(check string) "domains 1 = domains 2" (Fleet.fingerprint r1) (Fleet.fingerprint r2);
  Alcotest.(check string) "domains 1 = domains 4" (Fleet.fingerprint r1) (Fleet.fingerprint r4)

let test_fingerprint_seed_sensitive () =
  let a = Fleet.run (cfg ~seed:1 ()) and b = Fleet.run (cfg ~seed:2 ()) in
  Alcotest.(check bool) "different master seeds, different fleets" true
    (not (String.equal (Fleet.fingerprint a) (Fleet.fingerprint b)))

let test_run_matches_run_shard () =
  (* the parallel fleet must return exactly what running each shard by
     hand returns: same totals, counters, cycles, events, per shard *)
  let c = cfg ~domains:2 () in
  let report = Fleet.run c in
  Alcotest.(check int) "one result per shard" c.Fleet.shards
    (List.length report.Fleet.shard_results);
  List.iteri
    (fun i (sr : Fleet.shard_result) ->
      let solo = Fleet.run_shard c i in
      Alcotest.(check int) "shard id in order" i sr.Fleet.shard_id;
      Alcotest.(check bool) "totals match solo run" true
        (solo.Fleet.dash.Dashboard.totals = sr.Fleet.dash.Dashboard.totals);
      Alcotest.(check bool) "counters match solo run" true
        (solo.Fleet.dash.Dashboard.archive.Obs.Snapshot.ar_counters
         = sr.Fleet.dash.Dashboard.archive.Obs.Snapshot.ar_counters);
      Alcotest.(check int) "cycles match solo run" (Dashboard.cycles solo.Fleet.dash)
        (Dashboard.cycles sr.Fleet.dash);
      Alcotest.(check bool) "events match solo run" true (solo.Fleet.events = sr.Fleet.events))
    report.Fleet.shard_results

let test_merge_linearity () =
  (* merged aggregates = sums over independent sequential shard runs *)
  let c = cfg ~domains:4 () in
  let report = Fleet.run c in
  let solos = List.init c.Fleet.shards (Fleet.run_shard c) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 solos in
  Alcotest.(check int) "connections add up"
    (sum (fun s -> s.Fleet.connections))
    report.Fleet.total_connections;
  Alcotest.(check int) "requests add up"
    (sum (fun s -> s.Fleet.requests))
    report.Fleet.total_requests;
  Alcotest.(check int) "cycles add up"
    (sum (fun s -> Dashboard.cycles s.Fleet.dash))
    report.Fleet.total_cycles;
  let unsafe_of (s : Fleet.shard_result) =
    List.fold_left
      (fun acc ((origin, cls), v) ->
        if Memguard_obs.Obs.origin_sensitive origin && cls <> Memguard_obs.Obs.Mlocked_anon
        then acc + v
        else acc)
      0 s.Fleet.dash.Dashboard.totals
  in
  Alcotest.(check int) "sensitive-unsafe byte-ticks add up" (sum unsafe_of)
    report.Fleet.sensitive_unsafe

(* QCheck: linearity holds for random small fleet shapes, not just the
   one shape the unit tests pin *)
let prop_merge_linearity =
  QCheck.Test.make ~name:"fleet merge = sum of sequential shards (random shapes)" ~count:6
    QCheck.(pair (int_range 1 4) (int_bound 99))
    (fun (shards, seed) ->
      let c =
        { (cfg ~shards ~seed ()) with Fleet.num_pages = 256; conns_low = 1; conns_high = 2 }
      in
      let report = Fleet.run { c with Fleet.domains = 2 } in
      let solos = List.init shards (Fleet.run_shard c) in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 solos in
      report.Fleet.total_connections = sum (fun s -> s.Fleet.connections)
      && report.Fleet.total_cycles = sum (fun s -> Dashboard.cycles s.Fleet.dash)
      && report.Fleet.total_requests = sum (fun s -> s.Fleet.requests))

let test_merged_event_order () =
  let report = Fleet.run (cfg ~shards:4 ~domains:2 ()) in
  let key (e : Fleet.event) = (e.Fleet.tick, e.Fleet.shard_id, e.Fleet.seq) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> key a <= key b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "events sorted by (tick, shard, seq)" true
    (sorted report.Fleet.merged_events);
  Alcotest.(check bool) "stream non-empty" true (report.Fleet.merged_events <> []);
  let shard_events =
    List.fold_left (fun acc (s : Fleet.shard_result) -> acc + List.length s.Fleet.events)
      0 report.Fleet.shard_results
  in
  Alcotest.(check int) "no event lost or invented" shard_events
    (List.length report.Fleet.merged_events)

let test_mix_assignment () =
  let report = Fleet.run (cfg ~shards:4 ()) in
  List.iter
    (fun (sr : Fleet.shard_result) ->
      let expect = if sr.Fleet.shard_id mod 2 = 0 then Timeline.Ssh else Timeline.Http in
      Alcotest.(check bool) "mixed fleet alternates by parity" true
        (sr.Fleet.dash.Dashboard.server = expect))
    report.Fleet.shard_results

let test_workload_ran () =
  let report = Fleet.run (cfg ()) in
  Alcotest.(check bool) "connections opened" true (report.Fleet.total_connections > 0);
  Alcotest.(check bool) "cycles charged" true (report.Fleet.total_cycles > 0);
  Alcotest.(check bool) "exposure observed" true (report.Fleet.sensitive_unsafe > 0)

let test_dashboard_and_renderers () =
  let report = Fleet.run (cfg ()) in
  let dash = Fleet.dashboard report in
  Alcotest.(check int) "dashboard sums connection counters"
    report.Fleet.total_connections
    (List.fold_left
       (fun acc (k, v) ->
         if k = "sshd.connections" || k = "apache.connections" then acc + v else acc)
       0 dash.Dashboard.archive.Obs.Snapshot.ar_counters);
  Alcotest.(check int) "dashboard cycles" report.Fleet.total_cycles (Dashboard.cycles dash);
  (* like one machine's dashboard, the merge keeps only origins with a
     destroyed copy: an empty list would render as nan percentiles *)
  Alcotest.(check bool) "every merged lifetime list is non-empty" true
    (List.for_all (fun (_, ls) -> ls <> []) dash.Dashboard.lifetimes);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* the archive as [fleet --flight] writes it and [diff] reads it back *)
  let archive =
    match Obs.Snapshot.of_json (Obs.Snapshot.to_json (Fleet.snapshot report)) with
    | Ok a -> a
    | Error e -> Alcotest.failf "fleet archive does not read back: %s" e
  in
  Alcotest.(check (list int)) "archive lists every shard" [ 0; 1; 2 ]
    (List.map (fun (sh : Obs.Snapshot.shard_env) -> sh.Obs.Snapshot.sh_id)
       archive.Obs.Snapshot.ar_shards);
  let scalar k = List.assoc_opt k archive.Obs.Snapshot.ar_scalars in
  Alcotest.(check (option (float 0.))) "archive carries the connection total"
    (Some (float_of_int report.Fleet.total_connections))
    (scalar "fleet.total_connections");
  Alcotest.(check (option (float 0.))) "archive carries the cycle total"
    (Some (float_of_int report.Fleet.total_cycles))
    (scalar "fleet.total_cycles");
  let html = Fleet.to_html report in
  Alcotest.(check bool) "html has fleet banner" true (contains html "shard");
  Alcotest.(check bool) "html has no nan" false (contains html "nan");
  Format.asprintf "%a" Fleet.pp_summary report |> fun s ->
  Alcotest.(check bool) "summary mentions shards" true (String.length s > 0)

let test_inspect_shard () =
  let s = Fleet.inspect_shard (cfg ()) ~shard:1 ~tick:3 in
  Alcotest.(check bool) "introspection renders" true (String.length s > 100)

let suite =
  [ ( "fleet",
      [ Alcotest.test_case "fingerprint invariant over domains" `Quick
          test_fingerprint_domain_invariant;
        Alcotest.test_case "fingerprint tracks master seed" `Quick test_fingerprint_seed_sensitive;
        Alcotest.test_case "run = run_shard per shard" `Quick test_run_matches_run_shard;
        Alcotest.test_case "merge linearity" `Quick test_merge_linearity;
        QCheck_alcotest.to_alcotest prop_merge_linearity;
        Alcotest.test_case "merged event order" `Quick test_merged_event_order;
        Alcotest.test_case "mixed workload parity" `Quick test_mix_assignment;
        Alcotest.test_case "workload ran" `Quick test_workload_ran;
        Alcotest.test_case "dashboard + renderers" `Quick test_dashboard_and_renderers;
        Alcotest.test_case "inspect shard" `Quick test_inspect_shard
      ] )
  ]
