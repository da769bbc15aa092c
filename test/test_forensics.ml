(* Causal key-lifecycle tracing and leak forensics.

   The contracts under test:
   - a scanner hit on a traced run reconstructs to a full causal story:
     originating request span, parent chain down to the copy's birth
     span, trace-scoped fan-out with zeroed/still-live/recycled verdicts;
   - the per-request leak budgets sum {e exactly} to the exposure
     ledger's sensitive byte·tick total (both sides are accumulated by
     the same ledger pass);
   - tracing is observer-state only: RAM and scan results are
     byte-identical with tracing on and off, and the fleet fingerprint
     (which now embeds the merged budget table) stays invariant across
     worker-domain counts;
   - the span-duration histograms export the Prometheus
     _bucket/_sum/_count triple with the pinned decade ladder. *)

open Memguard
module Obs = Memguard_obs.Obs
module Kernel = Memguard_kernel.Kernel
module Phys_mem = Memguard_vmm.Phys_mem
module Report = Memguard_scan.Report
module Sshd = Memguard_apps.Sshd
module Fleet = Memguard_fleet.Fleet
module Ext2_leak = Memguard_attack.Ext2_leak
module Tty_dump = Memguard_attack.Tty_dump

(* ---- forensics golden: pinned sshd + ext2/tty attack scenario ---- *)

let test_hit_forensics_golden () =
  let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
  let sys = System.create ~num_pages:1024 ~seed:7 ~obs ~level:Protection.Unprotected () in
  let sshd = System.start_sshd sys in
  let conns = List.init 3 (fun _ -> Sshd.open_connection sshd (System.rng sys)) in
  List.iter (Sshd.close_connection sshd) conns;
  System.settle sys;
  (* the paper's two disclosure channels, pinned by seed *)
  let stick = System.run_ext2_attack sys ~directories:400 in
  Alcotest.(check bool) "ext2 leaks key bytes" true
    (Ext2_leak.count_copies stick ~patterns:(System.patterns sys) > 0);
  let dump = System.run_tty_attack sys in
  Alcotest.(check bool) "tty dump ran" true (Bytes.length dump.Tty_dump.data > 0);
  let snap = System.scan sys ~time:1 in
  Alcotest.(check bool) "unprotected machine has hits" true (snap.Report.total > 0);
  let f = Option.get (Forensics.of_snapshot obs snap ~hit:0) in
  (* the causal story must resolve end to end *)
  Alcotest.(check bool) "hit resolves to a trace" true (f.Forensics.f_trace > 0);
  Alcotest.(check bool) "request named" true
    (List.mem f.Forensics.f_request [ "ssl.key_load"; "sshd.connection" ]);
  Alcotest.(check bool) "chain non-empty" true (f.Forensics.f_chain <> []);
  Alcotest.(check string) "chain starts at the request root" f.Forensics.f_request
    (List.hd f.Forensics.f_chain).Forensics.lk_name;
  let created =
    List.filter (fun n -> n.Forensics.fn_kind = "copy_created") f.Forensics.f_fanout
  in
  Alcotest.(check bool) "fan-out has copy_created events" true (created <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "copy at %d has a verdict" n.Forensics.fn_addr)
        true
        (n.Forensics.fn_verdict <> None))
    created;
  (* every fan-out event belongs to the hit's trace and names its span *)
  List.iter
    (fun n ->
      Alcotest.(check bool) "fan-out span resolves" true
        (Obs.Trace.span_of_id obs n.Forensics.fn_span <> None))
    f.Forensics.f_fanout;
  (* renderers stay consistent with the record *)
  let js = Forensics.to_json f in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (Memguard_util.Bytes_util.count ~needle (Bytes.of_string js) >= 1))
    [ "\"trace\":"; "\"request\":"; "\"chain\":"; "\"fanout\":";
      "\"leak_budget_byte_ticks\":" ];
  let txt = Forensics.to_string f in
  Alcotest.(check bool) "pp names the request" true
    (Memguard_util.Bytes_util.count ~needle:f.Forensics.f_request (Bytes.of_string txt) >= 1)

(* a breach record reconstructs the same way a scanner hit does *)
let test_breach_forensics () =
  let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
  Obs.Exposure.set_breach_age obs (Some 2);
  let sys = System.create ~num_pages:1024 ~seed:3 ~obs ~level:Protection.Unprotected () in
  ignore (Timeline.run ~stop_at:8 sys Timeline.Ssh);
  match Forensics.breaches obs with
  | [] -> Alcotest.fail "unprotected run must breach the 2-tick SLO"
  | r :: _ ->
    let f = Option.get (Forensics.of_breach obs r) in
    Alcotest.(check bool) "breach label" true
      (String.length f.Forensics.f_label > 7
       && String.sub f.Forensics.f_label 0 7 = "breach:")

(* ---- leak budgets == exposure ledger, at both ends of the spectrum ---- *)

let budget_sum rows =
  List.fold_left (fun acc (r : Forensics.budget_row) -> acc + r.Forensics.br_byte_ticks) 0
    rows

let test_budgets_sum_to_ledger () =
  let d = Dashboard.run ~level:Protection.Unprotected ~num_pages:2048 () in
  Alcotest.(check bool) "unprotected leaks" true (Dashboard.sensitive_unsafe_total d > 0);
  Alcotest.(check int) "budgets sum exactly to the sensitive ledger"
    (Dashboard.sensitive_unsafe_total d)
    (budget_sum d.Dashboard.budgets);
  Alcotest.(check bool) "per-connection rows present" true
    (List.exists
       (fun (r : Forensics.budget_row) -> r.Forensics.br_request = "sshd.connection")
       d.Dashboard.budgets);
  (* rows are trace-sorted and strictly positive *)
  let traces = List.map (fun (r : Forensics.budget_row) -> r.Forensics.br_trace)
      d.Dashboard.budgets in
  Alcotest.(check bool) "trace-sorted" true (traces = List.sort compare traces);
  List.iter
    (fun (r : Forensics.budget_row) ->
      Alcotest.(check bool) "positive budget" true (r.Forensics.br_byte_ticks > 0))
    d.Dashboard.budgets;
  let di = Dashboard.run ~level:Protection.Integrated ~num_pages:2048 () in
  Alcotest.(check int) "integrated confines: ledger zero" 0
    (Dashboard.sensitive_unsafe_total di);
  Alcotest.(check int) "integrated confines: no budget rows" 0
    (List.length di.Dashboard.budgets)

(* ---- determinism: tracing on/off leaves RAM and hits byte-identical ---- *)

let prop_tracing_ram_invariant =
  QCheck.Test.make ~name:"tracing on/off: RAM and scan results byte-identical" ~count:3
    QCheck.(int_range 0 10000)
    (fun seed ->
      let run obs =
        let sys = System.create ~num_pages:1024 ~seed ?obs ~level:Protection.Unprotected () in
        let snaps = Timeline.run ~stop_at:6 sys Timeline.Ssh in
        let mem = Kernel.mem (System.kernel sys) in
        let ram = Phys_mem.read mem ~addr:0 ~len:(Phys_mem.size_bytes mem) in
        (ram, Format.asprintf "%a" Report.pp_series snaps)
      in
      let ram_off, snaps_off = run None in
      let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
      let ram_on, snaps_on = run (Some obs) in
      Obs.Trace.emitted obs > 0
      && List.length (Obs.Trace.spans obs) > 0
      && String.equal ram_off ram_on
      && String.equal snaps_off snaps_on)

(* ---- fleet: merged budgets, (tick, shard, trace) determinism ---- *)

let fleet_cfg domains =
  { Fleet.default with
    Fleet.shards = 3;
    domains;
    num_pages = 512;
    master_seed = 1;
    conns_low = 2;
    conns_high = 4;
    churn = 1;
    level = Protection.Unprotected
  }

let test_fleet_budget_merge () =
  let r = Fleet.run (fleet_cfg 1) in
  let shard_rows =
    List.concat_map
      (fun (s : Fleet.shard_result) -> s.Fleet.dash.Dashboard.budgets)
      r.Fleet.shard_results
  in
  Alcotest.(check bool) "shards produced budgets" true (shard_rows <> []);
  (* the merged fleet budget equals the merged sensitive-unsafe ledger *)
  Alcotest.(check int) "fleet budgets sum to fleet ledger" r.Fleet.sensitive_unsafe
    (budget_sum shard_rows);
  (* the dashboard projection carries every shard row, none invented *)
  let d = Fleet.dashboard r in
  let canon rows =
    List.sort compare
      (List.map
         (fun (b : Forensics.budget_row) ->
           (b.Forensics.br_start_tick, b.Forensics.br_trace, b.Forensics.br_byte_ticks))
         rows)
  in
  Alcotest.(check int) "projection keeps every row" (List.length shard_rows)
    (List.length d.Dashboard.budgets);
  Alcotest.(check bool) "projection is a permutation of the shard rows" true
    (canon shard_rows = canon d.Dashboard.budgets);
  (* per-shard scan throughput is accounted and consistent *)
  List.iter
    (fun (s : Fleet.shard_result) ->
      Alcotest.(check bool) "pages swept" true (s.Fleet.pages_swept > 0);
      Alcotest.(check bool) "sweeps ran" true (s.Fleet.sweeps > 0))
    r.Fleet.shard_results;
  (* one domain_stat per worker, jointly covering every shard exactly once *)
  let covered =
    List.concat_map (fun (d : Fleet.domain_stat) -> d.Fleet.shards_run) r.Fleet.domain_stats
  in
  Alcotest.(check (list int)) "domain stats cover all shards" [ 0; 1; 2 ]
    (List.sort compare covered)

let test_fleet_budget_fingerprint_across_domains () =
  let r1 = Fleet.run (fleet_cfg 1) and r2 = Fleet.run (fleet_cfg 2) in
  Alcotest.(check string) "fingerprint invariant with tracing on" (Fleet.fingerprint r1)
    (Fleet.fingerprint r2);
  let has_budgets r =
    Memguard_util.Bytes_util.count ~needle:"\"leak_budgets\""
      (Bytes.of_string (Fleet.to_json r))
    >= 1
  in
  Alcotest.(check bool) "json embeds the merged budget table" true (has_budgets r1)

(* ---- span-duration histograms: Prometheus golden ---- *)

let test_span_histogram_prometheus () =
  let obs = Obs.create () in
  Obs.set_tick obs 3;
  List.iter (Obs.Metrics.observe obs "span.x.cycles") [ 50.; 500.; 5000. ];
  let golden =
    "# TYPE memguard_span_x_cycles histogram\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"100\"} 1 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"1000\"} 2 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"10000\"} 3 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"100000\"} 3 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"1000000\"} 3 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"10000000\"} 3 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"100000000\"} 3 3\n\
     memguard_span_x_cycles_bucket{series=\"span.x.cycles\",le=\"+Inf\"} 3 3\n\
     memguard_span_x_cycles_sum{series=\"span.x.cycles\"} 5550 3\n\
     memguard_span_x_cycles_count{series=\"span.x.cycles\"} 3 3\n"
  in
  Alcotest.(check string) "histogram exposition golden" golden (Obs.Metrics.to_prometheus obs)

(* profiled spans actually feed the histograms during a traced run *)
let test_profiler_feeds_span_histograms () =
  let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
  let sys = System.create ~num_pages:1024 ~seed:5 ~obs ~level:Protection.Unprotected () in
  ignore (Timeline.run ~stop_at:8 sys Timeline.Ssh);
  let hists = Obs.Metrics.histograms obs in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " histogram fed") true (List.mem name hists))
    [ "span.sshd.connection.cycles"; "span.rsa.private_op.cycles" ];
  let page = Obs.Metrics.to_prometheus obs in
  Alcotest.(check bool) "exposition mentions the connection span" true
    (Memguard_util.Bytes_util.count ~needle:"span_sshd_connection_cycles_bucket"
       (Bytes.of_string page)
    >= 1)

(* out-of-range hit indices, negative ones included, are [None] *)
let test_of_snapshot_out_of_range () =
  let obs = Obs.create () in
  let sys = System.create ~num_pages:1024 ~seed:7 ~obs ~level:Protection.Unprotected () in
  ignore (System.start_sshd sys);
  let snap = System.scan sys ~time:1 in
  let n = List.length snap.Report.hits in
  Alcotest.(check bool) "machine has hits" true (n > 0);
  Alcotest.(check bool) "last hit resolves" true
    (Forensics.of_snapshot obs snap ~hit:(n - 1) <> None);
  List.iter
    (fun hit ->
      Alcotest.(check bool) (Printf.sprintf "hit %d is None" hit) true
        (Forensics.of_snapshot obs snap ~hit = None))
    [ -1; min_int; n ]

let suite =
  [ ( "forensics",
      [ Alcotest.test_case "hit forensics golden (ext2/tty)" `Slow test_hit_forensics_golden;
        Alcotest.test_case "breach forensics" `Slow test_breach_forensics;
        Alcotest.test_case "budgets sum to ledger" `Slow test_budgets_sum_to_ledger;
        QCheck_alcotest.to_alcotest prop_tracing_ram_invariant;
        Alcotest.test_case "fleet budget merge" `Slow test_fleet_budget_merge;
        Alcotest.test_case "fleet fingerprint with tracing" `Slow
          test_fleet_budget_fingerprint_across_domains;
        Alcotest.test_case "span histogram prometheus golden" `Quick
          test_span_histogram_prometheus;
        Alcotest.test_case "profiler feeds span histograms" `Slow
          test_profiler_feeds_span_histograms;
        Alcotest.test_case "of_snapshot out of range is None" `Quick
          test_of_snapshot_out_of_range
      ] )
  ]
