(* The deterministic cost model and span profiler: charge arithmetic,
   attribution tables, span-tree bookkeeping, the collapsed-stack and
   causal chrome-trace golden exports, the paper-style overhead report's
   four-level ordering and its exports, and the two determinism anchors —
   profiler-on runs byte-identical to profiler-off, and random campaigns
   repeating to the exact same cycle totals. *)

open Memguard
module Kernel = Memguard_kernel.Kernel
module Obs = Memguard_obs.Obs
module Campaign = Memguard_fault.Campaign
module Phys_mem = Memguard_vmm.Phys_mem
module Page = Memguard_vmm.Page

(* ---- Cost: charge arithmetic and attribution ---- *)

let test_charge_arithmetic () =
  let obs = Obs.create () in
  let m = Obs.Cost.default_model in
  Obs.Cost.charge obs ~sub:"a" Obs.Cost.Byte_copied 10;
  Obs.Cost.charge obs ~sub:"a" Obs.Cost.Page_fault 2;
  Obs.Cost.charge obs ~sub:"b" ~origin:Obs.Heap_copy Obs.Cost.Byte_zeroed 5;
  Obs.Cost.charge obs ~sub:"b" Obs.Cost.Byte_copied 0 (* no-op *);
  let expect =
    (10 * Obs.Cost.cost m Obs.Cost.Byte_copied)
    + (2 * Obs.Cost.cost m Obs.Cost.Page_fault)
    + (5 * Obs.Cost.cost m Obs.Cost.Byte_zeroed)
  in
  Alcotest.(check int) "total = sum of n * cost" expect (Obs.Cost.total_cycles obs);
  let count, cycles =
    List.find_map
      (fun (op, n, c) -> if op = Obs.Cost.Page_fault then Some (n, c) else None)
      (Obs.Cost.by_op obs)
    |> Option.get
  in
  Alcotest.(check (pair int int)) "by_op counts events and cycles"
    (2, 2 * Obs.Cost.cost m Obs.Cost.Page_fault)
    (count, cycles);
  Alcotest.(check (list (pair string int)))
    "by_subsystem sums per tag (sorted)"
    [ ("a", 10 + (2 * Obs.Cost.cost m Obs.Cost.Page_fault)); ("b", 5) ]
    (Obs.Cost.by_subsystem obs);
  Alcotest.(check bool) "by_origin credits the tagged origin" true
    (List.mem (Obs.Heap_copy, 5) (Obs.Cost.by_origin obs));
  Obs.Cost.reset obs;
  Alcotest.(check int) "reset clears totals" 0 (Obs.Cost.total_cycles obs);
  Alcotest.(check (list (pair string int))) "reset clears tables" []
    (Obs.Cost.by_subsystem obs)

let test_null_ctx () =
  (* the disabled context swallows charges and runs spans transparently *)
  Obs.Cost.charge Obs.null ~sub:"x" Obs.Cost.Page_fault 100;
  Alcotest.(check int) "null ctx charges are dropped" 0 (Obs.Cost.total_cycles Obs.null);
  let r = Obs.Profiler.span Obs.null "ghost" (fun () -> 42) in
  Alcotest.(check int) "null ctx spans still run the body" 42 r

(* ---- Profiler: span tree bookkeeping ---- *)

let test_span_tree () =
  let obs = Obs.create () in
  Obs.Profiler.span obs "outer" (fun () ->
      Obs.Cost.charge obs ~sub:"s" Obs.Cost.Byte_copied 10;
      Obs.Profiler.span obs "inner" (fun () ->
          Obs.Cost.charge obs ~sub:"s" Obs.Cost.Byte_copied 4);
      Obs.Profiler.span obs "inner" (fun () ->
          Obs.Cost.charge obs ~sub:"s" Obs.Cost.Byte_copied 6));
  Obs.Cost.charge obs ~sub:"s" Obs.Cost.Byte_copied 1 (* lands on the root *);
  let root = Obs.Profiler.root obs in
  Alcotest.(check int) "root absorbs out-of-span charges" 1
    (Obs.Profiler.node_self_cycles root);
  Alcotest.(check int) "root total = every charged cycle" (Obs.Cost.total_cycles obs)
    (Obs.Profiler.node_total_cycles root);
  let outer =
    List.find
      (fun n -> Obs.Profiler.node_name n = "outer")
      (Obs.Profiler.node_children root)
  in
  Alcotest.(check int) "outer self excludes children" 10
    (Obs.Profiler.node_self_cycles outer);
  Alcotest.(check int) "outer total includes children" 20
    (Obs.Profiler.node_total_cycles outer);
  let inner =
    List.find
      (fun n -> Obs.Profiler.node_name n = "inner")
      (Obs.Profiler.node_children outer)
  in
  Alcotest.(check int) "repeated spans merge into one node, counting calls" 2
    (Obs.Profiler.node_calls inner);
  Alcotest.(check int) "merged node accumulates self cycles" 10
    (Obs.Profiler.node_self_cycles inner);
  Alcotest.(check int) "stack unwinds fully" 0 (Obs.Profiler.depth obs)

let test_span_unwinds_on_raise () =
  let obs = Obs.create () in
  (try
     Obs.Profiler.span obs "doomed" (fun () ->
         Obs.Cost.charge obs ~sub:"s" Obs.Cost.Byte_copied 2;
         raise Out_of_memory)
   with Out_of_memory -> ());
  Alcotest.(check int) "span exits even when the body raises" 0
    (Obs.Profiler.depth obs);
  let doomed =
    List.find
      (fun n -> Obs.Profiler.node_name n = "doomed")
      (Obs.Profiler.node_children (Obs.Profiler.root obs))
  in
  Alcotest.(check int) "charges before the raise are kept" 2
    (Obs.Profiler.node_self_cycles doomed)

(* ---- golden exports ---- *)

(* a deterministic hand-built profile:
   root charge 5, span a {charge 10, span b {2 page faults}} *)
let golden_profile () =
  let obs = Obs.create () in
  Obs.Profiler.span obs "a" (fun () ->
      Obs.Cost.charge obs ~sub:"s1" Obs.Cost.Byte_copied 10;
      Obs.Profiler.span obs "b" (fun () ->
          Obs.Cost.charge obs ~sub:"s2" Obs.Cost.Page_fault 2));
  Obs.Cost.charge obs ~sub:"s1" Obs.Cost.Byte_zeroed 5;
  obs

let test_collapsed_golden () =
  let obs = golden_profile () in
  Alcotest.(check string) "collapsed stacks (sorted, flamegraph.pl input)"
    "machine 5\nmachine;a 10\nmachine;a;b 1000\n"
    (Obs.Profiler.to_collapsed obs)

(* one traced request: root span req (sim pid 3) charges 10 bytes, then
   a causal kernel span under it charges 2 page faults; an untraced
   causal span records nothing *)
let test_causal_chrome_golden () =
  let obs = Obs.create () in
  Obs.Trace.causal obs "untraced" (fun () -> ());
  Obs.Trace.with_span ~pid:3 obs "req" (fun () ->
      Obs.Cost.charge obs ~sub:"s1" Obs.Cost.Byte_copied 10;
      Obs.Trace.causal ~pid:3 obs "fault" (fun () ->
          Obs.Cost.charge obs ~sub:"s2" Obs.Cost.Page_fault 2));
  Alcotest.(check string) "chrome trace: one process row per trace, cycle clock"
    "[\n\
    \ {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"trace 1: req\"}},\n\
    \ {\"name\":\"req\",\"ph\":\"X\",\"ts\":0,\"dur\":1010,\"pid\":1,\"tid\":0,\"args\":{\"span\":1,\"parent\":0,\"sim_pid\":3,\"start_tick\":0}},\n\
    \ {\"name\":\"fault\",\"ph\":\"X\",\"ts\":10,\"dur\":1000,\"pid\":1,\"tid\":0,\"args\":{\"span\":2,\"parent\":1,\"sim_pid\":3,\"start_tick\":0}}\n\
     ]\n"
    (Obs.Trace.spans_to_chrome obs)

(* ---- Metrics hardening: nearest-rank percentiles ---- *)

let test_percentile_edges () =
  let p = Obs.Metrics.percentile in
  Alcotest.(check (float 0.)) "n=1: p0 is the sample" 5. (p [ 5. ] 0.);
  Alcotest.(check (float 0.)) "n=1: p50 is the sample" 5. (p [ 5. ] 50.);
  Alcotest.(check (float 0.)) "n=1: p100 is the sample" 5. (p [ 5. ] 100.);
  let xs = [ 3.; 1.; 2.; 4. ] in
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (p xs 0.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 4. (p xs 100.);
  Alcotest.(check (float 0.)) "p50 of 4 samples is the 2nd (nearest rank)" 2.
    (p xs 50.);
  Alcotest.(check (float 0.)) "p75 of 4 samples is the 3rd" 3. (p xs 75.);
  Alcotest.(check (float 0.)) "p76 rounds up to the 4th" 4. (p xs 76.);
  let eq = [ 7.; 7.; 7. ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "all-equal: p%.0f" q)
        7. (p eq q))
    [ 0.; 33.; 66.; 100. ];
  Alcotest.(check bool) "empty sample list yields nan" true (Float.is_nan (p [] 50.))

(* ---- the paper-style overhead report ---- *)

(* the overhead report at 1024 pages, shared by the two tests below *)
let overhead_rows = lazy (Overhead.run ~num_pages:1024 ())

let test_overhead_ordering_and_sums () =
  let rows = Lazy.force overhead_rows in
  Alcotest.(check (list string)) "four columns in protection order"
    [ "unprotected"; "library"; "kernel"; "integrated" ]
    (List.map (fun r -> Protection.name r.Overhead.level) rows);
  let cycles = List.map (fun r -> r.Overhead.cycles) rows in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "Integrated > Kernel > Library > Unprotected (%s)"
       (String.concat " < " (List.map string_of_int cycles)))
    true (strictly_increasing cycles);
  List.iter
    (fun r ->
      let sub_sum = List.fold_left (fun acc (_, c) -> acc + c) 0 r.Overhead.by_subsystem in
      let op_sum = List.fold_left (fun acc (_, _, c) -> acc + c) 0 r.Overhead.by_op in
      let name = Protection.name r.Overhead.level in
      Alcotest.(check int)
        (name ^ ": subsystem breakdown sums exactly to total")
        r.Overhead.cycles sub_sum;
      Alcotest.(check int) (name ^ ": per-op breakdown sums exactly to total")
        r.Overhead.cycles op_sum;
      Alcotest.(check int)
        (name ^ ": span tree accounts for every cycle")
        r.Overhead.cycles
        (Obs.Profiler.node_total_cycles (Obs.Profiler.root r.Overhead.obs)))
    rows;
  (* identical forced-re-exec workload at every level *)
  let requests = List.map (fun r -> r.Overhead.requests) rows in
  let signatures = List.map (fun r -> r.Overhead.signatures) rows in
  List.iter
    (fun r -> Alcotest.(check int) "same connection count" (List.hd requests) r)
    requests;
  List.iter
    (fun s -> Alcotest.(check int) "same signature count" (List.hd signatures) s)
    signatures;
  Alcotest.(check bool) "signatures were actually performed" true
    (List.hd signatures > 0);
  Alcotest.(check (float 1e-9)) "slowdown normalised to the first row" 1.0
    (List.hd rows).Overhead.slowdown

(* What [memguard_cli overhead --pages 1024 --json --flamegraph --trace]
   writes: the table, and the integrated run's (the default
   --flame-level) collapsed stacks and causal Chrome trace. *)
let test_overhead_exports () =
  let rows = Lazy.force overhead_rows in
  let contains needle hay = Memguard_util.Bytes_util.count ~needle (Bytes.of_string hay) >= 1 in
  (* the flight-archive reader parses the whole document before it looks
     for its own schema, so reaching the schema check means well-formed *)
  let well_formed json =
    match Obs.Snapshot.of_json json with
    | Error "flight archive: missing flight_version" -> true
    | _ -> false
  in
  let json = Overhead.to_json rows in
  Alcotest.(check bool) "table json is well-formed" true (well_formed json);
  List.iter
    (fun r ->
      let level = Protection.name r.Overhead.level in
      Alcotest.(check bool) ("table json has " ^ level) true
        (contains (Printf.sprintf "{\"level\": \"%s\", \"cycles\": %d," level r.Overhead.cycles)
           json))
    rows;
  let integrated =
    (List.find (fun r -> r.Overhead.level = Protection.Integrated) rows).Overhead.obs
  in
  let trace = Obs.Trace.spans_to_chrome integrated in
  Alcotest.(check bool) "trace is well-formed" true (well_formed trace);
  let events =
    List.filter (String.starts_with ~prefix:" {") (String.split_on_char '\n' trace)
  in
  Alcotest.(check bool) "trace holds span events" true (events <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) ("pid and tid: " ^ e) true
        (contains "\"pid\":" e && contains "\"tid\":" e))
    events;
  Alcotest.(check bool) "flamegraph has machine; stacks" true
    (List.exists
       (String.starts_with ~prefix:"machine;")
       (String.split_on_char '\n' (Obs.Profiler.to_collapsed integrated)))

(* ---- determinism anchors ---- *)

let machine_fingerprint sys =
  let k = System.kernel sys in
  let mem = Kernel.mem k in
  let buf = Buffer.create (Phys_mem.size_bytes mem) in
  Buffer.add_string buf (Phys_mem.read mem ~addr:0 ~len:(Phys_mem.size_bytes mem));
  for pfn = 0 to Phys_mem.num_pages mem - 1 do
    let p = Phys_mem.page mem pfn in
    Buffer.add_string buf
      (Format.asprintf "|%d:%a:%d:%b" pfn Page.pp_owner p.Page.owner p.Page.refcount
         p.Page.locked)
  done;
  Buffer.contents buf

let test_profiler_on_run_is_byte_identical () =
  let run obs =
    let sys =
      System.create ~num_pages:1024 ~seed:5 ?obs ~level:Protection.Integrated ()
    in
    ignore (Timeline.run sys Timeline.Ssh);
    sys
  in
  let sys_off = run None in
  let obs = Obs.create () in
  let sys_on = run (Some obs) in
  Alcotest.(check bool) "the profiled run charged cycles" true
    (Obs.Cost.total_cycles obs > 0);
  Alcotest.(check bool) "the profiled run recorded spans" true
    (Obs.Profiler.node_children (Obs.Profiler.root obs) <> []);
  (* Cost.charge / Profiler.span mutate observer state only — RAM and
     every frame descriptor must come out bit-for-bit identical *)
  Alcotest.(check bool) "profiler-on RAM + frame state = profiler-off" true
    (String.equal (machine_fingerprint sys_off) (machine_fingerprint sys_on))

let campaign_levels =
  [ Protection.Unprotected; Protection.Secure_dealloc; Protection.Kernel_level;
    Protection.Integrated ]

let prop_campaign_cycles_deterministic =
  QCheck.Test.make ~name:"random campaigns repeat to identical cycle totals" ~count:8
    QCheck.(pair (int_bound 999) (int_bound 3))
    (fun (seed, li) ->
      let level = List.nth campaign_levels li in
      let cfg = { Campaign.default_config with Campaign.seed; level; ops = 120 } in
      let r1 = Campaign.run cfg in
      let r2 = Campaign.run cfg in
      let t1 = Obs.Cost.total_cycles r1.Campaign.obs in
      let t2 = Obs.Cost.total_cycles r2.Campaign.obs in
      if t1 <> t2 then
        QCheck.Test.fail_reportf "seed=%d level=%s: %d vs %d cycles" seed
          (Protection.name level) t1 t2
      else if
        not
          (String.equal
             (Obs.Profiler.to_collapsed r1.Campaign.obs)
             (Obs.Profiler.to_collapsed r2.Campaign.obs))
      then
        QCheck.Test.fail_reportf "seed=%d level=%s: collapsed profiles differ" seed
          (Protection.name level)
      else true)

let suite =
  [ ( "cost-profiler",
      [ Alcotest.test_case "charge arithmetic & attribution" `Quick
          test_charge_arithmetic;
        Alcotest.test_case "null ctx" `Quick test_null_ctx;
        Alcotest.test_case "span tree bookkeeping" `Quick test_span_tree;
        Alcotest.test_case "span unwinds on raise" `Quick test_span_unwinds_on_raise;
        Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
        Alcotest.test_case "causal chrome-trace golden" `Quick test_causal_chrome_golden;
        Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
        Alcotest.test_case "overhead: ordering & exact sums" `Slow
          test_overhead_ordering_and_sums;
        Alcotest.test_case "overhead exports" `Slow test_overhead_exports;
        Alcotest.test_case "profiler-on run is byte-identical" `Slow
          test_profiler_on_run_is_byte_identical;
        QCheck_alcotest.to_alcotest prop_campaign_cycles_deterministic
      ] )
  ]
