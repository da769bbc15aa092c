(* memguard's benchmark: runs one workload for a fixed host time, checks
   every output against the library's own entry points, and prints the
   end-to-end metrics (untraced run) or the per-layer split (traced run).
   The last line of standard output is the JSON result. *)

open Perfbench
module Bn = Memguard_bignum.Bn

let usage = "usage: main.exe --workload (timeline|overhead|attack) --seed N --seconds S --trace (0|1)"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | k :: _ -> die ("unexpected argument " ^ k)
  in
  go (List.tl (Array.to_list argv));
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then
        die ("unknown option --" ^ k))
    tbl;
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> die ("missing --" ^ k) in
  let int_of k =
    match int_of_string_opt (get k) with Some n -> n | None -> die ("--" ^ k ^ " wants an integer")
  in
  let workload = get "workload" in
  if not (List.mem_assoc workload Workloads.all) then die ("unknown workload " ^ workload);
  let seconds = float_of_int (int_of "seconds") in
  if seconds <= 0. then die "--seconds must be positive";
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> die "--trace wants 0 or 1" in
  { workload; seed = int_of "seed"; seconds; trace }

(* ---- one pass ---- *)

type pass = {
  traced : bool;
  wall : float;  (** host seconds *)
  calib : float list;  (** calibration kernel seconds on a collected heap, before and after *)
  probe : Drive.probe;
  result : Workloads.pass_result;
  counts : (string * float) list;  (** the workload's counts plus the bignum deltas *)
  gc : (string * float) list;
  side_s : (string * float) list;
}

let run_pass (w : Workloads.t) spans i ~traced ~with_side =
  (* every pass starts from a collected heap and ends by collecting its own
     garbage inside the timed region, so it pays for what it allocates and
     leaves the next pass (and the calibration) a clean heap *)
  Gc.full_major ();
  let before = Calib.time () in
  let probe = Drive.probe ?spans:(if traced then spans else None) i in
  let g0 = Gc.quick_stat () in
  let wm0 = Bn.Mont.word_muls () and lt0 = Bn.Ct.limb_traffic () in
  let t0 = Unix.gettimeofday () in
  let work () =
    let r = w.pass probe in
    Drive.call probe "gc.full_major" Gc.full_major;
    r
  in
  let result =
    match probe.Drive.spans with
    | Some s -> Spans.with_span s ~pass:i "pass" work
    | None -> work ()
  in
  let wall = Unix.gettimeofday () -. t0 -. probe.Drive.untimed in
  let g1 = Gc.quick_stat () in
  let bn =
    [ ("bn.word_muls", float_of_int (Bn.Mont.word_muls () - wm0));
      ("bn.limb_traffic", float_of_int (Bn.Ct.limb_traffic () - lt0)) ]
  in
  let gc =
    [ ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) ]
  in
  let after = Calib.time () in
  let side_s, side_checks = match w.side with Some f when with_side -> f () | _ -> ([], []) in
  { traced; wall; calib = [ before; after ]; probe; gc; side_s;
    counts = result.Workloads.counts @ bn;
    result = { result with Workloads.checks = result.Workloads.checks @ side_checks } }

(* ---- metrics ---- *)

let e2e_units =
  [ ("setup_s", "s"); ("wall_s", "s"); ("conns_per_s", "1/s"); ("conn_p50_us", "us");
    ("conn_p99_us", "us"); ("heap_peak_mb", "MB") ]

(* The end-to-end metrics of the JSON result, the ones BENCHMARK.json bounds.
   The connection latencies are reported but not among them: host-speed
   scaling corrects them less well, and on the shared host their ten-seed
   spread and median moved by up to 0.245 and 21%, near the 0.25 limit. *)
let gated = [ "setup_s"; "wall_s"; "conns_per_s"; "heap_peak_mb" ]

let layer_selfs =
  [ "system"; "sshd"; "apache"; "scan_cache"; "kernel"; "ext2_leak"; "tty_dump"; "attack"; "gc" ]
let levels = [ "unprotected"; "library"; "kernel"; "integrated" ]

let per_layer_units =
  [ ("sshd.open_us.p50", "us"); ("sshd.open_us.p99", "us"); ("sshd.transfer_us.p50", "us");
    ("sshd.close_us.p50", "us"); ("apache.open_us.p50", "us"); ("apache.open_us.p99", "us");
    ("apache.serve_us.p50", "us"); ("apache.close_us.p50", "us");
    ("bn.word_muls", "count"); ("bn.limb_traffic", "count");
    ("scan_cache.sweep_ms.p50", "ms"); ("scan_cache.sweep_ms.p99", "ms");
    ("scan_cache.pages_swept", "count"); ("scan_cache.hit_rate", "ratio");
    ("scan_cache.ns_per_page", "ns");
    ("system.settle_ms", "ms"); ("ext2_leak.mkdirs_ms", "ms"); ("tty_dump.run_ms", "ms");
    ("attack.count_ms", "ms");
    ("buddy.alloc_pages", "count"); ("buddy.free_pages", "count");
    ("buddy.zero_on_free_bytes", "bytes"); ("kernel.cow_faults", "count");
    ("kernel.page_faults", "count"); ("page_cache.inserts", "count");
    ("page_cache.hit_rate", "ratio"); ("sim_rsa.private_ops", "count") ]
  @ List.map (fun s -> ("cost.cycles." ^ s, "cycles")) Workloads.cost_subsystems
  @ [ ("sim.cycles", "cycles"); ("sim.slowdown_integrated", "ratio");
      ("sim.unsafe_byte_ticks", "byte_ticks");
      ("obs.events_emitted", "count"); ("obs.events_dropped", "count"); ("obs.spans", "count");
      ("obs.series_samples", "count"); ("obs.provenance_intervals", "count") ]
  @ List.map (fun l -> ("overhead.level_s." ^ l, "s")) levels
  @ [ ("obs.overhead_pct", "%");
      ("gc.minor_words", "words"); ("gc.promoted_words", "words");
      ("gc.major_collections", "count") ]
  @ List.map (fun l -> (l ^ ".self_ms", "ms")) layer_selfs
  @ [ ("uncovered.self_ms", "ms"); ("uncovered.share", "ratio"); ("trace.overhead_ms", "ms") ]

let assoc0 k l = Option.value (List.assoc_opt k l) ~default:0.
let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.
let median_of f passes = Stats.median (Stats.of_list (List.map f passes))
let sum_of f passes = List.fold_left (fun acc p -> acc +. f p) 0. passes

(* Host times are reported at the reference host speed: every host time of
   the run is multiplied by [k = Calib.reference / median calibration time]
   ([k = 1] gives the raw figures). *)

(* setup_s: System.create time, median per machine over the passes (each
   machine boots once per pass), averaged over the pass's machines *)
let setup_s ~k passes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun (m, dt) -> Hashtbl.replace tbl m (dt :: Option.value (Hashtbl.find_opt tbl m) ~default:[]))
        p.probe.Drive.boots)
    passes;
  let meds = Hashtbl.fold (fun _ l acc -> Stats.median (Stats.of_list l) :: acc) tbl [] in
  let n = Hashtbl.fold (fun _ l acc -> acc + List.length l) tbl 0 in
  let mean = if meds = [] then 0. else List.fold_left ( +. ) 0. meds /. float_of_int (List.length meds) in
  (k *. mean, n)

(* Connection latency per cohort (one server at one protection level),
   pooled over the passes.  The cohorts' costs differ by up to 2x, so a
   pooled median would sit in the gap between them and jump with small
   shifts in their mix; the metric is the mean of the per-cohort figures. *)
let cohorts ~k passes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.iter
        (fun c s ->
          let acc =
            match Hashtbl.find_opt tbl c with
            | Some a -> a
            | None -> let a = Stats.samples () in Hashtbl.replace tbl c a; a
          in
          Array.iter (fun x -> Stats.add acc (k *. x)) (Stats.to_array s))
        p.probe.Drive.conn_us)
    passes;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* (name, value, note); the note carries the sample count or percentile *)
let end_to_end ~k passes =
  let cs = cohorts ~k passes in
  let tails = List.map (fun (_, s) -> Stats.tail ~cap:99. s) cs in
  (* every pass opens the same connections, so this is the throughput of
     the median pass; a mean over the passes would follow the host's slow
     spells *)
  let rate p = float_of_int p.probe.Drive.opened /. (k *. p.wall) in
  let setup, boots = setup_s ~k passes in
  let n = List.length passes in
  let fewest = List.fold_left (fun a (_, s) -> min a (Stats.count s)) max_int cs in
  let lowest_p = List.fold_left (fun a (p, _, _) -> Float.min a p) 99. tails in
  [ ("setup_s", setup, Printf.sprintf "median per machine, n=%d boots" boots);
    ("wall_s", k *. median_of (fun p -> p.wall) passes, Printf.sprintf "median, n=%d passes" n);
    ("conns_per_s", median_of rate passes,
     Printf.sprintf "median, n=%d passes of %d conns" n (List.hd passes).probe.Drive.opened);
    ("conn_p50_us", mean (List.map (fun (_, s) -> Stats.median s) cs),
     Printf.sprintf "median, mean of %d cohorts, n>=%d each" (List.length cs) fewest);
    ("conn_p99_us", mean (List.map (fun (_, v, _) -> v) tails),
     Printf.sprintf "%s or higher in every cohort, mean of %d cohorts, n>=%d each"
       (Stats.pct_label lowest_p) (List.length cs) fewest);
    ("heap_peak_mb",
     float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
     "Gc top heap of the run, not scaled") ]

let per_layer spans ~k ~passes ~traced ~untraced =
  let c key = assoc0 key (List.hd untraced).counts in
  let span_p name unit p =
    let d = Spans.durations spans name in
    let v = if p = 50. then Stats.median d else (fun (_, v, _) -> v) (Stats.tail ~cap:p d) in
    k *. unit *. v
  in
  let ntr = float_of_int (max 1 (List.length traced)) in
  let self = Spans.self_by_layer spans in
  let self_ms l = k *. 1e3 *. assoc0 l self /. ntr in
  let swept = c "scan_cache.pages_swept" in
  let sweep_s = k *. Stats.sum (Spans.durations spans "scan_cache.sweep") /. ntr in
  let level l = k *. median_of (fun p -> assoc0 l p.result.Workloads.parts_s) untraced in
  let side key = median_of (fun p -> assoc0 key p.side_s) passes in
  let obs_off = side "unprotected_obs_off" in
  let wall ps = k *. median_of (fun p -> p.wall) ps in
  [ ("sshd.open_us.p50", span_p "sshd.open" 1e6 50.);
    ("sshd.open_us.p99", span_p "sshd.open" 1e6 99.);
    ("sshd.transfer_us.p50", span_p "sshd.transfer" 1e6 50.);
    ("sshd.close_us.p50", span_p "sshd.close" 1e6 50.);
    ("apache.open_us.p50", span_p "apache.open" 1e6 50.);
    ("apache.open_us.p99", span_p "apache.open" 1e6 99.);
    ("apache.serve_us.p50", span_p "apache.serve" 1e6 50.);
    ("apache.close_us.p50", span_p "apache.close" 1e6 50.);
    ("bn.word_muls", c "bn.word_muls"); ("bn.limb_traffic", c "bn.limb_traffic");
    ("scan_cache.sweep_ms.p50", span_p "scan_cache.sweep" 1e3 50.);
    ("scan_cache.sweep_ms.p99", span_p "scan_cache.sweep" 1e3 99.);
    ("scan_cache.pages_swept", swept);
    ("scan_cache.hit_rate", ratio (c "scan_cache.clean_pages") swept);
    (* per-pass sweep time over per-pass pages swept *)
    ("scan_cache.ns_per_page", if swept > 0. then 1e9 *. sweep_s /. swept else 0.);
    ("system.settle_ms", span_p "system.settle" 1e3 50.);
    ("ext2_leak.mkdirs_ms", span_p "ext2_leak.mkdirs" 1e3 50.);
    ("tty_dump.run_ms", span_p "tty_dump.run" 1e3 50.);
    ("attack.count_ms", span_p "attack.count" 1e3 50.) ]
  @ List.map (fun key -> (key, c key))
      [ "buddy.alloc_pages"; "buddy.free_pages"; "buddy.zero_on_free_bytes"; "kernel.cow_faults";
        "kernel.page_faults"; "page_cache.inserts" ]
  @ [ ("page_cache.hit_rate", ratio (c "page_cache.hits") (c "page_cache.misses"));
      ("sim_rsa.private_ops", c "sim_rsa.private_ops") ]
  @ List.map (fun s -> ("cost.cycles." ^ s, c ("cost.cycles." ^ s))) Workloads.cost_subsystems
  @ List.map (fun key -> (key, c key))
      [ "sim.cycles"; "sim.slowdown_integrated"; "sim.unsafe_byte_ticks"; "obs.events_emitted";
        "obs.events_dropped"; "obs.spans"; "obs.series_samples"; "obs.provenance_intervals" ]
  @ List.map (fun l -> ("overhead.level_s." ^ l, level l)) levels
  @ [ ("obs.overhead_pct",
       if obs_off > 0. then 100. *. ((side "unprotected_obs_on" /. obs_off) -. 1.) else 0.) ]
  @ List.map (fun key -> (key, median_of (fun p -> assoc0 key p.gc) untraced))
      [ "gc.minor_words"; "gc.promoted_words"; "gc.major_collections" ]
  @ List.map (fun l -> (l ^ ".self_ms", self_ms l)) layer_selfs
  @ [ ("uncovered.self_ms", self_ms "pass");
      ("uncovered.share",
       let t = sum_of (fun p -> p.wall) traced in
       if t > 0. then assoc0 "pass" self /. t else 0.);
      ("trace.overhead_ms", 1e3 *. (wall traced -. wall untraced)) ]

(* ---- output ---- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics units =
  let body =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) (List.assoc name units))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " body)

let () =
  let a = parse Sys.argv in
  let w = (List.assoc a.workload Workloads.all) a.seed in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" w.Workloads.name a.seed a.seconds
    (if a.trace then 1 else 0);
  w.Workloads.setup ();
  (* the first pass after set-up still grows the heap and fills caches: it
     is checked (it is the first comparison of the benchmark's drivers with
     the library's own runs) but not measured *)
  let warmup = run_pass w None 0 ~traced:false ~with_side:false in
  let spans = if a.trace then Some (Spans.create ()) else None in
  let deadline = Unix.gettimeofday () +. a.seconds in
  let min_passes = if a.trace then 4 else 3 in
  let passes = ref [] in
  let i = ref 1 in
  while Unix.gettimeofday () < deadline || !i <= min_passes do
    (* a traced run alternates untraced and traced passes, so one run
       gives both sides of the tracing overhead *)
    let traced = a.trace && !i mod 2 = 0 in
    passes := run_pass w spans !i ~traced ~with_side:a.trace :: !passes;
    incr i
  done;
  let passes = List.rev !passes in
  (* One host speed per run, from every calibration taken: the host's speed
     flips within seconds, so a single calibration says little about the
     pass next to it, but the run's median tracks the run. *)
  let speed = Stats.median (Stats.of_list (List.concat_map (fun p -> p.calib) passes)) in
  let k = Calib.reference /. speed in
  (* checks: every pass's outputs against the library's own runs, and exact
     repetition of every simulated count from pass to pass *)
  let first = List.hd passes in
  let repeat_checks =
    List.map
      (fun p ->
        (Printf.sprintf "pass%d.simulated_counts_repeat" p.probe.Drive.pass_id, p.counts = first.counts))
      (List.tl passes)
  in
  let checks = List.concat_map (fun p -> p.result.Workloads.checks) (warmup :: passes) @ repeat_checks in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (name, _) -> Printf.printf "FAILED check %s\n" name) failed;
  let attempted = List.length checks and nfailed = List.length failed in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let e2e = end_to_end ~k untraced in
  Printf.printf "\nend-to-end (untraced passes; host time at the reference host speed)\n";
  List.iter
    (fun (n, v, note) -> Printf.printf "  %-22s %14.6g %-6s %s\n" n v (List.assoc n e2e_units) note)
    e2e;
  List.iter
    (fun (key, u) ->
      if List.mem_assoc key first.counts then
        Printf.printf "  %-22s %14.6g %-6s simulated, per pass\n" key (List.assoc key first.counts) u)
    [ ("sim.cycles", "cycles"); ("sim.slowdown_integrated", "ratio"); ("sim.unsafe_byte_ticks", "byte_ticks") ];
  Printf.printf "  %-22s %14.6g %-6s %d failed / %d checks\n" "failed_frac"
    (float_of_int nfailed /. float_of_int attempted) "ratio" nfailed attempted;
  Printf.printf "raw host times (not scaled; calibration kernel %.4f s against %.4f s reference)\n"
    speed Calib.reference;
  List.iter
    (fun (n, v, note) ->
      if n <> "heap_peak_mb" then Printf.printf "  raw %-18s %14.6g %-6s %s\n" n v (List.assoc n e2e_units) note)
    (end_to_end ~k:1. untraced);
  match spans with
  | None ->
    print_json ~correct:(nfailed = 0) ~attempted ~failed:nfailed
      (List.filter_map (fun (n, v, _) -> if List.mem n gated then Some (n, v) else None) e2e)
      e2e_units
  | Some s ->
    let layer = per_layer s ~k ~passes ~traced ~untraced in
    Printf.printf "\nper-layer (traced run: %d traced, %d untraced passes)\n" (List.length traced)
      (List.length untraced);
    List.iter (fun (n, v) -> Printf.printf "  %-28s %16.6g %s\n" n v (List.assoc n per_layer_units)) layer;
    let file = Printf.sprintf ".bench_build/spans-%s-seed%d.json" w.Workloads.name a.seed in
    (try
       Spans.write_chrome s file;
       Printf.printf "  spans: %d written to %s\n" (Spans.length s) file
     with Sys_error e -> Printf.printf "  spans: not written (%s)\n" e);
    print_json ~correct:(nfailed = 0) ~attempted ~failed:nfailed layer per_layer_units
