(* Wall-clock costs that no flight archive or test measures — the scan
   engine, the telemetry path, each observability sink, the sharded fleet
   and the chaos campaign —
   plus the simulated keys no archive holds.  Prints every scalar and
   writes them to BENCH_scan.json (a scalars-only flight archive; diff
   two with [memguard_cli diff]).  The paper's figures come from the CLI:
   see EXPERIMENTS.md, "Reproducing".

   Run with:  dune exec bench/main.exe *)

open Memguard
module Obs = Memguard_obs.Obs
module Fleet = Memguard_fleet.Fleet
module Campaign = Memguard_fault.Campaign
module Scanner = Memguard_scan.Scanner
module Scan_cache = Memguard_scan.Scan_cache

(* Best of [n] timed runs, with the last run's result.  GC pauses and
   preemption only ever add time, so the minimum is the least-noisy
   sample of the true cost. *)
let time_min n f =
  let best = ref infinity and last = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    last := Some r
  done;
  (!best, Option.get !last)

let num_pages = 4096
let count n = float_of_int n
let slug name = String.map (function '-' -> '_' | c -> c) name

(* the Figure 5 sshd timeline: 30 snapshots under live traffic *)
let run_timeline ?obs scan_mode =
  let sys = System.create ~num_pages ~scan_mode ?obs ~level:Protection.Unprotected () in
  Timeline.run sys Timeline.Ssh

(* cold single pass vs incremental re-scan, alone and inside the
   timeline, and the full telemetry path (per-tick series plus the
   default alert pack) against the same timeline with obs off *)
let scan_engine () =
  let sys = System.create ~num_pages ~seed:11 ~level:Protection.Unprotected () in
  let k = System.kernel sys and patterns = System.patterns sys in
  let t_single, _ = time_min 5 (fun () -> Scanner.scan k ~patterns) in
  let cache = Scan_cache.create k ~patterns in
  ignore (Scan_cache.scan cache);
  let t_idle, _ = time_min 10 (fun () -> Scan_cache.scan cache) in
  let t_full, _ = time_min 3 (fun () -> run_timeline System.Full) in
  let telemetry () =
    let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
    Dashboard.install_default_alerts obs;
    run_timeline ~obs System.Incremental
  in
  (* telemetry on and off timed side by side, one of each per round and
     the order alternating, so host drift between rounds cancels in each
     round's ratio; the overhead is the median ratio *)
  let time f = fst (time_min 1 f) in
  let off () = time (fun () -> run_timeline System.Incremental) in
  let rounds =
    List.init 7 (fun i ->
        if i mod 2 = 0 then
          let on = time telemetry in
          (on, off ())
        else
          let off = off () in
          (time telemetry, off))
  in
  let t_incr = List.fold_left (fun acc (_, off) -> Float.min acc off) infinity rounds in
  let ratios = List.sort compare (List.map (fun (on, off) -> on /. off) rounds) in
  let median_ratio = List.nth ratios (List.length ratios / 2) in
  (* traced runs, apart from the timed ones: per-scan wall time *)
  let traced =
    List.map
      (fun mode ->
        let obs = Obs.create () in
        ignore (run_timeline ~obs mode);
        (System.mode_name mode, obs))
      [ System.Full; System.Incremental ]
  in
  let obs = List.assoc "incremental" traced in
  let clean = count (Obs.Metrics.counter obs "scan.cache_clean_pages") in
  let dirty = count (Obs.Metrics.counter obs "scan.cache_dirty_pages") in
  [ ("num_pages", count num_pages);
    ("patterns", count (List.length patterns));
    ("full_scan_single_pass_s", t_single);
    ("incremental_rescan_idle_s", t_idle);
    ("timeline_full_rescan_s", t_full);
    ("timeline_incremental_s", t_incr);
    ("timeseries_overhead_pct", 100. *. (median_ratio -. 1.));
    ("scan_cache_hit_rate", clean /. Float.max 1.0 (clean +. dirty))
  ]
  @ List.map
      (fun (mode, obs) ->
        ( Printf.sprintf "timeline_scan_wall_p50_%s_s" mode,
          Obs.Metrics.percentile (Obs.Metrics.samples obs ("scan.wall_s." ^ mode)) 50. ))
      traced

(* Seconds per call of each observability sink (warn-only: the keys end
   in _s): the per-call prices behind the overhead report's obs share.
   Each sink is timed on a fresh context, best of five rounds of
   [calls]; the provenance pair runs against ~500 live intervals, 16 per
   4 KiB page, the density of a machine's key copies. *)
let obs_sinks () =
  let calls = 50_000 in
  let per_call setup f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let obs = setup () in
      let t, () =
        time_min 1 (fun () ->
            for i = 1 to calls do
              f obs i
            done)
      in
      best := Float.min !best t
    done;
    !best /. float_of_int calls
  in
  let fresh () = Obs.create () in
  let live_intervals () =
    let obs = Obs.create () in
    for i = 0 to 511 do
      Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:1 ~addr:(i * 256) ~len:32
    done;
    obs
  in
  let ignore_ () = () in
  [ ("charge", fresh, fun obs _ -> Obs.Cost.charge obs ~sub:"kernel" Obs.Cost.Byte_copied 64);
    ("incr", fresh, fun obs _ -> Obs.Metrics.incr obs "bench.counter");
    ( "emit",
      fresh,
      fun obs i -> Obs.Trace.emit obs (Obs.Cow_fault { pid = 1; src_pfn = i; dst_pfn = i }) );
    ("with_span", fresh, fun obs _ -> Obs.Trace.with_span obs "bench.span" ignore_);
    ("profiler_span", fresh, fun obs _ -> Obs.Profiler.span obs "bench.span" ignore_);
    ("record", fresh, fun obs i -> Obs.Timeseries.record obs "bench.series" (float_of_int i));
    (* a zeroed range between two copies: the common clear, which drops
       nothing *)
    ( "provenance_clear",
      live_intervals,
      fun obs i -> Obs.Provenance.clear obs ~addr:(((i land 511) * 256) + 64) ~len:128 );
    ( "provenance_lookup",
      live_intervals,
      fun obs i -> ignore (Obs.Provenance.lookup obs ~addr:(((i land 511) * 256) + 16)) )
  ]
  |> List.map (fun (name, setup, f) ->
         (Printf.sprintf "obs_sink_%s_op_s" name, per_call setup f))

(* an 8-shard fleet on 1, 2 and 4 worker domains: simulated totals from
   the sequential run, throughput at whichever count ran fastest here
   (on a 1-core host more domains only add scheduling) *)
let fleet () =
  let cfg =
    { Fleet.default with
      Fleet.shards = 8;
      domains = 1;
      num_pages = 1024;
      conns_low = 8;
      conns_high = 16
    }
  in
  let timed =
    List.map (fun domains -> (domains, time_min 1 (fun () -> Fleet.run { cfg with domains })))
      [ 1; 2; 4 ]
  in
  let r = snd (List.assoc 1 timed) in
  let best = List.fold_left (fun acc (_, (t, _)) -> Float.min acc t) infinity timed in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Fleet.shard_results in
  let pages = sum (fun s -> s.Fleet.pages_swept) in
  [ ("fleet_shards", count cfg.Fleet.shards);
    ("fleet_connections", count r.Fleet.total_connections);
    ("fleet_requests", count r.Fleet.total_requests);
    ("fleet_total_cycles", count r.Fleet.total_cycles);
    ("fleet_sensitive_unsafe_byte_ticks", count r.Fleet.sensitive_unsafe);
    ("fleet_scan_pages_swept", count pages);
    ("fleet_scan_sweeps", count (sum (fun s -> s.Fleet.sweeps)));
    ( "fleet_scan_sweep_cycles",
      count
        (sum (fun s ->
             Option.value ~default:0
               (List.assoc_opt "scan" s.Fleet.dash.Dashboard.cycles_by_subsystem))) );
    ("fleet_connections_per_sec", count r.Fleet.total_connections /. best);
    ("fleet_scan_pages_per_sec", count pages /. best)
  ]
  @ List.map (fun (d, (t, _)) -> (Printf.sprintf "fleet_timeline_domains_%d_s" d, t)) timed

(* exposure byte-ticks of the observed timeline at every level *)
let exposure () =
  List.concat_map
    (fun level ->
      let d = Dashboard.run ~level ~num_pages () in
      let l = slug (Protection.name level) in
      [ ("exposure_byte_ticks_" ^ l,
         count (List.fold_left (fun acc (_, v) -> acc + v) 0 d.Dashboard.totals));
        ("exposure_sensitive_unsafe_byte_ticks_" ^ l, count (Dashboard.sensitive_unsafe_total d))
      ])
    Protection.all

(* ops/s of the fault-injection campaign with its per-op audit and (at
   the guaranteeing levels) confinement scan: the figure that decides
   how many seeds CI can afford *)
let chaos () =
  List.map
    (fun level ->
      let cfg = { Campaign.default_config with Campaign.seed = 13; level; ops = 400 } in
      let t, r = time_min 1 (fun () -> Campaign.run cfg) in
      if not (Campaign.passed r) then begin
        Format.eprintf "chaos campaign failed at %s@." (Protection.name level);
        exit 1
      end;
      (Printf.sprintf "chaos_%s_ops_per_sec" (slug (Protection.name level)),
       count r.Campaign.ops_run /. t))
    [ Protection.Unprotected; Protection.Secure_dealloc; Protection.Kernel_level;
      Protection.Integrated ]

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe  (takes no arguments; writes BENCH_scan.json)";
    exit 2
  end;
  let scalars =
    List.sort compare (scan_engine () @ obs_sinks () @ fleet () @ exposure () @ chaos ())
  in
  List.iter (fun (k, v) -> Format.printf "%-52s %s@." k (Obs.float_json v)) scalars;
  Obs.Snapshot.write "BENCH_scan.json" (Obs.Snapshot.of_scalars ~kind:"bench-scan" scalars);
  Format.printf "wrote BENCH_scan.json@."
