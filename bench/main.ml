(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sections 2, 3.2, 5.2/5.3, 6.2/6.3) on the simulated
   substrate, then runs Bechamel micro-benchmarks backing the performance
   claims (Figures 8, 19, 20: "no performance penalty").

   Run with:  dune exec bench/main.exe
   Figure-only / micro-only runs:
     dune exec bench/main.exe -- --skip-micro
     dune exec bench/main.exe -- --skip-figures *)

open Memguard
module Report = Memguard_scan.Report
module Scanner = Memguard_scan.Scanner
module Kernel = Memguard_kernel.Kernel
module Sshd = Memguard_apps.Sshd
module Apache = Memguard_apps.Apache
module Ssl = Memguard_ssl.Ssl
module Sim_rsa = Memguard_ssl.Sim_rsa
module Bn = Memguard_bignum.Bn
module Rsa = Memguard_crypto.Rsa
module Prng = Memguard_util.Prng
module Obs = Memguard_obs.Obs
module Fleet = Memguard_fleet.Fleet

let section title =
  Format.printf "@.=== %s ===@." title

let server_name s = match s with Experiment.Ssh -> "OpenSSH" | Experiment.Http -> "Apache"

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's figures                                         *)
(* ------------------------------------------------------------------ *)

let fig_1_2 () =
  List.iter
    (fun (server, fig) ->
      section
        (Printf.sprintf "Figure %s — %s private keys recovered by the ext2 attack" fig
           (server_name server));
      let pts =
        Experiment.ext2_sweep ~trials:3 ~connections:[ 50; 150; 300; 500 ]
          ~directories:[ 250; 1000; 4000 ] server
      in
      Format.printf "%a" Experiment.pp_sweep pts)
    [ (Experiment.Ssh, "1(a,b)"); (Experiment.Http, "2(a,b)") ]

let fig_3_4 () =
  List.iter
    (fun (server, fig) ->
      section
        (Printf.sprintf "Figure %s — %s private keys recovered by the n_tty dump" fig
           (server_name server));
      let pts = Experiment.tty_sweep ~trials:5 server in
      Format.printf "%a" Experiment.pp_sweep pts)
    [ (Experiment.Ssh, "3(a,b)"); (Experiment.Http, "4(a,b)") ]

let print_timeline level server =
  let snaps = Experiment.timeline ~level ~num_pages:4096 server in
  Format.printf "%a" Report.pp_series snaps

let fig_5_6 () =
  section "Figure 5(a,b) — OpenSSH key copies over time, no protection";
  print_timeline Protection.Unprotected Experiment.Ssh;
  section "Figure 6(a,b) — Apache key copies over time, no protection";
  print_timeline Protection.Unprotected Experiment.Http

let fig_7_17_18 () =
  List.iter
    (fun (server, fig) ->
      section
        (Printf.sprintf "Figure %s — tty attack before/after the integrated solution (%s)" fig
           (server_name server));
      List.iter
        (fun (level, pts) ->
          Format.printf "-- %s --@.%a" (Protection.name level) Experiment.pp_sweep pts)
        (Experiment.before_after_tty ~trials:10 server))
    [ (Experiment.Ssh, "7(a,b)"); (Experiment.Http, "17/18") ]

let fig_9_16_21_28 () =
  List.iter
    (fun (server, figs) ->
      List.iter
        (fun (level, fig) ->
          section
            (Printf.sprintf "Figure %s — %s under the %s-level solution" fig
               (server_name server) (Protection.name level));
          print_timeline level server)
        figs)
    [ ( Experiment.Ssh,
        [ (Protection.Application, "9/10"); (Protection.Library, "11/12");
          (Protection.Kernel_level, "13/14"); (Protection.Integrated, "15/16")
        ] );
      ( Experiment.Http,
        [ (Protection.Application, "21/22"); (Protection.Library, "23/24");
          (Protection.Kernel_level, "25/26"); (Protection.Integrated, "27/28")
        ] )
    ]

let fig_8_19_20 () =
  List.iter
    (fun (server, fig, what) ->
      section (Printf.sprintf "Figure %s — %s %s before/after (wall-clock, simulated substrate)" fig (server_name server) what);
      List.iter
        (fun level ->
          let p = Experiment.perf_run ~level ~transactions:400 ~concurrent:20 server in
          Format.printf "%-14s %a@." (Protection.name level) Experiment.pp_perf p)
        [ Protection.Unprotected; Protection.Integrated ])
    [ (Experiment.Ssh, "8", "scp stress"); (Experiment.Http, "19/20", "Siege stress") ]

let section_52_62_ext2 () =
  List.iter
    (fun (server, sec) ->
      section
        (Printf.sprintf "Section %s — ext2 attack against every protection level (%s)" sec
           (server_name server));
      Format.printf "%-16s %12s %10s@." "level" "copies/run" "success";
      List.iter
        (fun (level, pts) ->
          List.iter
            (fun p ->
              Format.printf "%-16s %12.2f %9.0f%%@." (Protection.name level)
                p.Experiment.mean_copies (100. *. p.Experiment.success_rate))
            pts)
        (Experiment.before_after_ext2 ~trials:3 server))
    [ (Experiment.Ssh, "5.2"); (Experiment.Http, "6.2") ]

let ablations () =
  section "Ablation A1 — secure-dealloc vs kernel vs integrated (success rates)";
  Format.printf "%-16s %10s %10s@." "level" "ext2" "tty";
  List.iter
    (fun (name, ext2, tty) ->
      Format.printf "%-16s %9.0f%% %9.0f%%@." name (100. *. ext2) (100. *. tty))
    (Experiment.ablation_dealloc ());
  section "Ablation A2 — COW sharing: allocated key copies vs apache workers";
  Format.printf "%-8s %10s %10s@." "workers" "vanilla" "hardened";
  List.iter
    (fun (w, v, h) -> Format.printf "%-8d %10d %10d@." w v h)
    (Experiment.ablation_cow ());
  section "Ablation A3 — swap: key hits on the swap device under memory pressure";
  List.iter (fun (name, hits) -> Format.printf "%-24s %d@." name hits) (Experiment.ablation_swap ());
  section "Ablation A4 — O_NOCACHE: PEM copies left in RAM after a key load";
  List.iter (fun (name, n) -> Format.printf "%-24s %d@." name n) (Experiment.ablation_nocache ());
  section "Ablation A5 — encrypted key file: passphrase & key copies in RAM after load";
  Format.printf "%-28s %12s %8s@." "configuration" "passphrase" "d";
  List.iter
    (fun (name, pass, d) -> Format.printf "%-28s %12d %8d@." name pass d)
    (Experiment.ablation_encrypted_key ());
  section "Ablation A6 — core dump of the server process (what alignment cannot fix)";
  List.iter
    (fun (name, copies) -> Format.printf "%-16s %d key copies in the core@." name copies)
    (Experiment.ablation_core_dump ());
  section "Ablation A7 — tty success rate vs disclosed fraction (integrated system)";
  Format.printf "%-12s %10s@." "fraction" "success";
  List.iter
    (fun (f, s) -> Format.printf "%-12.2f %9.0f%%@." f (100. *. s))
    (Experiment.ablation_tty_fraction ())

let figures () =
  fig_1_2 ();
  fig_3_4 ();
  fig_5_6 ();
  fig_7_17_18 ();
  fig_8_19_20 ();
  fig_9_16_21_28 ();
  section_52_62_ext2 ();
  ablations ()

(* ------------------------------------------------------------------ *)
(* Part 1b: scan-engine comparison (--json writes BENCH_scan.json)     *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let time_mean ?(reps = 3) f =
  ignore (f ()) (* warm-up *);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* minimum of [reps] timed runs: the robust estimator for short wall-clock
   sections — GC pauses and scheduler preemption only ever add time, so
   the min is the least-noisy sample of the true cost *)
let time_min ?(reps = 5) f =
  ignore (f ()) (* warm-up *);
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let scan_engine_bench () =
  section "Scan engine — cold single pass vs incremental (4096 pages)";
  let num_pages = 4096 in
  let sys = System.create ~num_pages ~seed:11 ~level:Protection.Unprotected () in
  let k = System.kernel sys in
  let patterns = System.patterns sys in
  (* cold full sweep of an idle machine *)
  let t_single = time_mean (fun () -> Scanner.scan k ~patterns) in
  (* steady-state incremental re-scan (nothing dirty between scans) *)
  let cache = Memguard_scan.Scan_cache.create k ~patterns in
  ignore (Memguard_scan.Scan_cache.scan cache);
  let t_incr_idle = time_mean ~reps:10 (fun () -> Memguard_scan.Scan_cache.scan cache) in
  (* the Figure 5/6 timeline workload: 30 snapshots under live traffic,
     once per scan strategy — [System.create] is where the strategy is set *)
  let run_timeline ?obs scan_mode =
    let sys = System.create ~num_pages ~scan_mode ?obs ~level:Protection.Unprotected () in
    Timeline.run sys Timeline.Ssh
  in
  let timeline scan_mode = time_once (fun () -> run_timeline scan_mode) in
  let t_timeline_full = timeline System.Full in
  let t_timeline_incr = timeline System.Incremental in
  (* instrumented timeline runs: per-scan wall-time percentiles per mode,
     plus the incremental cache's hit-rate / dirty-page ratio.  Separate
     runs so the headline timings above stay untraced. *)
  let percentiles scan_mode =
    let obs = Obs.create () in
    ignore (run_timeline ~obs scan_mode);
    (obs, Obs.Metrics.samples obs ("scan.wall_s." ^ System.mode_name scan_mode))
  in
  let _, wall_full = percentiles System.Full in
  let obs_incr, wall_incr = percentiles System.Incremental in
  let walls = [ ("full", wall_full); ("incremental", wall_incr) ] in
  let clean = float_of_int (Obs.Metrics.counter obs_incr "scan.cache_clean_pages") in
  let dirty = float_of_int (Obs.Metrics.counter obs_incr "scan.cache_dirty_pages") in
  let hit_rate = clean /. Float.max 1.0 (clean +. dirty) in
  let dirty_ratio = dirty /. Float.max 1.0 (clean +. dirty) in
  let p samples q = Obs.Metrics.percentile samples q in
  (* exposure ledger rider: wall-time overhead of ledger-on vs obs-off
     timeline runs, plus the byte-tick verdict per protection level *)
  let t_ledger_off =
    time_min (fun () -> Experiment.timeline ~num_pages Experiment.Ssh)
  in
  let t_ledger_on =
    time_min (fun () ->
        let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
        Experiment.timeline ~num_pages ~obs Experiment.Ssh)
  in
  let ledger_overhead_pct = 100. *. ((t_ledger_on /. t_ledger_off) -. 1.) in
  (* timeseries rider: the full telemetry path (per-tick series sampling
     plus the default alert pack evaluated every scan) vs the same
     timeline with observability off.  Wall-clock, so never gated; the
     per-series sample counts below are the deterministic half — they
     pin exactly how often System.scan feeds each series, so a sampling
     regression (a series silently dropped or double-fed) fails CI's
     BENCH_scan.json key check even on a noisy runner. *)
  let t_telemetry =
    time_min (fun () ->
        let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
        Dashboard.install_default_alerts obs;
        Experiment.timeline ~num_pages ~obs Experiment.Ssh)
  in
  let timeseries_overhead_pct = 100. *. ((t_telemetry /. t_ledger_off) -. 1.) in
  let series_counts =
    let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
    Dashboard.install_default_alerts obs;
    ignore (Experiment.timeline ~num_pages ~obs Experiment.Ssh);
    List.map
      (fun name -> (name, Obs.Timeseries.sample_count obs name))
      (Obs.Timeseries.names obs)
  in
  let exposure_by_level =
    List.map
      (fun level ->
        let d = Dashboard.run ~level ~num_pages () in
        let total =
          List.fold_left (fun acc (_, v) -> acc + v) 0 d.Dashboard.totals
        in
        (Protection.name level, total, Dashboard.sensitive_unsafe_total d))
      Protection.all
  in
  (* fleet rider: aggregate scan+timeline throughput of a sharded fleet,
     sequential vs parallel on 4 domains.  Connection/cycle counts are
     deterministic; the seconds and the speedup are wall-clock (never
     gated — on a 1-core host the speedup is honestly ~1x). *)
  let fleet_cfg =
    { Fleet.default with
      Fleet.shards = 8;
      domains = 1;
      num_pages = 1024;
      conns_low = 8;
      conns_high = 16
    }
  in
  let fleet_report = ref None in
  let t_fleet_1 = time_once (fun () -> fleet_report := Some (Fleet.run fleet_cfg)) in
  let t_fleet_2 =
    time_once (fun () -> ignore (Fleet.run { fleet_cfg with Fleet.domains = 2 }))
  in
  let fleet4_report = ref None in
  let t_fleet_4 =
    time_once (fun () ->
        fleet4_report := Some (Fleet.run { fleet_cfg with Fleet.domains = 4 }))
  in
  let fleet = Option.get !fleet_report in
  let fleet4 = Option.get !fleet4_report in
  let fleet_speedup = t_fleet_1 /. t_fleet_4 in
  (* recommend the domain count this host actually ran fastest, not
     Domain.recommended_domain_count: on a 1-core container 4 domains
     multiplex one core and lose ~3x to scheduling + GC coordination
     (speedup 0.35x measured), so honesty demands the argmin.  The
     crossover is domains <= cores — see DESIGN.md. *)
  let fleet_domains_recommended =
    let timed = [ (1, t_fleet_1); (2, t_fleet_2); (4, t_fleet_4) ] in
    fst (List.fold_left (fun (bd, bt) (d, t) -> if t < bt then (d, t) else (bd, bt))
           (List.hd timed) (List.tl timed))
  in
  (* per-domain scan throughput: deterministic pages/sweeps per shard,
     wall-clock pages/s per worker domain *)
  let fleet_pages_swept =
    List.fold_left (fun acc (s : Fleet.shard_result) -> acc + s.Fleet.pages_swept) 0
      fleet.Fleet.shard_results
  in
  let fleet_sweeps =
    List.fold_left (fun acc (s : Fleet.shard_result) -> acc + s.Fleet.sweeps) 0
      fleet.Fleet.shard_results
  in
  let fleet_sweep_cycles =
    List.fold_left
      (fun acc (s : Fleet.shard_result) ->
        acc
        + (match
             List.assoc_opt "scan" s.Fleet.dash.Dashboard.cycles_by_subsystem
           with
           | Some c -> c
           | None -> 0))
      0 fleet.Fleet.shard_results
  in
  let t_fleet_best = Float.min t_fleet_1 (Float.min t_fleet_2 t_fleet_4) in
  let fleet_scan_pages_per_sec = float_of_int fleet_pages_swept /. t_fleet_best in
  (* throughput at whichever domain count this host runs faster — a 1-core
     host loses on 4 domains, a 4-core host wins; either way the number is
     what an operator picking the right --domains would see *)
  let fleet_conns_per_sec =
    float_of_int fleet.Fleet.total_connections /. t_fleet_best
  in
  Format.printf "%-44s %12.6f s@." "full scan, single-pass multi-pattern" t_single;
  Format.printf "%-44s %12.6f s@." "incremental re-scan, idle machine" t_incr_idle;
  Format.printf "%-44s %12.6f s@." "fig 5/6 timeline, single-pass re-scan" t_timeline_full;
  Format.printf "%-44s %12.6f s@." "fig 5/6 timeline, incremental" t_timeline_incr;
  Format.printf "%-44s %11.1f%%@." "scan-cache hit rate (timeline)" (100. *. hit_rate);
  Format.printf "%-44s %11.1f%%@." "dirty-page ratio (timeline)" (100. *. dirty_ratio);
  List.iter
    (fun (mode, samples) ->
      Format.printf "%-44s %12.6f / %.6f / %.6f s@."
        (Printf.sprintf "per-scan wall time %s (p50/p90/max)" mode)
        (p samples 50.) (p samples 90.) (p samples 100.))
    walls;
  Format.printf "%-44s %11.1f%%@." "exposure ledger overhead (timeline)" ledger_overhead_pct;
  Format.printf "%-44s %11.1f%%@." "timeseries + alert overhead (timeline)"
    timeseries_overhead_pct;
  Format.printf "%-44s %7d series / %d samples@." "telemetry sampled (timeline)"
    (List.length series_counts)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 series_counts);
  Format.printf "%-44s %12d conns (%d shards)@." "fleet connections (8-shard timeline)"
    fleet.Fleet.total_connections fleet_cfg.Fleet.shards;
  Format.printf "%-44s %12.6f / %.6f / %.6f s  (%.2fx at 4 domains)@."
    "fleet wall time, 1 / 2 / 4 domains" t_fleet_1 t_fleet_2 t_fleet_4 fleet_speedup;
  Format.printf "%-44s %12d (fastest measured on this host)@."
    "fleet domains recommended" fleet_domains_recommended;
  Format.printf "%-44s %12.0f conns/s@." "fleet connection throughput (best domains)"
    fleet_conns_per_sec;
  Format.printf "%-44s %12d pages in %d sweeps (%d scan cycles)@."
    "fleet scan volume (8-shard timeline)" fleet_pages_swept fleet_sweeps fleet_sweep_cycles;
  Format.printf "%-44s %12.0f pages/s@." "fleet scan throughput (best domains)"
    fleet_scan_pages_per_sec;
  List.iter
    (fun (d : Fleet.domain_stat) ->
      Format.printf "%-44s %12.0f pages/s  (%d pages, %d sweeps, %.6f s)@."
        (Printf.sprintf "  domain %d scan throughput (4-domain run)" d.Fleet.domain)
        (if d.Fleet.wall_s > 0. then float_of_int d.Fleet.d_pages_swept /. d.Fleet.wall_s
         else 0.)
        d.Fleet.d_pages_swept d.Fleet.d_sweeps d.Fleet.wall_s)
    fleet4.Fleet.domain_stats;
  List.iter
    (fun (name, total, unsafe) ->
      Format.printf "%-44s %12d byte-ticks (%d sensitive outside mlock)@."
        (Printf.sprintf "exposure at %s" name) total unsafe)
    exposure_by_level;
  let slug chars name = String.map (fun c -> if List.mem c chars then '_' else c) name in
  let count n = float_of_int n in
  let scalars =
    [ ("num_pages", count num_pages);
      ("patterns", count (List.length patterns));
      ("full_scan_single_pass_s", t_single);
      ("incremental_rescan_idle_s", t_incr_idle);
      ("timeline_full_rescan_s", t_timeline_full);
      ("timeline_incremental_s", t_timeline_incr);
      ("scan_cache_hit_rate", hit_rate);
      ("dirty_page_ratio", dirty_ratio);
      ("exposure_ledger_overhead_pct", ledger_overhead_pct);
      ("timeseries_overhead_pct", timeseries_overhead_pct);
      ("fleet_shards", count fleet_cfg.Fleet.shards);
      ("fleet_connections", count fleet.Fleet.total_connections);
      ("fleet_requests", count fleet.Fleet.total_requests);
      ("fleet_total_cycles", count fleet.Fleet.total_cycles);
      ("fleet_sensitive_unsafe_byte_ticks", count fleet.Fleet.sensitive_unsafe);
      ("fleet_domains_recommended", count fleet_domains_recommended);
      ("fleet_timeline_domains_1_s", t_fleet_1);
      ("fleet_timeline_domains_2_s", t_fleet_2);
      ("fleet_timeline_domains_4_s", t_fleet_4);
      ("fleet_speedup_domains_4", fleet_speedup);
      ("fleet_connections_per_sec", fleet_conns_per_sec);
      ("fleet_scan_pages_swept", count fleet_pages_swept);
      ("fleet_scan_sweeps", count fleet_sweeps);
      ("fleet_scan_sweep_cycles", count fleet_sweep_cycles);
      ("fleet_scan_pages_per_sec", fleet_scan_pages_per_sec)
    ]
    @ List.concat_map
        (fun (mode, samples) ->
          List.map
            (fun (q, tag) ->
              (Printf.sprintf "timeline_scan_wall_%s_%s_s" tag mode, p samples q))
            [ (50., "p50"); (90., "p90"); (100., "max") ])
        walls
    @ List.concat_map
        (fun (name, total, unsafe) ->
          let slug = slug [ '-' ] name in
          [ ("exposure_byte_ticks_" ^ slug, count total);
            ("exposure_sensitive_unsafe_byte_ticks_" ^ slug, count unsafe)
          ])
        exposure_by_level
    @ List.map
        (fun (name, n) -> ("series_samples_" ^ slug [ '.'; '-' ] name, count n))
        series_counts
  in
  Obs.Snapshot.write "BENCH_scan.json" (Obs.Snapshot.of_scalars ~kind:"bench-scan" scalars);
  Format.printf "wrote BENCH_scan.json@."

(* ------------------------------------------------------------------ *)
(* Part 1c: chaos-campaign throughput (--chaos)                        *)
(* ------------------------------------------------------------------ *)

(* ops/sec of the fault-injection harness with its per-op structural audit
   and (at the guaranteeing levels) per-op incremental confinement scan —
   the number that decides how many seeds CI can afford *)
let chaos_bench () =
  section "chaos campaign throughput (per-op audit + confinement oracle)";
  let module Campaign = Memguard_fault.Campaign in
  let ops = 400 in
  Format.printf "%-20s %10s %12s %10s %8s@." "level" "ops" "wall s" "ops/s" "ooms";
  List.iter
    (fun level ->
      let cfg = { Campaign.default_config with Campaign.seed = 13; level; ops } in
      let t0 = Unix.gettimeofday () in
      let r = Campaign.run cfg in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%-20s %10d %12.3f %10.0f %8d%s@." (Protection.name level)
        r.Campaign.ops_run dt
        (float_of_int r.Campaign.ops_run /. dt)
        r.Campaign.ooms
        (if Campaign.passed r then "" else "  FAIL"))
    [ Protection.Unprotected; Protection.Secure_dealloc; Protection.Kernel_level;
      Protection.Integrated ]

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* per-operation setup shared across runs; allocations recycle inside the
   simulated kernel so state stays bounded *)

let bench_rsa_op level =
  let sys = System.create ~num_pages:1024 ~seed:1 ~noise:false ~level () in
  let k = System.kernel sys in
  let p = Kernel.spawn k ~name:"bench" in
  let rsa =
    Ssl.load_private_key k p ~path:System.key_path
      ~nocache:(Protection.nocache level)
      (Protection.ssl_mode_patched_app level)
  in
  let c = Bn.of_int 0xBEEF in
  Staged.stage (fun () -> ignore (Sim_rsa.private_op k p rsa c))

let bench_page_alloc ~zero =
  let mem = Memguard_vmm.Phys_mem.create ~num_pages:1024 () in
  let buddy = Memguard_vmm.Buddy.create ~zero_on_free:zero mem in
  Staged.stage (fun () ->
      match Memguard_vmm.Buddy.alloc_page buddy with
      | Some pfn -> Memguard_vmm.Buddy.free_page buddy pfn
      | None -> assert false)

let bench_ssh_connection level =
  let sys = System.create ~num_pages:2048 ~seed:2 ~noise:false ~level () in
  let srv = System.start_sshd sys in
  let rng = System.rng sys in
  Staged.stage (fun () ->
      let conn = Sshd.open_connection srv rng in
      Sshd.transfer srv conn rng ~kib:4;
      Sshd.close_connection srv conn)

let bench_apache_request level =
  let sys = System.create ~num_pages:2048 ~seed:3 ~noise:false ~level () in
  let srv = System.start_apache sys in
  let rng = System.rng sys in
  Staged.stage (fun () ->
      match Apache.open_connection srv rng with
      | Some conn ->
        Apache.serve srv conn rng ~kib:8;
        Apache.close_connection srv conn
      | None -> assert false)

let bench_key_load level =
  let sys = System.create ~num_pages:2048 ~seed:4 ~noise:false ~level () in
  let k = System.kernel sys in
  let p = Kernel.spawn k ~name:"loader" in
  let mode = Protection.ssl_mode_patched_app level in
  let nocache = Protection.nocache level in
  Staged.stage (fun () ->
      let rsa = Ssl.load_private_key k p ~path:System.key_path ~nocache mode in
      Sim_rsa.clear_free k p rsa)

let bench_scan () =
  let sys = System.create ~num_pages:2048 ~seed:5 ~level:Protection.Unprotected () in
  let patterns = System.patterns sys in
  let k = System.kernel sys in
  Staged.stage (fun () -> ignore (Scanner.scan k ~patterns))

let bench_mkdir_leak () =
  let config = { Kernel.default_config with num_pages = 256 } in
  let k = Kernel.create ~config () in
  Staged.stage (fun () ->
      ignore (Kernel.ext2_mkdir_leak k);
      Kernel.ext2_unmount k)

let bench_modpow bits =
  let rng = Prng.of_int 17 in
  let key = Rsa.generate rng ~bits in
  let c = Bn.random_below rng key.Rsa.n in
  Staged.stage (fun () -> ignore (Rsa.decrypt_raw key c))

let run_micro () =
  section "Bechamel micro-benchmarks (ns per operation, OLS fit)";
  let tests =
    Test.make_grouped ~name:"memguard"
      [ Test.make ~name:"fig8/ssh_connection/unprotected"
          (bench_ssh_connection Protection.Unprotected);
        Test.make ~name:"fig8/ssh_connection/integrated"
          (bench_ssh_connection Protection.Integrated);
        Test.make ~name:"fig19_20/apache_request/unprotected"
          (bench_apache_request Protection.Unprotected);
        Test.make ~name:"fig19_20/apache_request/integrated"
          (bench_apache_request Protection.Integrated);
        Test.make ~name:"rsa_private_op/vanilla" (bench_rsa_op Protection.Unprotected);
        Test.make ~name:"rsa_private_op/aligned" (bench_rsa_op Protection.Integrated);
        Test.make ~name:"page_alloc_free/vanilla" (bench_page_alloc ~zero:false);
        Test.make ~name:"page_alloc_free/zero_on_free" (bench_page_alloc ~zero:true);
        Test.make ~name:"key_load/vanilla" (bench_key_load Protection.Unprotected);
        Test.make ~name:"key_load/hardened_nocache" (bench_key_load Protection.Integrated);
        Test.make ~name:"scanmemory/8MiB_4patterns" (bench_scan ());
        Test.make ~name:"ext2_mkdir_leak" (bench_mkdir_leak ());
        Test.make ~name:"bn_modpow/512" (bench_modpow 512);
        Test.make ~name:"bn_modpow/1024" (bench_modpow 1024);
        Test.make ~name:"aes128_cbc/1KiB"
          (let key = String.init 16 Char.chr and iv = String.make 16 'v' in
           let plain = String.make 1024 'p' in
           Staged.stage (fun () -> ignore (Memguard_crypto.Aes.cbc_encrypt ~key ~iv plain)));
        Test.make ~name:"md5/1KiB"
          (let data = String.make 1024 'm' in
           Staged.stage (fun () -> ignore (Memguard_crypto.Md5.digest data)));
        Test.make ~name:"proto/ssh_kex_handshake"
          (let sys = System.create ~num_pages:1024 ~seed:31 ~noise:false ~level:Protection.Unprotected () in
           let kk = System.kernel sys in
           let p = Kernel.spawn kk ~name:"kex" in
           let rsa = Ssl.load_private_key kk p ~path:System.key_path Ssl.Vanilla in
           let rng = Prng.of_int 32 in
           Staged.stage (fun () ->
               let s = Memguard_proto.Ssh_kex.server_handshake rng kk p ~host_key:rsa () in
               Memguard_proto.Ssh_kex.close kk p s));
        Test.make ~name:"proto/tls_handshake"
          (let sys = System.create ~num_pages:1024 ~seed:33 ~noise:false ~level:Protection.Unprotected () in
           let kk = System.kernel sys in
           let p = Kernel.spawn kk ~name:"tls" in
           let rsa = Ssl.load_private_key kk p ~path:System.key_path Ssl.Vanilla in
           let rng = Prng.of_int 34 in
           Staged.stage (fun () ->
               let s = Memguard_proto.Tls_rsa.server_handshake rng kk p ~cert_key:rsa in
               Memguard_proto.Tls_rsa.close kk p s));
        Test.make ~name:"dsa_sign/256"
          (let rng = Prng.of_int 21 in
           let params = Memguard_crypto.Dsa.generate_params rng ~pbits:256 ~qbits:96 in
           let dkey = Memguard_crypto.Dsa.generate rng params in
           let msg = Bn.of_int 424242 in
           Staged.stage (fun () -> ignore (Memguard_crypto.Dsa.sign rng dkey msg)))
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Format.printf "%-52s %14s %8s@." "benchmark" "ns/op" "r^2";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      Format.printf "%-52s %14.1f %8.3f@." name est r2)
    (List.sort compare rows)

let () =
  let args = Array.to_list Sys.argv in
  let skip_figures = List.mem "--skip-figures" args in
  let skip_micro = List.mem "--skip-micro" args in
  let json = List.mem "--json" args in
  let chaos = List.mem "--chaos" args in
  Format.printf
    "memguard benchmark harness — Harrison & Xu, DSN'07 reproduction@.\
     (shapes, not absolute values, are the comparison target; see EXPERIMENTS.md)@.";
  if json then scan_engine_bench ()
  else if chaos then chaos_bench ()
  else begin
    if not skip_figures then begin
      figures ();
      chaos_bench ()
    end;
    if not skip_micro then run_micro ()
  end;
  Format.printf "@.done.@."
