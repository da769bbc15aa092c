(* memguard — regenerate any experiment from the paper from the command line.

   Examples:
     memguard timeline --server ssh --level unprotected
     memguard ext2 --server ssh --trials 15
     memguard tty --server http --level integrated
     memguard before-after --attack tty --server ssh
     memguard perf --server http
     memguard ablations *)

open Cmdliner
open Memguard

(* an unwritable output path is a one-line error (exit 2), not a crash *)
let write_file path content =
  try Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)
  with Sys_error msg ->
    Format.eprintf "memguard: cannot write %s@." msg;
    Stdlib.exit 2

(* ... and so is an output directory that cannot be made *)
let make_dir path =
  if not (Sys.file_exists path) then
    try Sys.mkdir path 0o755
    with Sys_error msg ->
      Format.eprintf "memguard: cannot create %s@." msg;
      Stdlib.exit 2

(* --flight: the run's archive, the one JSON form of its summary; built
   only when a path was given *)
let write_flight flight archive =
  Option.iter
    (fun path ->
      write_file path (Memguard_obs.Obs.Snapshot.to_json (archive ()));
      Format.printf "wrote flight archive to %s@." path)
    flight

let level_conv =
  let parse s =
    match Protection.of_name s with
    | Some l -> Ok l
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown level %S (expected one of: %s)" s
             (String.concat ", " (List.map Protection.name Protection.all))))
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Protection.name l))

let level_arg =
  Arg.(value & opt level_conv Protection.Unprotected
       & info [ "l"; "level" ] ~docv:"LEVEL" ~doc:"Protection level.")

let server_conv =
  let parse s =
    match s with
    | "ssh" -> Ok Experiment.Ssh
    | "http" | "apache" -> Ok Experiment.Http
    | _ -> Error (`Msg "expected 'ssh' or 'http'")
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Timeline.server_name s))

let server_arg =
  Arg.(value & opt server_conv Experiment.Ssh
       & info [ "s"; "server" ] ~docv:"SERVER" ~doc:"Target server: ssh or http.")

(* an int option whose values outside [valid] are usage errors (exit 124)
   rather than exceptions deep inside the simulator *)
let checked_int valid expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when valid n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = checked_int (fun n -> n >= 1) "a positive integer"
let non_negative_int = checked_int (fun n -> n >= 0) "a non-negative integer"

let trials_arg default =
  Arg.(value & opt positive_int default
       & info [ "trials" ] ~docv:"N" ~doc:"Trials per parameter point.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let pages_arg default =
  Arg.(value
       & opt (checked_int (fun n -> n > 0 && n land (n - 1) = 0) "a power of two") default
       & info [ "pages" ] ~docv:"N" ~doc:"Physical memory size in 4 KiB pages (power of two).")

let key_bits_arg =
  Arg.(value
       & opt (checked_int (fun n -> n >= 32 && n mod 2 = 0) "an even number >= 32") 256
       & info [ "key-bits" ] ~docv:"N" ~doc:"RSA modulus size (the paper used 1024).")

let churn_arg =
  Arg.(value & opt non_negative_int 3
       & info [ "churn" ] ~docv:"N" ~doc:"Reconnect cycles per slot per tick.")

let breach_age_arg =
  Arg.(value & opt (some non_negative_int) None
       & info [ "breach-age" ] ~docv:"TICKS"
           ~doc:"Arm the exposure SLO: emit a breach event when sensitive key bytes \
                 outside mlocked-anon memory grow older than $(docv).")

let int_list_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | l when List.for_all (function Some n -> n >= 0 | None -> false) l ->
      Ok (List.map Option.get l)
    | _ -> Error (`Msg "expected a comma-separated list of non-negative integers")
  in
  Arg.conv
    (parse, fun fmt l -> Format.pp_print_string fmt (String.concat "," (List.map string_of_int l)))

let connections_arg =
  Arg.(value & opt (some int_list_conv) None
       & info [ "connections" ] ~docv:"N,N,..." ~doc:"Connection counts to sweep.")

let directories_arg =
  Arg.(value & opt (some int_list_conv) None
       & info [ "directories" ] ~docv:"N,N,..." ~doc:"Directory counts to sweep (ext2 only).")

let timeline_cmd =
  let module Obs = Memguard_obs.Obs in
  let run level server seed pages key_bits churn trace metrics series flight =
    Format.printf "# timeline: server=%s level=%s (%s)@."
      (Timeline.server_name server)
      (Protection.name level) (Protection.describe level);
    let obs =
      if trace <> None || metrics || series <> None then
        Some (Obs.create ~ring_capacity:(1 lsl 20) ())
      else None
    in
    let recorder =
      Option.map
        (fun path snap ->
          write_file path (Obs.Snapshot.to_json snap);
          Format.printf "@.# wrote flight archive to %s@." path)
        flight
    in
    let snaps =
      Experiment.timeline ~level ~seed ~num_pages:pages ~key_bits ~churn ?obs ?recorder
        server
    in
    Format.printf "%a" Memguard_scan.Report.pp_series snaps;
    match obs with
    | None -> ()
    | Some obs ->
      Format.printf "@.# key copies by origin (provenance join)@.";
      Format.printf "%a" Memguard_scan.Report.pp_series_origins snaps;
      (match trace with
       | Some path ->
         write_file path (Obs.Trace.to_jsonl obs);
         Format.printf "@.# wrote %d trace events to %s (%d dropped by the ring)@."
           (List.length (Obs.Trace.records obs)) path (Obs.Trace.dropped obs)
       | None -> ());
      (match series with
       | Some path ->
         write_file path
           (Obs.Timeseries.to_prometheus ~labels:[ ("level", Protection.name level) ] obs);
         Format.printf "@.# wrote %d telemetry series to %s@."
           (List.length (Obs.Timeseries.names obs)) path
       | None -> ());
      if metrics then begin
        Format.printf "@.# subsystem metrics@.";
        Format.printf "%a" Obs.Metrics.dump obs
      end
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record the key-copy lifecycle trace and write it as JSON-lines to $(docv).")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect and print subsystem counters and scan-time histograms.")
  in
  (* the series' JSON form is the --flight archive's series section *)
  let prom_path =
    let parse s =
      if Filename.check_suffix s ".prom" then Ok s
      else Error (`Msg (Printf.sprintf "invalid value %S, expected a path ending in .prom" s))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let series =
    Arg.(value & opt (some prom_path) None
         & info [ "series" ] ~docv:"FILE"
             ~doc:"Write the newest sample of every telemetry series to $(docv) (must \
                   end in .prom) as Prometheus text exposition; $(b,--flight) holds every \
                   retained point as JSON.")
  in
  let flight =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Record the run's flight archive (versioned JSON snapshot of every \
                   observable: series envelopes, exposure ledger, costs, alerts, leak \
                   budgets) to $(docv) — diff two with $(b,memguard diff).")
  in
  Cmd.v
    (Cmd.info "timeline" ~doc:"Figures 5/6/9-16/21-28: key copies over the scripted t=0..29 run")
    Term.(const run $ level_arg $ server_arg $ seed_arg $ pages_arg 8192 $ key_bits_arg $ churn_arg
          $ trace $ metrics $ series $ flight)

let ext2_cmd =
  let run level server seed pages key_bits trials connections directories =
    Format.printf "# ext2 directory-leak attack sweep: server=%s level=%s@."
      (Timeline.server_name server)
      (Protection.name level);
    let pts =
      Experiment.ext2_sweep ~level ~seed ~num_pages:pages ~key_bits ~trials ?connections
        ?directories server
    in
    Format.printf "%a" Experiment.pp_sweep pts
  in
  Cmd.v
    (Cmd.info "ext2" ~doc:"Figures 1/2: copies recovered via the ext2 mkdir leak")
    Term.(const run $ level_arg $ server_arg $ seed_arg $ pages_arg 8192 $ key_bits_arg
          $ trials_arg 5 $ connections_arg $ directories_arg)

let tty_cmd =
  let run level server seed pages key_bits trials connections =
    Format.printf "# n_tty memory-dump attack sweep: server=%s level=%s@."
      (Timeline.server_name server)
      (Protection.name level);
    let pts =
      Experiment.tty_sweep ~level ~seed ~num_pages:pages ~key_bits ~trials ?connections server
    in
    Format.printf "%a" Experiment.pp_sweep pts
  in
  Cmd.v
    (Cmd.info "tty" ~doc:"Figures 3/4: copies recovered via the n_tty dump")
    Term.(const run $ level_arg $ server_arg $ seed_arg $ pages_arg 4096 $ key_bits_arg
          $ trials_arg 5 $ connections_arg)

let before_after_cmd =
  let run attack server seed trials =
    match attack with
    | `Tty ->
      Format.printf "# Figures 7/17/18: tty attack before vs after the integrated solution@.";
      List.iter
        (fun (level, pts) ->
          Format.printf "## level=%s@.%a" (Protection.name level) Experiment.pp_sweep pts)
        (Experiment.before_after_tty ~seed ~trials server)
    | `Ext2 ->
      Format.printf "# Section 5.2/6.2: ext2 attack against every level@.";
      List.iter
        (fun (level, pts) ->
          Format.printf "## level=%s@.%a" (Protection.name level) Experiment.pp_sweep pts)
        (Experiment.before_after_ext2 ~seed ~trials server)
  in
  let attack =
    Arg.(value
         & opt (enum [ ("tty", `Tty); ("ext2", `Ext2) ]) `Tty
         & info [ "attack" ] ~docv:"ATTACK" ~doc:"tty or ext2.")
  in
  Cmd.v
    (Cmd.info "before-after" ~doc:"Figures 7/17/18: attacks before vs after protection")
    Term.(const run $ attack $ server_arg $ seed_arg $ trials_arg 10)

let perf_cmd =
  let run server seed transactions concurrent =
    Format.printf "# Figures 8/19/20: stress benchmark, unprotected vs integrated@.";
    List.iter
      (fun level ->
        let p = Experiment.perf_run ~level ~seed ~transactions ~concurrent server in
        Format.printf "%-12s %a@." (Protection.name level) Experiment.pp_perf p)
      [ Protection.Unprotected; Protection.Integrated ]
  in
  let transactions =
    Arg.(value & opt positive_int 400
         & info [ "transactions" ] ~docv:"N" ~doc:"Total transactions.")
  in
  let concurrent =
    Arg.(value & opt positive_int 20
         & info [ "concurrent" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Figures 8/19/20: performance before vs after protection")
    Term.(const run $ server_arg $ seed_arg $ transactions $ concurrent)

let ablations_cmd =
  let run seed =
    Format.printf "# A1: Chow secure-dealloc vs kernel vs integrated (success rates)@.";
    Format.printf "%-16s %10s %10s@." "level" "ext2" "tty";
    List.iter
      (fun (name, ext2, tty) -> Format.printf "%-16s %9.0f%% %9.0f%%@." name (100. *. ext2) (100. *. tty))
      (Experiment.ablation_dealloc ~seed ());
    Format.printf "@.# A2: COW sharing — allocated key copies vs apache workers@.";
    Format.printf "%-8s %10s %10s@." "workers" "vanilla" "hardened";
    List.iter
      (fun (w, v, h) -> Format.printf "%-8d %10d %10d@." w v h)
      (Experiment.ablation_cow ~seed ());
    Format.printf "@.# A3: swap — key pattern hits on the swap device under pressure@.";
    List.iter (fun (name, hits) -> Format.printf "%-24s %d@." name hits)
      (Experiment.ablation_swap ~seed ());
    Format.printf "@.# A4: O_NOCACHE — PEM copies in RAM after key load@.";
    List.iter (fun (name, copies) -> Format.printf "%-24s %d@." name copies)
      (Experiment.ablation_nocache ~seed ());
    Format.printf "@.# A5: encrypted key file — passphrase/d copies in RAM@.";
    List.iter
      (fun (name, pass, d) -> Format.printf "%-28s pass=%d d=%d@." name pass d)
      (Experiment.ablation_encrypted_key ~seed ());
    Format.printf "@.# A6: core dump of the server process@.";
    List.iter
      (fun (name, copies) -> Format.printf "%-16s %d@." name copies)
      (Experiment.ablation_core_dump ~seed ());
    Format.printf "@.# A7: tty success vs disclosed fraction (integrated)@.";
    List.iter
      (fun (f, s) -> Format.printf "%.2f -> %.0f%%@." f (100. *. s))
      (Experiment.ablation_tty_fraction ~seed ())
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Design-choice ablations (A1-A4 in DESIGN.md)")
    Term.(const run $ seed_arg)

let dat_cmd =
  let run what server level seed out =
    let what_str = match what with `Timeline -> "timeline" | `Ext2 -> "ext2" | `Tty -> "tty" in
    let base =
      Printf.sprintf "%s/%s-%s-%s" out what_str (Timeline.server_name server)
        (Protection.name level)
    in
    let write path content =
      write_file path content;
      Format.printf "wrote %s@." path
    in
    make_dir out;
    (match what with
     | `Timeline ->
       let snaps = Experiment.timeline ~level ~seed server in
       let counts = Buffer.create 256 and locations = Buffer.create 256 in
       Buffer.add_string counts "# time allocated unallocated total\n";
       Buffer.add_string locations "# time phys_addr allocated(1/0)\n";
       List.iter
         (fun s ->
           Buffer.add_string counts
             (Printf.sprintf "%d %d %d %d\n" s.Memguard_scan.Report.time
                s.Memguard_scan.Report.allocated s.Memguard_scan.Report.unallocated
                s.Memguard_scan.Report.total);
           List.iter
             (fun (addr, alloc) ->
               Buffer.add_string locations
                 (Printf.sprintf "%d %d %d\n" s.Memguard_scan.Report.time addr
                    (if alloc then 1 else 0)))
             (Memguard_scan.Report.locations s))
         snaps;
       write (base ^ "-counts.dat") (Buffer.contents counts);
       write (base ^ "-locations.dat") (Buffer.contents locations)
     | `Ext2 ->
       let pts = Experiment.ext2_sweep ~level ~seed server in
       let buf = Buffer.create 256 in
       Buffer.add_string buf "# connections directories copies success\n";
       List.iter
         (fun p ->
           Buffer.add_string buf
             (Printf.sprintf "%d %d %f %f\n" p.Experiment.connections p.Experiment.directories
                p.Experiment.mean_copies p.Experiment.success_rate))
         pts;
       write (base ^ ".dat") (Buffer.contents buf)
     | `Tty ->
       let pts = Experiment.tty_sweep ~level ~seed server in
       let buf = Buffer.create 256 in
       Buffer.add_string buf "# connections copies success\n";
       List.iter
         (fun p ->
           Buffer.add_string buf
             (Printf.sprintf "%d %f %f\n" p.Experiment.connections p.Experiment.mean_copies
                p.Experiment.success_rate))
         pts;
       write (base ^ ".dat") (Buffer.contents buf))
  in
  let what =
    Arg.(value
         & opt (enum [ ("timeline", `Timeline); ("ext2", `Ext2); ("tty", `Tty) ]) `Timeline
         & info [ "what" ] ~docv:"WHAT" ~doc:"timeline, ext2 or tty.")
  in
  let out =
    Arg.(value & opt string "plots/data" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "dat" ~doc:"Export gnuplot-ready .dat files (see plots/*.gp)")
    Term.(const run $ what $ server_arg $ level_arg $ seed_arg $ out)

let levels_cmd =
  let run () =
    List.iter
      (fun l -> Format.printf "%-16s %s@." (Protection.name l) (Protection.describe l))
      Protection.all
  in
  Cmd.v (Cmd.info "levels" ~doc:"List the protection levels") Term.(const run $ const ())

let chaos_cmd =
  let module Campaign = Memguard_fault.Campaign in
  let campaign_levels =
    [ Protection.Unprotected; Protection.Secure_dealloc; Protection.Kernel_level;
      Protection.Integrated ]
  in
  let run seeds seed level ops pages swap scan_every show_log =
    let config seed level =
      { Campaign.seed; level; ops; num_pages = pages; swap_slots = swap; scan_every }
    in
    let failures = ref 0 in
    let run_one cfg =
      let r = Campaign.run cfg in
      if Campaign.passed r then Format.printf "%a@." Campaign.pp_summary r
      else begin
        incr failures;
        Format.printf "%a" Campaign.pp_failure r
      end;
      r
    in
    (match seed with
     | Some seed ->
       (* single-seed replay: same seed, same op/audit log, byte for byte *)
       let r = run_one (config seed level) in
       if show_log then List.iter print_endline r.Campaign.log
     | None ->
       Format.printf "# chaos: %d seed(s) x %d ops at %d pages (swap %d)@." seeds ops
         pages swap;
       List.iter
         (fun level ->
           for seed = 0 to seeds - 1 do
             ignore (run_one (config seed level))
           done)
         campaign_levels;
       Format.printf "# %d campaign(s), %d failure(s)@."
         (seeds * List.length campaign_levels)
         !failures);
    if !failures > 0 then Stdlib.exit 1
  in
  let seeds_arg =
    Arg.(value & opt positive_int 25
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Sweep seeds 0..N-1 across the unprotected, secure-dealloc, kernel \
                   and integrated levels.")
  in
  let one_seed_arg =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Replay a single campaign with this seed at --level (overrides --seeds).")
  in
  let ops_arg =
    Arg.(value & opt positive_int Campaign.default_config.Campaign.ops
         & info [ "ops" ] ~docv:"N" ~doc:"Operations per campaign.")
  in
  let swap_arg =
    Arg.(value & opt non_negative_int Campaign.default_config.Campaign.swap_slots
         & info [ "swap" ] ~docv:"N" ~doc:"Swap device size in pages.")
  in
  let scan_every_arg =
    Arg.(value & opt positive_int Campaign.default_config.Campaign.scan_every
         & info [ "scan-every" ] ~docv:"N"
             ~doc:"Confinement-oracle cadence (scan after every N-th op).")
  in
  let log_arg =
    Arg.(value & flag
         & info [ "log" ] ~doc:"Print the full op/audit trace (single-seed mode).")
  in
  let chaos_level_arg =
    Arg.(value & opt level_conv Protection.Integrated
         & info [ "l"; "level" ] ~docv:"LEVEL" ~doc:"Protection level (single-seed mode).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault-injection campaigns: seeded random kernel-op \
          interleavings under memory pressure, with an invariant audit and \
          confinement oracle after every op")
    Term.(const run $ seeds_arg $ one_seed_arg $ chaos_level_arg $ ops_arg
          $ pages_arg Memguard_fault.Campaign.default_config.Memguard_fault.Campaign.num_pages
          $ swap_arg $ scan_every_arg $ log_arg)

let observe_cmd =
  let module Obs = Memguard_obs.Obs in
  let run level server seed pages churn breach_age html flight prom =
    let obs = Obs.create () in
    let d =
      Dashboard.run ~obs ~level ~num_pages:pages ~seed ~churn ?breach_age ~server ()
    in
    write_flight flight (fun () -> d.Dashboard.archive);
    Format.printf "%a" Dashboard.pp_summary d;
    Format.printf "%a" Dashboard.pp_telemetry d;
    (match html with
     | Some path ->
       write_file path (Dashboard.to_html d);
       Format.printf "wrote %s@." path
     | None -> ());
    match prom with
    | Some path ->
      let labels = [ ("level", Protection.name level) ] in
      write_file path
        (Obs.Timeseries.to_prometheus ~labels obs ^ Obs.Metrics.to_prometheus ~labels obs);
      Format.printf "wrote %s@." path
    | None -> ()
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Write the self-contained HTML dashboard (inline SVG, no scripts) to $(docv).")
  in
  let flight =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Record the run's flight archive (the $(b,timeline --flight) archive \
                   plus the alert firings and, with $(b,--breach-age), that age in \
                   meta) to $(docv) — diff two with $(b,memguard diff).")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE"
             ~doc:"Write all series plus span-duration histograms as Prometheus text \
                   exposition to $(docv).")
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Exposure observatory: run the fig-5 timeline with the exposure ledger on and \
          the default alert pack armed (exposure SLO, swap pressure, constant-time \
          leakage sentinels), print the exposure summary, the per-tick series table and \
          any alert firings, and render the byte-tick dashboard (HTML, flight archive \
          and/or Prometheus)")
    Term.(const run $ level_arg $ server_arg $ seed_arg $ pages_arg 8192 $ churn_arg
          $ breach_age_arg $ html $ flight $ prom)

let overhead_cmd =
  let module Obs = Memguard_obs.Obs in
  let run seed pages flamegraph trace flame_level flight =
    let rows = Overhead.run ~num_pages:pages ~seed () in
    write_flight flight (fun () -> Overhead.snapshot rows);
    Overhead.pp Format.std_formatter rows;
    let profiled () =
      match
        List.find_opt (fun (r : Overhead.row) -> r.Overhead.level = flame_level) rows
      with
      | Some r -> r.Overhead.obs
      | None -> failwith ("overhead: no row for level " ^ Protection.name flame_level)
    in
    (match flamegraph with
     | Some path ->
       write_file path (Obs.Profiler.to_collapsed (profiled ()));
       Format.printf "@.wrote %s (collapsed stacks, %s level)@." path
         (Protection.name flame_level)
     | None -> ());
    match trace with
    | Some path ->
      write_file path (Obs.Trace.spans_to_chrome (profiled ()));
      Format.printf "@.wrote %s (chrome trace, %s level)@." path
        (Protection.name flame_level)
    | None -> ()
  in
  let flamegraph =
    Arg.(value & opt (some string) None
         & info [ "flamegraph" ] ~docv:"FILE"
             ~doc:"Write collapsed-stack (flamegraph.pl / speedscope) text for the \
                   $(b,--flame-level) run to $(docv).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the causal spans as Chrome trace_event JSON (cycle clock, one \
                   row per request trace) for the $(b,--flame-level) run to $(docv).")
  in
  let flame_level =
    Arg.(value & opt level_conv Protection.Integrated
         & info [ "flame-level" ] ~docv:"LEVEL"
             ~doc:"Which level's profile the flamegraph/trace exports read (default \
                   integrated).")
  in
  let flight =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Record the table as a scalars-only flight archive (cycles, \
                   requests, signatures and slowdown per level, cycles per \
                   subsystem) to $(docv) — the report's JSON form; diff two with \
                   $(b,memguard diff).")
  in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:
         "Countermeasure overhead report: run the fig-5 sshd timeline at the four \
          protection levels under the deterministic simulated-cycle cost model and print \
          the paper-style table (cycles per connection and signature, per-subsystem \
          breakdown, slowdown vs unprotected)")
    Term.(const run $ seed_arg $ pages_arg 4096 $ flamegraph $ trace $ flame_level $ flight)

let inspect_cmd =
  let module Obs = Memguard_obs.Obs in
  let module Introspect = Memguard_kernel.Introspect in
  let run level server seed pages tick breach_age =
    let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
    (match breach_age with Some a -> Obs.Exposure.set_breach_age obs (Some a) | None -> ());
    let sys, _ = Experiment.machine ~level ~num_pages:pages ~seed ~stop_at:tick ~obs server in
    Format.printf "# inspect: server=%s level=%s tick=%d@."
      (Timeline.server_name server)
      (Protection.name level)
      (min tick Timeline.default_schedule.Timeline.finish);
    print_string (Introspect.render (System.kernel sys))
  in
  let tick =
    Arg.(value & opt non_negative_int 11
         & info [ "t"; "tick" ] ~docv:"TICK"
             ~doc:"Run the fig-5 timeline up to $(docv) (clamped to 29), then dump the \
                   machine state.  Default 11: just after peak traffic.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "/proc-style introspection: freeze the fig-5 timeline at a tick and print \
          annotated per-process maps, buddy free lists, swap slots, page-cache residency \
          and the exposure ledger")
    Term.(const run $ level_arg $ server_arg $ seed_arg $ pages_arg 8192 $ tick
          $ breach_age_arg)

let forensics_cmd =
  let module Obs = Memguard_obs.Obs in
  let run level server seed pages churn breach_age tick hit json html spans chrome =
    let obs = Obs.create ~ring_capacity:(1 lsl 20) () in
    (match breach_age with Some a -> Obs.Exposure.set_breach_age obs (Some a) | None -> ());
    let _, snapshots = Experiment.machine ~level ~num_pages:pages ~seed ~churn ~obs server in
    (match spans with
     | Some path ->
       write_file path (Obs.Trace.spans_to_json obs);
       Format.printf "wrote %s (span tree)@." path
     | None -> ());
    (match chrome with
     | Some path ->
       write_file path (Obs.Trace.spans_to_chrome obs);
       Format.printf "wrote %s (chrome trace)@." path
     | None -> ());
    let snap =
      match tick with
      | Some t ->
        List.find_opt (fun (s : Memguard_scan.Report.snapshot) -> s.time = t) snapshots
      | None ->
        List.find_opt (fun (s : Memguard_scan.Report.snapshot) -> s.total > 0) snapshots
    in
    match snap with
    | None ->
      (match tick with
       | Some t -> Format.printf "no snapshot at tick %d@." t
       | None -> Format.printf "no scanner hits anywhere in the run; nothing to reconstruct@.");
      exit 1
    | Some snap ->
      (match Forensics.of_snapshot obs snap ~hit with
       | None ->
         Format.printf "tick %d has %d hit(s); --hit %d is out of range@." snap.time
           (List.length snap.hits) hit;
         exit 1
       | Some f ->
         print_string (Forensics.to_string f);
         (* the per-request budget table gives the hit's budget context *)
         let rows = Forensics.budget_table obs in
         Format.printf "@.per-request leak budgets (%d rows):@." (List.length rows);
         List.iter
           (fun (r : Forensics.budget_row) ->
             Format.printf "  trace %-4d %-18s pid %-4d start %-4d %d byte-ticks@."
               r.Forensics.br_trace r.Forensics.br_request r.Forensics.br_pid
               r.Forensics.br_start_tick r.Forensics.br_byte_ticks)
           rows;
         (match json with
          | Some path ->
            write_file path (Forensics.to_json f);
            Format.printf "wrote %s@." path
          | None -> ());
         (match html with
          | Some path ->
            write_file path (Forensics.to_html f);
            Format.printf "wrote %s@." path
          | None -> ()))
  in
  let tick =
    Arg.(value & opt (some non_negative_int) None
         & info [ "t"; "tick" ] ~docv:"TICK"
             ~doc:"Investigate the scan snapshot taken at $(docv).  Default: the first \
                   tick with any hits.")
  in
  let hit =
    Arg.(value & opt non_negative_int 0
         & info [ "hit" ] ~docv:"N" ~doc:"Which hit of the snapshot to reconstruct (0-based).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the forensics report as JSON to $(docv).")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE" ~doc:"Write the forensics report as HTML to $(docv).")
  in
  let spans =
    Arg.(value & opt (some string) None
         & info [ "spans" ] ~docv:"FILE"
             ~doc:"Write the full OTel-style span tree of the run as JSON to $(docv).")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Write the causal spans as Chrome trace_event JSON (load in \
                   chrome://tracing or Perfetto) to $(docv).")
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Leak forensics: run the fig-5 timeline with causal tracing on, pick a scanner \
          hit, and reconstruct its causal story — originating connection, kernel-op \
          chain that made the copy, copy fan-out with zeroed/still-live/recycled \
          verdicts, and the owning request's leak budget")
    Term.(const run $ level_arg $ server_arg $ seed_arg $ pages_arg 8192 $ churn_arg
          $ breach_age_arg $ tick $ hit $ json $ html $ spans $ chrome)

let fleet_cmd =
  let module Fleet = Memguard_fleet.Fleet in
  let run level mix shards domains pages master_seed conns churn breach_age html
      print_fingerprint inspect_shard tick flight =
    let cfg =
      { Fleet.shards;
        domains;
        level;
        mix;
        num_pages = pages;
        master_seed;
        conns_low = conns;
        conns_high = 2 * conns;
        churn;
        breach_age
      }
    in
    match inspect_shard with
    | Some shard ->
      if shard < 0 || shard >= shards then begin
        Format.eprintf "memguard fleet: shard %d out of range (fleet has %d shard%s: 0..%d)@."
          shard shards
          (if shards = 1 then "" else "s")
          (shards - 1);
        Stdlib.exit 2
      end;
      Format.printf "# fleet inspect: shard=%d tick=%d@." shard tick;
      print_string (Fleet.inspect_shard cfg ~shard ~tick)
    | None ->
      let report = Fleet.run cfg in
      write_flight flight (fun () -> Fleet.snapshot report);
      if print_fingerprint then print_endline (Fleet.fingerprint report)
      else Format.printf "%a" Fleet.pp_summary report;
      match html with
      | Some path ->
        write_file path (Fleet.to_html report);
        Format.printf "wrote %s@." path
      | None -> ()
  in
  let mix_conv =
    let parse = function
      | "ssh" -> Ok Fleet.Ssh_only
      | "http" -> Ok Fleet.Http_only
      | "mixed" -> Ok Fleet.Mixed
      | s -> Error (`Msg (Printf.sprintf "unknown mix %S (ssh, http or mixed)" s))
    in
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Fleet.mix_name m))
  in
  let mix =
    Arg.(value & opt mix_conv Fleet.Mixed
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"Workload mix: ssh, http, or mixed (even shards sshd, odd apache).")
  in
  let shards =
    Arg.(value & opt positive_int 4
         & info [ "shards" ] ~docv:"N" ~doc:"Number of independent simulated machines.")
  in
  let domains =
    Arg.(value & opt positive_int (Domain.recommended_domain_count ())
         & info [ "domains" ] ~docv:"D"
             ~doc:"Worker domains (default: recommended for this host; 1 = sequential). \
                   The merged report is byte-identical for every value.")
  in
  let master_seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Master seed; shard $(i,i) derives its own stream with tag $(i,i).")
  in
  let conns =
    Arg.(value & opt positive_int 16
         & info [ "conns-per-shard" ] ~docv:"K"
             ~doc:"Low-plateau concurrency per shard (peak is 2K); with the default churn \
                   each shard opens roughly 48K connections over the timeline.")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Write the merged fleet dashboard (self-contained HTML) to $(docv).")
  in
  let print_fingerprint =
    Arg.(value & flag
         & info [ "fingerprint" ]
             ~doc:"Print only the report's MD5 fingerprint on its own line (for the \
                   determinism guard: compare across --domains values).")
  in
  let inspect_shard =
    Arg.(value & opt (some int) None
         & info [ "inspect-shard" ] ~docv:"I"
             ~doc:"Instead of the fleet report, re-run shard $(docv) sequentially up to \
                   --tick and print its /proc-style introspection dump.")
  in
  let tick =
    Arg.(value & opt non_negative_int 11
         & info [ "t"; "tick" ] ~docv:"TICK"
             ~doc:"Tick at which --inspect-shard freezes the shard (clamped to 29).")
  in
  let flight =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Record the merged fleet's flight archive (per-shard rollups, merged \
                   series, exposure, budgets; meta carries the fingerprint) to $(docv).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale simulation: run N independent machines (each with its own kernel, \
          RAM, key, PRNG stream and exposure ledger) in parallel on OCaml 5 domains and \
          deterministically merge their ledgers, snapshots and cycle counts into one \
          aggregate report")
    Term.(const run $ level_arg $ mix $ shards $ domains $ pages_arg 2048 $ master_seed
          $ conns $ churn_arg $ breach_age_arg $ html $ print_fingerprint
          $ inspect_shard $ tick $ flight)

let diff_cmd =
  let module Obs = Memguard_obs.Obs in
  let read_archive path =
    match Obs.Snapshot.read path with
    | Ok s -> s
    | Error msg ->
      Format.eprintf "memguard diff: %s: %s@." path msg;
      Stdlib.exit 2
  in
  (* Trajectory mode: A is a directory → sparkline every observable over
     its *.json archives in name order. *)
  let trajectory dir html =
    let files =
      List.sort compare
        (List.filter
           (fun f -> Filename.check_suffix f ".json")
           (Array.to_list (Sys.readdir dir)))
    in
    if files = [] then begin
      Format.eprintf "memguard diff: no *.json archives in %s@." dir;
      Stdlib.exit 2
    end;
    let runs =
      List.map
        (fun f -> (Filename.remove_extension f, read_archive (Filename.concat dir f)))
        files
    in
    Format.printf "# trajectory over %d archives in %s@." (List.length runs) dir;
    List.iteri
      (fun i (name, (s : Obs.Snapshot.t)) ->
        Format.printf "%4d  %-40s %s@." i name s.Obs.Snapshot.ar_kind)
      runs;
    match html with
    | Some path ->
      write_file path (Dashboard.trajectory_html runs);
      Format.printf "wrote %s@." path
    | None ->
      Format.printf "(pass --html FILE for the sparkline-over-runs view)@."
  in
  let run a b json html fail_on =
    match b with
    | None -> (
      match Sys.is_directory a with
      | true -> trajectory a html
      | false ->
        Format.eprintf
          "memguard diff: need two archives (or a directory of archives for the \
           trajectory view)@.";
        Stdlib.exit 2
      | exception Sys_error msg ->
        Format.eprintf "memguard diff: %s@." msg;
        Stdlib.exit 2)
    | Some b ->
      let base = read_archive a and cur = read_archive b in
      let d = Obs.Diff.diff base cur in
      Obs.Diff.pp Format.std_formatter d;
      (match json with
       | Some path ->
         write_file path (Obs.Diff.to_json d);
         Format.printf "wrote %s@." path
       | None -> ());
      (match html with
       | Some path ->
         write_file path
           (Dashboard.diff_html ~base_name:a ~cur_name:b base cur d);
         Format.printf "wrote %s@." path
       | None -> ());
      (match fail_on with
       | `None -> ()
       | `Regression ->
         if Obs.Diff.hard_regressions d > 0 then Stdlib.exit 1
       | `Any ->
         if List.exists
              (fun (dl : Obs.Diff.delta) -> dl.Obs.Diff.d_verdict <> Obs.Diff.Neutral)
              d.Obs.Diff.deltas
         then Stdlib.exit 1)
  in
  let a =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BASE"
             ~doc:"Base flight archive — or a directory of archives for the trajectory \
                   view.")
  in
  let b =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"CURRENT" ~doc:"Current flight archive to compare against BASE.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the delta report as JSON to $(docv).")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Write the side-by-side dashboard (delta table + paired sparklines; \
                   trajectory view in directory mode) to $(docv).")
  in
  let fail_on =
    Arg.(value
         & opt (enum [ ("none", `None); ("regression", `Regression); ("any", `Any) ]) `None
         & info [ "fail-on" ] ~docv:"WHAT"
             ~doc:"Exit 1 on $(b,regression) (any hard delta — a changed deterministic \
                   value, grown exposure, or a vanished simulated key) or on $(b,any) \
                   non-neutral delta.  Default $(b,none): always exit 0 on a successful \
                   comparison.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differential run observatory: align two flight archives (recorded with \
          --flight) by observable, classify every delta as \
          improvement/regression/neutral per metric family (deterministic exact, \
          wall-clock 10% tolerant and warn-only, exposure byte-ticks hard), and render \
          text/JSON/HTML reports — or, given a directory, the trajectory of every \
          observable across its archives")
    Term.(const run $ a $ b $ json $ html $ fail_on)

let main =
  Cmd.group
    (Cmd.info "memguard" ~version:"1.0.0"
       ~doc:
         "Reproduction of Harrison & Xu, 'Protecting Cryptographic Keys from Memory \
          Disclosure Attacks' (DSN'07)")
    [ timeline_cmd; ext2_cmd; tty_cmd; before_after_cmd; perf_cmd; ablations_cmd; dat_cmd;
      levels_cmd; chaos_cmd; observe_cmd; overhead_cmd; inspect_cmd;
      forensics_cmd; fleet_cmd; diff_cmd ]

let () = Stdlib.exit (Cmd.eval main)
