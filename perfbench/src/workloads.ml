(* The benchmark's workloads.  Every pass of a run repeats the same simulated
   work (inputs derived once from the workload seed), so host times are
   medians over identical passes and every simulated count must repeat
   exactly from pass to pass.  Each workload's reasons are in
   BENCHMARK.json. *)

open Memguard
module Obs = Memguard_obs.Obs
module Prng = Memguard_util.Prng

type check = string * bool

(* What a pass leaves behind: every machine is summarised (untimed) as it
   finishes and then let go, so a pass holds one machine at a time, as the
   library's own runs do. *)
type pass_result = {
  checks : check list;
  counts : (string * float) list;  (** simulated work of this pass; repeats exactly *)
  parts_s : (string * float) list;  (** host seconds of named parts of the pass *)
}

type t = {
  name : string;
  setup : unit -> unit;
      (** reference runs through the library's own entry points, before
          timing; every pass's outputs are compared with them *)
  pass : Drive.probe -> pass_result;  (** the timed work *)
  side : (unit -> (string * float) list * check list) option;
      (** extra comparison run after each pass of a traced run *)
}

let seeds seed n =
  let r = Prng.of_int seed in
  List.init n (fun _ -> 1 + Prng.int r 1_000_000)

let fi = float_of_int

(* Scan-cache work of the pass's machines: pages skipped and pages swept. *)
let scan_counts machines =
  let clean, swept =
    List.fold_left
      (fun (c, s) sys ->
        match System.scan_stats sys with
        | Some st ->
          ( c + st.Memguard_scan.Scan_cache.total_clean_pages,
            s + st.Memguard_scan.Scan_cache.total_pages_scanned )
        | None -> (c, s))
      (0, 0) machines
  in
  [ ("scan_cache.clean_pages", fi clean); ("scan_cache.pages_swept", fi swept) ]

(* Key-wise sum of count lists that share their keys, in the first's order. *)
let sum_counts = function
  | [] -> []
  | first :: _ as lists ->
    List.map
      (fun (k, _) -> (k, List.fold_left (fun acc l -> acc +. List.assoc k l) 0. lists))
      first

let copy_counts snaps = List.map (fun sn -> sn.Memguard_scan.Report.total) snaps

(* ---- timeline ---- *)

let timeline_pages = 8192

let timeline seed =
  let servers =
    List.map2
      (fun (key, server, exp_server) s -> (key, server, exp_server, s))
      [ ("ssh", Timeline.Ssh, Experiment.Ssh); ("http", Timeline.Http, Experiment.Http) ]
      (seeds seed 2)
  in
  let reference = Hashtbl.create 2 in
  let setup () =
    List.iter
      (fun (key, _, exp_server, s) ->
        Hashtbl.replace reference key (Experiment.timeline ~num_pages:timeline_pages ~seed:s exp_server))
      servers
  in
  let pass p =
    let runs =
      List.map
        (fun (key, server, _, s) ->
          let sys =
            Drive.boot p ~key (fun () ->
                System.create ~num_pages:timeline_pages ~seed:s ~level:Protection.Unprotected
                  ~scan_mode:System.Incremental ())
          in
          let snaps = Drive.timeline p sys server in
          Drive.untimed p (fun () ->
              ( ("timeline." ^ key ^ ".snapshots_match_experiment", snaps = Hashtbl.find reference key),
                scan_counts [ sys ] )))
        servers
    in
    { checks = List.map fst runs; counts = sum_counts (List.map snd runs); parts_s = [] }
  in
  { name = "timeline"; setup; pass; side = None }

(* ---- overhead ---- *)

let overhead_pages = 4096

let sensitive_unsafe obs =
  List.fold_left
    (fun acc ((origin, cls), v) ->
      if Obs.origin_sensitive origin && cls <> Obs.Mlocked_anon then acc + v else acc)
    0 (Obs.Exposure.totals obs)

let op_count obs op =
  List.fold_left (fun acc (o, n, _) -> if o = op then acc + n else acc) 0 (Obs.Cost.by_op obs)

let cost_subsystems = [ "bignum"; "kernel"; "page_cache"; "scan"; "vmm"; "swap" ]

(* Work counts of one level's obs context. *)
let obs_counts obs =
  let c name = fi (Obs.Metrics.counter obs name) in
  let sub s = fi (Option.value (List.assoc_opt s (Obs.Cost.by_subsystem obs)) ~default:0) in
  [ ("buddy.alloc_pages", c "buddy.alloc_pages");
    ("buddy.free_pages", c "buddy.free_pages");
    ("buddy.zero_on_free_bytes", c "buddy.zero_on_free_bytes");
    ("kernel.cow_faults", c "kernel.cow_faults");
    ("kernel.page_faults", fi (op_count obs Obs.Cost.Page_fault));
    ("page_cache.inserts", c "page_cache.inserts");
    ("page_cache.hits", fi (op_count obs Obs.Cost.Page_cache_hit));
    ("page_cache.misses", fi (op_count obs Obs.Cost.Page_cache_miss));
    ("sim_rsa.private_ops", c "rsa.private_ops");
    ("obs.events_emitted", fi (Obs.Trace.emitted obs));
    ("obs.events_dropped", fi (Obs.Trace.dropped obs));
    ("obs.spans", fi (List.length (Obs.Trace.spans obs)));
    ( "obs.series_samples",
      fi
        (List.fold_left
           (fun acc n -> acc + Obs.Timeseries.sample_count obs n)
           0 (Obs.Timeseries.names obs)) );
    ("obs.provenance_intervals", fi (Obs.Provenance.count obs));
    ("sim.cycles", fi (Obs.Cost.total_cycles obs));
    ("sim.unsafe_byte_ticks", fi (sensitive_unsafe obs)) ]
  @ List.map (fun s -> ("cost.cycles." ^ s, sub s)) cost_subsystems

let level_slug level = String.map (function '-' -> '_' | c -> c) (Protection.name level)

(* What the benchmark keeps of one level's machine on [overhead]. *)
type level_summary = {
  cycles : int;
  matches : bool;  (** the level's [Overhead.row] fields agree with [Overhead.run]'s *)
  unsafe : int;  (** sensitive byte-ticks outside mlocked anon *)
  level_counts : (string * float) list;
}

let overhead seed =
  let s = List.hd (seeds seed 1) in
  (* the fields of an [Overhead.row] the benchmark compares *)
  let row_of level obs =
    ( level,
      Obs.Cost.total_cycles obs,
      Obs.Metrics.counter obs "sshd.connections",
      Obs.Metrics.counter obs "rsa.private_ops",
      Obs.Cost.by_subsystem obs )
  in
  (* one level's sshd timeline; returns its host seconds and what
     [summarise] (untimed) makes of the machine *)
  let run_level p level summarise =
    let t0 = Unix.gettimeofday () in
    let obs = Obs.create () in
    let sys =
      Drive.boot p ~key:(Protection.name level) (fun () ->
          System.create ~num_pages:overhead_pages ~seed:s ~key_bits:256
            ~scan_mode:System.Incremental ~obs ~level ())
    in
    let snaps = Drive.timeline p ~sshd_opts:(Overhead.sshd_opts_for level) sys Timeline.Ssh in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Drive.untimed p (fun () -> summarise obs sys snaps))
  in
  let reference = ref [] in
  let setup () =
    reference :=
      List.map
        (fun r ->
          Overhead.(r.level, r.cycles, r.requests, r.signatures, r.by_subsystem))
        (Overhead.run ~num_pages:overhead_pages ~seed:s ())
  in
  (* copy counts of the latest pass's Unprotected level, for [side] *)
  let unprotected_copies = ref [] in
  let pass p =
    let parts_s, runs =
      List.split
        (List.map2
           (fun level r ->
             let dt, summary =
               run_level p level (fun obs sys snaps ->
                   if level = Protection.Unprotected then unprotected_copies := copy_counts snaps;
                   { cycles = Obs.Cost.total_cycles obs;
                     matches = row_of level obs = r;
                     unsafe = sensitive_unsafe obs;
                     level_counts = obs_counts obs @ scan_counts [ sys ] })
             in
             ((level_slug level, dt), summary))
           Overhead.default_levels !reference)
    in
    let cycles = List.map (fun l -> l.cycles) runs in
    { checks =
        [ ("overhead.rows_match_overhead_run", List.for_all (fun l -> l.matches) runs);
          ( "overhead.cycles_order_integrated>kernel>library>unprotected",
            match cycles with [ u; l; k; i ] -> i > k && k > l && l > u | _ -> false );
          ("overhead.integrated_unsafe_byte_ticks_zero", (List.nth runs 3).unsafe = 0) ];
      counts =
        sum_counts (List.map (fun l -> l.level_counts) runs)
        @ [ ("sim.slowdown_integrated", fi (List.nth cycles 3) /. fi (max 1 (List.hd cycles))) ];
      parts_s
    }
  in
  (* obs off against obs on: the Unprotected level once with Obs.null and
     once with obs, each from a collected heap.  The obs-off snapshots must
     carry the same copy counts as the pass's (obs only observes). *)
  let side () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let sys =
      System.create ~num_pages:overhead_pages ~seed:s ~key_bits:256 ~scan_mode:System.Incremental
        ~level:Protection.Unprotected ()
    in
    let snaps =
      Drive.timeline (Drive.probe (-1)) ~sshd_opts:(Overhead.sshd_opts_for Protection.Unprotected)
        sys Timeline.Ssh
    in
    let off = Unix.gettimeofday () -. t0 in
    Gc.full_major ();
    let on, () = run_level (Drive.probe (-1)) Protection.Unprotected (fun _ _ _ -> ()) in
    ( [ ("unprotected_obs_off", off); ("unprotected_obs_on", on) ],
      [ ("overhead.obs_off_copies_match_obs_on", copy_counts snaps = !unprotected_copies) ] )
  in
  { name = "overhead"; setup; pass; side = Some side }

(* ---- attack ---- *)

let attack_pages = 4096
let ext2 = Drive.Ext2 { connections = 100; directories = 2000 }
let tty = Drive.Tty { connections = 60 }

(* distinct machines per (server, attack) cell, so a pass averages over
   several keys and boot layouts rather than riding on one *)
let trials_per_cell = 5

let attack seed =
  let cells =
    List.concat_map
      (fun (server, exp_server, sname) ->
        [ (server, exp_server, sname, ext2, "ext2"); (server, exp_server, sname, tty, "tty") ])
      [ (Timeline.Ssh, Experiment.Ssh, "ssh"); (Timeline.Http, Experiment.Http, "http") ]
  in
  let all_seeds = Array.of_list (seeds seed (List.length cells * trials_per_cell)) in
  (* (server, its Experiment twin, server name, trial name, attack, attack name, seed) *)
  let trials =
    List.concat
      (List.mapi
         (fun ci (server, exp_server, sname, atk, aname) ->
           List.init trials_per_cell (fun k ->
               ( server, exp_server, sname, Printf.sprintf "%s.%s%d" sname aname k, atk, aname,
                 all_seeds.((ci * trials_per_cell) + k) )))
         cells)
  in
  let levels = [ Protection.Unprotected; Protection.Integrated ] in
  let key level trial = level_slug level ^ "." ^ trial in
  let reference = Hashtbl.create 64 in
  let setup () =
    List.iter
      (fun level ->
        List.iter
          (fun (_, exp_server, _, trial, atk, _, s) ->
            let point =
              match atk with
              | Drive.Ext2 { connections; directories } ->
                Experiment.ext2_sweep ~level ~trials:1 ~num_pages:attack_pages ~seed:s
                  ~connections:[ connections ] ~directories:[ directories ] exp_server
              | Drive.Tty { connections } ->
                Experiment.tty_sweep ~level ~trials:1 ~num_pages:attack_pages ~seed:s
                  ~connections:[ connections ] exp_server
            in
            Hashtbl.replace reference (key level trial)
              (int_of_float (List.hd point).Experiment.mean_copies))
          trials)
      levels
  in
  (* the paper's claims on these inputs: unprotected machines leak the key,
     and the Integrated solution leaves nothing for the ext2 leak *)
  let expectation (level, aname, k, copies) =
    match level with
    | Protection.Unprotected -> Some ("attack." ^ k ^ ".recovers_a_copy", copies >= 1)
    | Protection.Integrated when aname = "ext2" ->
      Some ("attack." ^ k ^ ".recovers_nothing", copies = 0)
    | _ -> None
  in
  let pass p =
    let results =
      List.concat_map
        (fun level ->
          List.map
            (fun (server, _, sname, trial, atk, aname, s) ->
              let k = key level trial in
              ( level, aname, k,
                Drive.attack_trial p ~key:k ~cohort:(key level sname) ~level ~num_pages:attack_pages
                  ~seed:s server atk ))
            trials)
        levels
    in
    { checks =
        List.map
          (fun (_, _, k, copies) ->
            ("attack." ^ k ^ ".copies_match_experiment", copies = Hashtbl.find reference k))
          results
        @ List.filter_map expectation results;
      counts = List.map (fun (_, _, k, copies) -> ("attack." ^ k ^ ".copies", fi copies)) results;
      parts_s = []
    }
  in
  { name = "attack"; setup; pass; side = None }

let all = [ ("timeline", timeline); ("overhead", overhead); ("attack", attack) ]
