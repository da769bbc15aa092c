module Obs = Memguard_obs.Obs
module Report = Memguard_scan.Report
module Prng = Memguard_util.Prng
module Introspect = Memguard_kernel.Introspect
open Memguard

type mix = Ssh_only | Http_only | Mixed

type config = {
  shards : int;
  domains : int;
  level : Protection.level;
  mix : mix;
  num_pages : int;
  master_seed : int;
  conns_low : int;
  conns_high : int;
  churn : int;
  breach_age : int option;
}

let default =
  { shards = 4;
    domains = Domain.recommended_domain_count ();
    level = Protection.Unprotected;
    mix = Mixed;
    num_pages = 2048;
    master_seed = 1;
    conns_low = 16;
    conns_high = 32;
    churn = 3;
    breach_age = None
  }

type event = {
  tick : int;
  shard_id : int;
  seq : int;
  label : string;
  value : int;
}

type shard_result = {
  shard_id : int;
  dash : Dashboard.t;
  events : event list;
  connections : int;
  requests : int;
  pages_swept : int;
  sweeps : int;
}

(* wall-clock throughput of one worker domain: everything here depends on
   the host machine and the scheduler, so it must never reach [canonical]
   (the fingerprint would stop being a pure function of the config) *)
type domain_stat = {
  domain : int;
  shards_run : int list;
  d_pages_swept : int;
  d_sweeps : int;
  d_sweep_cycles : int;
  wall_s : float;
}

type report = {
  config : config;
  shard_results : shard_result list;
  merged_events : event list;
  total_connections : int;
  total_requests : int;
  total_cycles : int;
  sensitive_unsafe : int;
  domain_stats : domain_stat list;
}

let mix_name = function Ssh_only -> "ssh" | Http_only -> "http" | Mixed -> "mixed"

let server_of cfg shard_id =
  match cfg.mix with
  | Ssh_only -> Timeline.Ssh
  | Http_only -> Timeline.Http
  | Mixed -> if shard_id land 1 = 0 then Timeline.Ssh else Timeline.Http

let derive_rng cfg shard_id = Prng.derive (Prng.of_int cfg.master_seed) ~tag:shard_id

(* ---- one shard ---- *)

let run_shard cfg shard_id =
  let obs = Obs.create () in
  let dash =
    Dashboard.run ~obs ~level:cfg.level ~num_pages:cfg.num_pages
      ~rng:(derive_rng cfg shard_id) ~churn:cfg.churn
      ~low:cfg.conns_low ~high:cfg.conns_high ?breach_age:cfg.breach_age
      ~server:(server_of cfg shard_id) ()
  in
  let counter name = Option.value (List.assoc_opt name dash.Dashboard.counters) ~default:0 in
  let events =
    List.filter_map
      (fun (r : Obs.record) ->
        match r.Obs.event with
        | Obs.Scan_finished { hits; _ } ->
          Some { tick = r.Obs.tick; shard_id; seq = r.Obs.seq; label = "scan.hits"; value = hits }
        | Obs.Exposure_breach { len; _ } ->
          Some { tick = r.Obs.tick; shard_id; seq = r.Obs.seq; label = "breach.len"; value = len }
        | _ -> None)
      (Obs.Trace.records obs)
  in
  { shard_id;
    dash;
    events;
    connections = counter "sshd.connections" + counter "apache.connections";
    requests = counter "sshd.requests" + counter "apache.requests";
    pages_swept = counter "scan.pages_swept";
    sweeps = counter "scan.runs"
  }

(* ---- merge helpers: shard order is the merge order, so every fold below
   is deterministic regardless of which domain ran which shard ---- *)

let merge_assoc lists =
  let tbl = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some r -> r := !r + v
         | None -> Hashtbl.replace tbl k (ref v)))
    lists;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare

let merge_series ds =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (d : Dashboard.t) ->
      List.iter
        (fun (t, totals) ->
          let cur = match Hashtbl.find_opt tbl t with Some l -> l | None -> [] in
          Hashtbl.replace tbl t (totals :: cur))
        d.Dashboard.series)
    ds;
  Hashtbl.fold (fun t ls acc -> (t, merge_assoc ls) :: acc) tbl []
  |> List.sort compare

let merge_snapshots ds =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (d : Dashboard.t) ->
      List.iter
        (fun (sn : Report.snapshot) ->
          let tot, al, un =
            match Hashtbl.find_opt tbl sn.Report.time with
            | Some (a, b, c) -> (a, b, c)
            | None -> (0, 0, 0)
          in
          Hashtbl.replace tbl sn.Report.time
            (tot + sn.Report.total, al + sn.Report.allocated, un + sn.Report.unallocated))
        d.Dashboard.snapshots)
    ds;
  Hashtbl.fold
    (fun time (total, allocated, unallocated) acc ->
      { Report.time; total; allocated; unallocated; hits = []; annotated = [] } :: acc)
    tbl []
  |> List.sort (fun (a : Report.snapshot) b -> compare a.Report.time b.Report.time)

(* origins no shard destroyed a copy of are dropped, as [Dashboard.run]
   drops them: an empty list has no percentiles to render *)
let merge_lifetimes ds =
  List.filter_map
    (fun o ->
      match
        List.concat_map
          (fun (d : Dashboard.t) -> try List.assoc o d.Dashboard.lifetimes with Not_found -> [])
          ds
      with
      | [] -> None
      | ls -> Some (o, ls))
    Obs.all_origins

(* Merge telemetry shard-wise: all shards sample on the same tick grid, so
   per series we sum values at equal ticks (gauges become fleet-wide
   totals, counters fleet-wide integrals).  Kind comes from the first
   shard carrying the series; stride is the coarsest seen; sample counts
   add up.  The fold order is the shard order, never the domain
   schedule — the merged list is deterministic. *)
let merge_metrics ds =
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun (d : Dashboard.t) -> List.map (fun m -> m.Dashboard.ms_name) d.Dashboard.metrics)
         ds)
  in
  List.map
    (fun name ->
      let inst =
        List.filter_map
          (fun (d : Dashboard.t) ->
            List.find_opt (fun m -> m.Dashboard.ms_name = name) d.Dashboard.metrics)
          ds
      in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun m ->
          List.iter
            (fun (tick, v) ->
              let cur = Option.value (Hashtbl.find_opt tbl tick) ~default:0. in
              Hashtbl.replace tbl tick (cur +. v))
            m.Dashboard.ms_points)
        inst;
      let points =
        Hashtbl.fold (fun tick v acc -> (tick, v) :: acc) tbl [] |> List.sort compare
      in
      { Dashboard.ms_name = name;
        ms_kind =
          (match inst with m :: _ -> m.Dashboard.ms_kind | [] -> "gauge");
        ms_stride =
          List.fold_left (fun acc m -> max acc m.Dashboard.ms_stride) 1 inst;
        ms_samples =
          List.fold_left (fun acc m -> acc + m.Dashboard.ms_samples) 0 inst;
        ms_points = points
      })
    names

(* firings ordered by (tick, shard, rule): chronological, shard-stable *)
let merge_alerts shards =
  List.concat_map
    (fun s -> List.map (fun a -> (s.shard_id, a)) s.dash.Dashboard.alerts)
    shards
  |> List.sort (fun (sa, (a : Dashboard.alert_firing)) (sb, b) ->
         compare (a.Dashboard.fired_tick, sa, a.Dashboard.rule)
           (b.Dashboard.fired_tick, sb, b.Dashboard.rule))

(* per-request leak budgets, merged by (root start tick, shard, trace):
   the key is simulated state only, so the merged table is deterministic
   regardless of which domain ran which shard *)
let merge_budgets shards =
  List.concat_map
    (fun s -> List.map (fun b -> (s.shard_id, b)) s.dash.Dashboard.budgets)
    shards
  |> List.sort (fun (sa, (a : Forensics.budget_row)) (sb, b) ->
         compare
           (a.Forensics.br_start_tick, sa, a.Forensics.br_trace)
           (b.Forensics.br_start_tick, sb, b.Forensics.br_trace))

(* ---- parallel execution ---- *)

let run_sharded cfg =
  let n = max 1 cfg.shards in
  let workers = max 1 (min cfg.domains n) in
  let results = Array.make n None in
  (* per-domain throughput accounting: which shards each worker ran and
     how long it took.  Wall-clock and scheduling-dependent by nature, so
     it is reported alongside — never inside — the fingerprinted value. *)
  let ran = Array.make workers [] in
  let walls = Array.make workers 0. in
  (* work-stealing over shard ids: assignment of shard to domain is
     scheduling-dependent, but each cell is written exactly once with a
     value that depends only on (cfg, i), so the merged result is not *)
  let next = Atomic.make 0 in
  let worker w () =
    let t0 = Unix.gettimeofday () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (run_shard cfg i);
        ran.(w) <- i :: ran.(w);
        loop ()
      end
    in
    loop ();
    walls.(w) <- Unix.gettimeofday () -. t0
  in
  (* worker 0 is the calling domain; with one worker nothing is spawned *)
  let domains = List.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  let shard_results =
    Array.to_list results
    |> List.map (function Some r -> r | None -> assert false)
  in
  let domain_stats =
    List.init workers (fun w ->
        let shards_run = List.sort compare ran.(w) in
        let of_shards f =
          List.fold_left (fun acc i -> acc + f (List.nth shard_results i)) 0 shards_run
        in
        { domain = w;
          shards_run;
          d_pages_swept = of_shards (fun s -> s.pages_swept);
          d_sweeps = of_shards (fun s -> s.sweeps);
          d_sweep_cycles =
            of_shards (fun s ->
                Option.value
                  (List.assoc_opt "scan" s.dash.Dashboard.cycles_by_subsystem)
                  ~default:0);
          wall_s = walls.(w)
        })
  in
  let merged_events =
    List.concat_map (fun s -> s.events) shard_results
    |> List.sort (fun a b -> compare (a.tick, a.shard_id, a.seq) (b.tick, b.shard_id, b.seq))
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shard_results in
  { config = cfg;
    shard_results;
    merged_events;
    total_connections = sum (fun s -> s.connections);
    total_requests = sum (fun s -> s.requests);
    total_cycles = sum (fun s -> s.dash.Dashboard.cycles);
    sensitive_unsafe = sum (fun s -> Dashboard.sensitive_unsafe_total s.dash);
    domain_stats
  }

(* ---- dashboard projection ---- *)

let dashboard r =
  let ds = List.map (fun s -> s.dash) r.shard_results in
  let merged field = merge_assoc (List.map field ds) in
  { Dashboard.level = r.config.level;
    server =
      (match r.config.mix with Http_only -> Timeline.Http | _ -> Timeline.Ssh);
    seed = r.config.master_seed;
    num_pages = r.config.num_pages * r.config.shards;
    breach_age = r.config.breach_age;
    snapshots = merge_snapshots ds;
    series = merge_series ds;
    totals = merged (fun d -> d.Dashboard.totals);
    lifetimes = merge_lifetimes ds;
    breaches =
      List.concat_map (fun (d : Dashboard.t) -> d.Dashboard.breaches) ds
      |> List.sort (fun (a : Dashboard.breach) b ->
             compare (a.Dashboard.tick, a.Dashboard.pid, a.Dashboard.addr)
               (b.Dashboard.tick, b.Dashboard.pid, b.Dashboard.addr));
    counters = merged (fun d -> d.Dashboard.counters);
    cycles = r.total_cycles;
    cycles_by_subsystem = merged (fun d -> d.Dashboard.cycles_by_subsystem);
    metrics = merge_metrics ds;
    (* every shard installs the same default pack *)
    alert_rules = (match ds with d :: _ -> d.Dashboard.alert_rules | [] -> []);
    alerts = List.map snd (merge_alerts r.shard_results);
    budgets = List.map snd (merge_budgets r.shard_results)
  }

let inspect_shard cfg ~shard ~tick =
  if shard < 0 || shard >= cfg.shards then invalid_arg "Fleet.inspect_shard: bad shard id";
  let sys, _ =
    Experiment.machine ~level:cfg.level ~num_pages:cfg.num_pages ~rng:(derive_rng cfg shard)
      ~churn:cfg.churn ~low:cfg.conns_low ~high:cfg.conns_high ~stop_at:tick
      ~obs:(Obs.create ()) (server_of cfg shard)
  in
  Introspect.render (System.kernel sys)

(* ---- rendering ---- *)

let final_copies (d : Dashboard.t) =
  match List.rev d.Dashboard.snapshots with last :: _ -> last.Report.total | [] -> 0

let hits_json (s : Report.snapshot) =
  let open Obs.Json in
  Obj
    [ ("tick", Int s.Report.time); ("total", Int s.Report.total);
      ("allocated", Int s.Report.allocated); ("unallocated", Int s.Report.unallocated) ]

let bucket_json ((o, c), v) =
  let open Obs.Json in
  Obj
    [ ("origin", Str (Obs.origin_name o)); ("class", Str (Obs.class_name c));
      ("byte_ticks", Int v) ]

let metric_json (m : Dashboard.metric_series) =
  let open Obs.Json in
  Obj
    [ ("name", Str m.Dashboard.ms_name); ("kind", Str m.Dashboard.ms_kind);
      ("stride", Int m.Dashboard.ms_stride); ("samples", Int m.Dashboard.ms_samples);
      ("points", list (fun (tick, v) -> Arr [ Int tick; Num v ]) m.Dashboard.ms_points) ]

(* The fingerprint's input, printed in the [Fleet] layout, which exists
   for it alone.  Members, order and layout are frozen: any change moves
   every pinned digest.  Sorted lists, fixed number forms, and no
   [domains] field — how many domains executed the fleet is a property
   of the run, not of the simulated result, and the fingerprint must not
   see it. *)
let canonical r =
  let d = dashboard r in
  let c = r.config in
  let open Obs.Json in
  Obj
    [ ( "config",
        Obj
          [ ("shards", Int c.shards); ("level", Str (Protection.name c.level));
            ("mix", Str (mix_name c.mix)); ("num_pages", Int c.num_pages);
            ("master_seed", Int c.master_seed); ("conns_low", Int c.conns_low);
            ("conns_high", Int c.conns_high); ("churn", Int c.churn);
            ("scan_mode", Str (System.mode_name System.Incremental)) ] );
      ("total_connections", Int r.total_connections);
      ("total_requests", Int r.total_requests);
      ("total_cycles", Int r.total_cycles);
      ("sensitive_unsafe", Int r.sensitive_unsafe);
      ( "shards",
        list
          (fun s ->
            Obj
              [ ("shard_id", Int s.shard_id);
                ("server", Str (Timeline.server_name s.dash.Dashboard.server));
                ("connections", Int s.connections); ("requests", Int s.requests);
                ("cycles", Int s.dash.Dashboard.cycles);
                ("sensitive_unsafe", Int (Dashboard.sensitive_unsafe_total s.dash));
                ("final_copies", Int (final_copies s.dash));
                ("breaches", Int (List.length s.dash.Dashboard.breaches)) ])
          r.shard_results );
      ("merged_totals", list bucket_json d.Dashboard.totals);
      ( "merged_counters",
        list
          (fun (k, v) -> Obj [ ("name", Str k); ("value", Int v) ])
          d.Dashboard.counters );
      ("timeseries", list metric_json d.Dashboard.metrics);
      ( "alerts",
        list
          (fun (shard, (a : Dashboard.alert_firing)) ->
            Obj
              [ ("tick", Int a.Dashboard.fired_tick); ("shard", Int shard);
                ("rule", Str a.Dashboard.rule); ("series", Str a.Dashboard.rule_series);
                ("value", Num a.Dashboard.value) ])
          (merge_alerts r.shard_results) );
      ( "leak_budgets",
        list
          (fun (shard, (b : Forensics.budget_row)) ->
            Obj
              [ ("tick", Int b.Forensics.br_start_tick); ("shard", Int shard);
                ("trace", Int b.Forensics.br_trace);
                ("request", Str b.Forensics.br_request);
                ("pid", Int b.Forensics.br_pid);
                ("byte_ticks", Int b.Forensics.br_byte_ticks) ])
          (merge_budgets r.shard_results) );
      ("copies_by_tick", list hits_json d.Dashboard.snapshots);
      ( "events",
        list
          (fun e ->
            Obj
              [ ("tick", Int e.tick); ("shard", Int e.shard_id); ("seq", Int e.seq);
                ("label", Str e.label); ("value", Int e.value) ])
          r.merged_events ) ]

let fingerprint r =
  Digest.to_hex (Digest.string (Obs.Json.to_string Fleet (canonical r) ^ "\n"))

(* Flight archive of a fleet report.  Everything comes from the merged
   (domain-invariant) views, and the meta block deliberately excludes the
   domain count — like [canonical], the archive is a pure function of the
   config, so two runs of the same config diff to zero deltas whatever
   parallelism executed them.  The fingerprint itself rides along in meta:
   any drift the flattened scalars might miss still surfaces there. *)
let snapshot r =
  let d = dashboard r in
  let meta =
    [ ("shards", string_of_int r.config.shards);
      ("level", Protection.name r.config.level);
      ("mix", mix_name r.config.mix);
      ("num_pages", string_of_int r.config.num_pages);
      ("master_seed", string_of_int r.config.master_seed);
      ("conns_low", string_of_int r.config.conns_low);
      ("conns_high", string_of_int r.config.conns_high);
      ("churn", string_of_int r.config.churn);
      ("scan_mode", System.mode_name System.Incremental);
      ("fingerprint", fingerprint r)
    ]
  in
  (* merged series only exist as points: the envelope below is over the
     retained (possibly strided) merge, not the exact per-offer envelope a
     single-run archive carries — still deterministic, still diffable *)
  let series =
    List.filter_map
      (fun (m : Dashboard.metric_series) ->
        match List.rev m.Dashboard.ms_points with
        | [] -> None
        | (last_tick, last) :: _ ->
          let vs = List.map snd m.Dashboard.ms_points in
          Some
            { Obs.Snapshot.e_name = m.Dashboard.ms_name;
              e_kind = m.Dashboard.ms_kind;
              e_stride = m.Dashboard.ms_stride;
              e_samples = m.Dashboard.ms_samples;
              e_last_tick = last_tick;
              e_last = last;
              e_min = List.fold_left Float.min Float.infinity vs;
              e_max = List.fold_left Float.max Float.neg_infinity vs;
              e_points = m.Dashboard.ms_points
            })
      d.Dashboard.metrics
  in
  let exposure =
    List.map
      (fun ((o, c), v) -> (Obs.origin_name o, Obs.class_name c, v))
      d.Dashboard.totals
  in
  let alerts =
    List.map
      (fun (_, (a : Dashboard.alert_firing)) ->
        (a.Dashboard.fired_tick, a.Dashboard.rule, a.Dashboard.rule_series,
         a.Dashboard.value))
      (merge_alerts r.shard_results)
  in
  let budgets =
    List.map
      (fun (shard, (b : Forensics.budget_row)) ->
        (Printf.sprintf "s%d:t%d" shard b.Forensics.br_trace, b.Forensics.br_byte_ticks))
      (merge_budgets r.shard_results)
  in
  let shards =
    List.map
      (fun s ->
        { Obs.Snapshot.sh_id = s.shard_id;
          sh_label = Timeline.server_name s.dash.Dashboard.server;
          sh_cells =
            [ ("connections", float_of_int s.connections);
              ("requests", float_of_int s.requests);
              ("cycles", float_of_int s.dash.Dashboard.cycles);
              ("sensitive_unsafe", float_of_int (Dashboard.sensitive_unsafe_total s.dash));
              ("final_copies", float_of_int (final_copies s.dash));
              ("breaches", float_of_int (List.length s.dash.Dashboard.breaches));
              ("pages_swept", float_of_int s.pages_swept);
              ("sweeps", float_of_int s.sweeps)
            ]
        })
      r.shard_results
  in
  let scalars =
    [ ("fleet.total_connections", float_of_int r.total_connections);
      ("fleet.total_requests", float_of_int r.total_requests);
      ("fleet.total_cycles", float_of_int r.total_cycles);
      ("fleet.sensitive_unsafe_byte_ticks", float_of_int r.sensitive_unsafe)
    ]
  in
  Obs.Snapshot.make ~kind:"fleet" ~meta ~series ~exposure
    ~counters:d.Dashboard.counters ~cost_subsystem:d.Dashboard.cycles_by_subsystem
    ~alerts ~budgets ~scalars ~shards ()

let run ?recorder cfg =
  let r = run_sharded cfg in
  (match recorder with None -> () | Some f -> f (snapshot r));
  r

let to_html r =
  let banner = Buffer.create 1024 in
  let add = Buffer.add_string banner in
  add "<h2>fleet</h2>\n<table class=\"meta\"><tr><th>shard</th><th>server</th>";
  add "<th>connections</th><th>requests</th><th>cycles</th><th>unsafe byte&middot;ticks</th></tr>\n";
  List.iter
    (fun s ->
      add
        (Printf.sprintf
           "<tr><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n"
           s.shard_id
           (Forensics.html_escape (Timeline.server_name s.dash.Dashboard.server))
           s.connections s.requests s.dash.Dashboard.cycles
           (Dashboard.sensitive_unsafe_total s.dash)))
    r.shard_results;
  add
    (Printf.sprintf
       "<tr><th>total</th><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr></table>\n"
       (Forensics.html_escape (mix_name r.config.mix))
       r.total_connections r.total_requests r.total_cycles r.sensitive_unsafe);
  let html = Dashboard.to_html (dashboard r) in
  (* splice the fleet table right under the dashboard's <h1>; if the
     anchor ever changes just prepend instead of failing *)
  let anchor = "<h1>memguard exposure observatory</h1>\n" in
  let alen = String.length anchor and hlen = String.length html in
  let rec find i =
    if i + alen > hlen then None
    else if String.sub html i alen = anchor then Some (i + alen)
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub html 0 i ^ Buffer.contents banner ^ String.sub html i (hlen - i)
  | None -> Buffer.contents banner ^ html

let pp_summary fmt r =
  Format.fprintf fmt "fleet: %d shards (%s), level %s@." r.config.shards
    (mix_name r.config.mix)
    (Protection.name r.config.level);
  Format.fprintf fmt "connections: %d  requests: %d@." r.total_connections r.total_requests;
  Format.fprintf fmt "simulated cycles: %d@." r.total_cycles;
  Format.fprintf fmt "sensitive unsafe byte-ticks: %d@." r.sensitive_unsafe;
  (let budgets = merge_budgets r.shard_results in
   if budgets <> [] then begin
     Format.fprintf fmt "per-request leak budgets (top 10 of %d):@." (List.length budgets);
     List.iteri
       (fun i (shard, (b : Forensics.budget_row)) ->
         if i < 10 then
           Format.fprintf fmt "  t%-3d shard %-2d trace %-4d %-18s %12d byte-ticks@."
             b.Forensics.br_start_tick shard b.Forensics.br_trace b.Forensics.br_request
             b.Forensics.br_byte_ticks)
       (List.sort
          (fun (_, (a : Forensics.budget_row)) (_, b) ->
            compare b.Forensics.br_byte_ticks a.Forensics.br_byte_ticks)
          budgets)
   end);
  List.iter
    (fun d ->
      Format.fprintf fmt
        "domain %d: shards [%s] swept %d pages in %d sweeps (%d scan cycles) in %.3fs — %.0f pages/s@."
        d.domain
        (String.concat ";" (List.map string_of_int d.shards_run))
        d.d_pages_swept d.d_sweeps d.d_sweep_cycles d.wall_s
        (if d.wall_s > 0. then float_of_int d.d_pages_swept /. d.wall_s else 0.))
    r.domain_stats;
  Format.fprintf fmt "events: %d  fingerprint: %s@."
    (List.length r.merged_events) (fingerprint r)
