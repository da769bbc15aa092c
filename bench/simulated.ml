(* The bench's simulated keys, printed as a scalars-only flight archive:
   exposure per level, the 8-shard fleet totals, the scan-cache hit rate
   and the pattern count.  [dune runtest] diffs the output against
   bench/flight_simulated.json (see bench/dune); [dune promote] refreshes
   it.  Run with:  dune exec bench/simulated.exe *)

open Memguard
module Obs = Memguard_obs.Obs
module Fleet = Memguard_fleet.Fleet

let num_pages = 4096
let count n = float_of_int n
let slug name = String.map (function '-' -> '_' | c -> c) name

(* the key pattern count, and the incremental scan's clean-page share
   over the Figure 5 sshd timeline *)
let scan_engine () =
  let obs = Obs.create () in
  let sys = System.create ~num_pages ~obs ~level:Protection.Unprotected () in
  ignore (Timeline.run sys Timeline.Ssh);
  let clean = count (Obs.Metrics.counter obs "scan.cache_clean_pages") in
  let dirty = count (Obs.Metrics.counter obs "scan.cache_dirty_pages") in
  [ ("num_pages", count num_pages);
    ("patterns", count (List.length (System.patterns sys)));
    ("scan_cache_hit_rate", clean /. Float.max 1.0 (clean +. dirty))
  ]

(* the simulated totals of an 8-shard fleet run on one domain *)
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
  let r = Fleet.run cfg in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Fleet.shard_results in
  [ ("fleet_shards", count cfg.Fleet.shards);
    ("fleet_connections", count r.Fleet.total_connections);
    ("fleet_requests", count r.Fleet.total_requests);
    ("fleet_total_cycles", count r.Fleet.total_cycles);
    ("fleet_sensitive_unsafe_byte_ticks", count r.Fleet.sensitive_unsafe);
    ("fleet_scan_pages_swept", count (sum (fun s -> s.Fleet.pages_swept)));
    ("fleet_scan_sweeps", count (sum (fun s -> s.Fleet.sweeps)));
    ( "fleet_scan_sweep_cycles",
      count
        (sum (fun s ->
             Option.value ~default:0
               (List.assoc_opt "scan"
                  s.Fleet.dash.Dashboard.archive.Obs.Snapshot.ar_cost_subsystem))) )
  ]

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

let () =
  (* bound in turn: an [a () @ b ()] chain would run [b] first *)
  let scan = scan_engine () in
  let shards = fleet () in
  let ledger = exposure () in
  let archive = Obs.Snapshot.of_scalars ~kind:"bench-simulated" (scan @ shards @ ledger) in
  print_string (Obs.Snapshot.to_json archive)
