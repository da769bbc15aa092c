module Obs = Memguard_obs.Obs
module Sshd = Memguard_apps.Sshd

type row = {
  level : Protection.level;
  cycles : int;
  requests : int;
  signatures : int;
  by_subsystem : (string * int) list;
  by_op : (Obs.Cost.op * int * int) list;
  slowdown : float;
  obs : Obs.ctx;
}

let default_levels =
  [ Protection.Unprotected; Protection.Library; Protection.Kernel_level;
    Protection.Integrated ]

(* The paper compares countermeasure costs on the SAME workload.  The
   level-derived sshd options would run the hardened servers with
   [no_reexec] — skipping the per-connection key reload is a genuine
   deployment choice, but it is a *savings* that would mask what the
   countermeasures themselves cost.  Force re-exec at every level so each
   connection performs the identical key-load + handshake sequence and
   the deltas isolate zero-on-free, memory_align and O_NOCACHE. *)
let sshd_opts_for level =
  { Sshd.no_reexec = false;
    ssl_mode = Protection.ssl_mode_patched_app level;
    nocache = Protection.nocache level
  }

let run_level ?(num_pages = 4096) ?(seed = 1) ?(key_bits = 256) level =
  let obs = Obs.create () in
  let sys = System.create ~num_pages ~seed ~key_bits ~obs ~level () in
  ignore (Timeline.run ~sshd_opts:(sshd_opts_for level) sys Timeline.Ssh);
  { level;
    cycles = Obs.Cost.total_cycles obs;
    requests = Obs.Metrics.counter obs "sshd.connections";
    signatures = Obs.Metrics.counter obs "rsa.private_ops";
    by_subsystem = Obs.Cost.by_subsystem obs;
    by_op = Obs.Cost.by_op obs;
    slowdown = 1.0;
    obs
  }

let run ?(levels = default_levels) ?num_pages ?seed ?key_bits ?recorder () =
  let rows = List.map (run_level ?num_pages ?seed ?key_bits) levels in
  let rows =
    match rows with
    | [] -> []
    | base :: _ ->
      let b = float_of_int (max 1 base.cycles) in
      List.map (fun r -> { r with slowdown = float_of_int r.cycles /. b }) rows
  in
  (match recorder with
   | None -> ()
   | Some f ->
     (* scalars-only archive: bench/flight_overhead.json is one of these,
        and [memguard_cli diff] gates every key of it exactly *)
     let slug level = String.map (function '-' -> '_' | c -> c) (Protection.name level) in
     let scalars =
       List.concat_map
         (fun r ->
           let s = slug r.level in
           [ (Printf.sprintf "overhead_cycles_%s" s, float_of_int r.cycles);
             (Printf.sprintf "overhead_requests_%s" s, float_of_int r.requests);
             (Printf.sprintf "overhead_signatures_%s" s, float_of_int r.signatures);
             (Printf.sprintf "overhead_slowdown_%s" s, r.slowdown)
           ]
           @ List.map
               (fun (sub, c) ->
                 (Printf.sprintf "overhead_cycles_%s_%s" s sub, float_of_int c))
               r.by_subsystem)
         rows
     in
     let meta = [ ("levels", String.concat "," (List.map Protection.name levels)) ] in
     f (Obs.Snapshot.of_scalars ~kind:"overhead" ~meta scalars));
  rows

let subsystems rows =
  List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.by_subsystem) rows)

let per_request r =
  if r.requests = 0 then 0. else float_of_int r.cycles /. float_of_int r.requests

let per_signature r =
  if r.signatures = 0 then 0. else float_of_int r.cycles /. float_of_int r.signatures

let pp fmt rows =
  let subs = subsystems rows in
  Format.fprintf fmt
    "Countermeasure overhead, fig-5 sshd timeline (simulated cycles)@.";
  Format.fprintf fmt
    "(identical workload at every level: re-exec per connection forced on)@.@.";
  Format.fprintf fmt "%-16s %14s %8s %12s %12s %9s@." "level" "cycles" "conns"
    "cyc/conn" "cyc/sign" "slowdown";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-16s %14d %8d %12.0f %12.0f %8.2fx@."
        (Protection.name r.level) r.cycles r.requests (per_request r)
        (per_signature r) r.slowdown)
    rows;
  Format.fprintf fmt "@.per-subsystem breakdown (cycles):@.";
  Format.fprintf fmt "%-16s" "level";
  List.iter (fun s -> Format.fprintf fmt " %12s" s) subs;
  Format.fprintf fmt "@.";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-16s" (Protection.name r.level);
      List.iter
        (fun s ->
          let v = Option.value (List.assoc_opt s r.by_subsystem) ~default:0 in
          Format.fprintf fmt " %12d" v)
        subs;
      Format.fprintf fmt "@.")
    rows

let to_json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"rows\": [";
  List.iteri
    (fun i r ->
      Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
      Buffer.add_string buf
        (Printf.sprintf
           "{\"level\": \"%s\", \"cycles\": %d, \"requests\": %d, \"signatures\": %d, \
            \"slowdown\": %.4f, \"by_subsystem\": {%s}}"
           (Obs.json_escape (Protection.name r.level)) r.cycles r.requests r.signatures
           r.slowdown
           (String.concat ", "
              (List.map
                 (fun (s, v) -> Printf.sprintf "\"%s\": %d" (Obs.json_escape s) v)
                 r.by_subsystem))))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
