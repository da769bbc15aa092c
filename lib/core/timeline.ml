module Sshd = Memguard_apps.Sshd
module Apache = Memguard_apps.Apache

type server = Ssh | Http

let server_name = function Ssh -> "ssh" | Http -> "http"

type schedule = {
  start_server : int;
  traffic_low1 : int;
  traffic_high : int;
  traffic_low2 : int;
  traffic_stop : int;
  stop_server : int;
  finish : int;
}

let default_schedule =
  { start_server = 2;
    traffic_low1 = 6;
    traffic_high = 10;
    traffic_low2 = 14;
    traffic_stop = 18;
    stop_server = 22;
    finish = 29
  }

let concurrency_at s ~low ~high t =
  if t < s.traffic_low1 then 0
  else if t < s.traffic_high then low
  else if t < s.traffic_low2 then high
  else if t < s.traffic_stop then low
  else 0

let paper_traffic ?(low = 8) ?(high = 16) s =
  Memguard_apps.Workload.Steps
    [ (s.traffic_low1, low); (s.traffic_high, high); (s.traffic_low2, low); (s.traffic_stop, 0) ]

(* The one place a run drives a server: start it, open connections (each
   doing its per-slot work), close them and stop it.  Both servers draw from
   [System.rng sys]. *)
type conn = { work : kib:int -> unit; close : unit -> unit }
type handle = { open_ : unit -> conn option; stop : unit -> unit }

let start ?sshd_opts ?workers sys server =
  let rng = System.rng sys in
  match server with
  | Ssh ->
    let srv = System.start_sshd ?opts:sshd_opts sys in
    { open_ =
        (fun () ->
          let c = Sshd.open_connection srv rng in
          Some
            { work = (fun ~kib -> Sshd.transfer srv c rng ~kib);
              close = (fun () -> Sshd.close_connection srv c)
            });
      stop = (fun () -> Sshd.stop srv)
    }
  | Http ->
    let srv = System.start_apache ?workers sys in
    { open_ =
        (fun () ->
          Option.map
            (fun c ->
              { work = (fun ~kib -> Apache.serve srv c rng ~kib);
                close = (fun () -> Apache.close_connection srv c)
              })
            (Apache.open_connection srv rng));
      stop = (fun () -> Apache.stop srv)
    }

let run ?(low = 8) ?(high = 16) ?(churn = 3) ?stop_at ?sshd_opts sys server =
  let schedule = default_schedule in
  let traffic = paper_traffic ~low ~high schedule in
  let traffic_rng = Memguard_util.Prng.split (System.rng sys) in
  let last = min schedule.finish (Option.value stop_at ~default:schedule.finish) in
  (* each slot's transfer: an scp chunk for sshd, a served page for Apache *)
  let kib = match server with Ssh -> 4 | Http -> 8 in
  let srv = ref None in
  let conns = Queue.create () in
  let open_one h =
    match h.open_ () with
    | Some c ->
      c.work ~kib;
      Queue.push c conns
    | None -> ()
  in
  let close_oldest () = if not (Queue.is_empty conns) then (Queue.pop conns).close () in
  let snapshots = ref [] in
  for t = 0 to last do
    if t = schedule.start_server then srv := Some (start ?sshd_opts ~workers:high sys server);
    (match !srv with
     | Some h when t < schedule.stop_server ->
       let target = Memguard_apps.Workload.concurrency_at traffic traffic_rng ~tick:t in
       while Queue.length conns > target do
         close_oldest ()
       done;
       (* only Apache's opens can fail (a full pool); sshd's always succeed,
          so the guard never binds for it *)
       let guard = ref 0 in
       while Queue.length conns < target && !guard < 4 * target do
         incr guard;
         open_one h
       done;
       (* every slot finishes its ~4s transfer and a new one starts *)
       if target > 0 then
         for _ = 1 to churn do
           for _ = 1 to Queue.length conns do
             close_oldest ();
             open_one h
           done
         done
     | Some h when t = schedule.stop_server ->
       Queue.iter (fun c -> c.close ()) conns;
       Queue.clear conns;
       h.stop ();
       srv := None
     | Some _ | None -> ());
    snapshots := System.scan sys ~time:t :: !snapshots
  done;
  List.rev !snapshots
