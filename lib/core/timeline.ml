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

(* a uniform driving interface over the two servers *)
type driver = {
  set_concurrency : int -> unit;
  churn_slots : unit -> unit;
  shutdown : unit -> unit;
}

let ssh_driver ?sshd_opts sys =
  let rng = System.rng sys in
  let srv = System.start_sshd ?opts:sshd_opts sys in
  let conns = ref [] in
  let open_one () =
    let c = Sshd.open_connection srv rng in
    Sshd.transfer srv c rng ~kib:4;
    conns := !conns @ [ c ]
  in
  let close_oldest () =
    match !conns with
    | [] -> ()
    | c :: rest ->
      Sshd.close_connection srv c;
      conns := rest
  in
  { set_concurrency =
      (fun target ->
        while List.length !conns > target do
          close_oldest ()
        done;
        while List.length !conns < target do
          open_one ()
        done);
    churn_slots =
      (fun () ->
        (* every slot finishes its ~4s transfer and a new one starts *)
        let n = List.length !conns in
        for _ = 1 to n do
          close_oldest ();
          open_one ()
        done);
    shutdown =
      (fun () ->
        List.iter (Sshd.close_connection srv) !conns;
        conns := [];
        Sshd.stop srv)
  }

let http_driver ~high sys =
  let rng = System.rng sys in
  let srv = System.start_apache ~workers:high sys in
  let conns = ref [] in
  let open_one () =
    match Apache.open_connection srv rng with
    | Some c ->
      Apache.serve srv c rng ~kib:8;
      conns := !conns @ [ c ]
    | None -> ()
  in
  let close_oldest () =
    match !conns with
    | [] -> ()
    | c :: rest ->
      Apache.close_connection srv c;
      conns := rest
  in
  { set_concurrency =
      (fun target ->
        while List.length !conns > target do
          close_oldest ()
        done;
        let guard = ref 0 in
        while List.length !conns < target && !guard < 4 * target do
          incr guard;
          open_one ()
        done);
    churn_slots =
      (fun () ->
        let n = List.length !conns in
        for _ = 1 to n do
          close_oldest ();
          open_one ()
        done);
    shutdown =
      (fun () ->
        List.iter (Apache.close_connection srv) !conns;
        conns := [];
        Apache.stop srv)
  }

let run ?(low = 8) ?(high = 16) ?traffic ?(churn = 3) ?stop_at ?sshd_opts sys server =
  let schedule = default_schedule in
  let traffic = Option.value traffic ~default:(paper_traffic ~low ~high schedule) in
  let traffic_rng = Memguard_util.Prng.split (System.rng sys) in
  let last = min schedule.finish (Option.value stop_at ~default:schedule.finish) in
  let driver = ref None in
  let snapshots = ref [] in
  for t = 0 to last do
    if t = schedule.start_server then
      driver :=
        Some
          (match server with
           | Ssh -> ssh_driver ?sshd_opts sys
           | Http -> http_driver ~high sys);
    (match !driver with
     | Some d when t < schedule.stop_server ->
       let target = Memguard_apps.Workload.concurrency_at traffic traffic_rng ~tick:t in
       d.set_concurrency target;
       if target > 0 then
         for _ = 1 to churn do
           d.churn_slots ()
         done
     | Some d when t = schedule.stop_server ->
       d.shutdown ();
       driver := None
     | Some _ | None -> ());
    snapshots := System.scan sys ~time:t :: !snapshots
  done;
  List.rev !snapshots
