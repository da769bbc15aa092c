(* The benchmark's own drivers.  They call the library's public functions
   one at a time so each call can be timed (and, in a traced pass, wrapped
   in a span), and they reproduce [Timeline.run] and
   [Experiment.primed_system] call for call, so the simulated machine ends
   up byte-identical to the library's own runs; [Workloads] checks that. *)

open Memguard
module Sshd = Memguard_apps.Sshd
module Apache = Memguard_apps.Apache
module Workload = Memguard_apps.Workload
module Ext2_leak = Memguard_attack.Ext2_leak
module Tty_dump = Memguard_attack.Tty_dump
module Kernel = Memguard_kernel.Kernel
module Prng = Memguard_util.Prng

(* What one pass measures besides its own wall time. *)
type probe = {
  spans : Spans.t option;  (** [Some] only in a traced pass *)
  pass_id : int;
  conn_us : (string, Stats.samples) Hashtbl.t;
      (** open plus first transfer/serve, per connection, by cohort *)
  mutable cohort : string;  (** the kind of connection being opened now *)
  mutable opened : int;  (** connections opened *)
  mutable boots : (string * float) list;  (** machine key, System.create seconds *)
  mutable untimed : float;  (** seconds of the pass spent in [untimed] *)
}

let probe ?spans pass_id =
  { spans; pass_id; conn_us = Hashtbl.create 8; cohort = ""; opened = 0; boots = []; untimed = 0. }

let now = Unix.gettimeofday

let call p name f =
  match p.spans with None -> f () | Some s -> Spans.with_span s ~pass:p.pass_id name f

(* The benchmark's own work inside a pass (summarising a machine before it
   is let go), taken out of the pass's wall time. *)
let untimed p f =
  let t0 = now () in
  let r = call p "bench.summary" f in
  p.untimed <- p.untimed +. (now () -. t0);
  r

(* Boot a machine.  [key] names the machine within the pass, so set-up time
   can be reported as a median per machine.  [cohort] (default [key]) names
   the kind of connection the machine will serve: connections of one cohort
   cost about the same, so latency percentiles are taken per cohort. *)
let boot p ~key ?(cohort = key) f =
  let t0 = now () in
  let sys = call p "system.create" f in
  p.boots <- (key, now () -. t0) :: p.boots;
  p.cohort <- cohort;
  sys

(* A connection's latency sample: the open plus its first transfer/serve. *)
let timed_open p f =
  let t0 = now () in
  let r = f () in
  (match r with
   | Some _ ->
     p.opened <- p.opened + 1;
     let s =
       match Hashtbl.find_opt p.conn_us p.cohort with
       | Some s -> s
       | None ->
         let s = Stats.samples () in
         Hashtbl.replace p.conn_us p.cohort s;
         s
     in
     Stats.add s (1e6 *. (now () -. t0))
   | None -> ());
  r

(* One server under a timeline: a FIFO of open connections, oldest first. *)
type server = {
  open_one : unit -> unit;
  close_oldest : unit -> unit;
  count : unit -> int;
  shutdown : unit -> unit;
  bounded : bool;  (** apache: opening may fail when saturated *)
}

let ssh_server p ?sshd_opts sys =
  let rng = System.rng sys in
  let srv = call p "sshd.start" (fun () -> System.start_sshd ?opts:sshd_opts sys) in
  let q = Queue.create () in
  let close c = call p "sshd.close" (fun () -> Sshd.close_connection srv c) in
  { open_one =
      (fun () ->
        ignore
          (timed_open p (fun () ->
               let c = call p "sshd.open" (fun () -> Sshd.open_connection srv rng) in
               call p "sshd.transfer" (fun () -> Sshd.transfer srv c rng ~kib:4);
               Queue.push c q;
               Some c)));
    close_oldest = (fun () -> if not (Queue.is_empty q) then close (Queue.pop q));
    count = (fun () -> Queue.length q);
    shutdown =
      (fun () ->
        Queue.iter close q;
        Queue.clear q;
        call p "sshd.stop" (fun () -> Sshd.stop srv));
    bounded = false
  }

let http_server p ~high sys =
  let rng = System.rng sys in
  let srv = call p "apache.start" (fun () -> System.start_apache ~workers:high sys) in
  let q = Queue.create () in
  let close c = call p "apache.close" (fun () -> Apache.close_connection srv c) in
  { open_one =
      (fun () ->
        ignore
          (timed_open p (fun () ->
               match call p "apache.open" (fun () -> Apache.open_connection srv rng) with
               | Some c ->
                 call p "apache.serve" (fun () -> Apache.serve srv c rng ~kib:8);
                 Queue.push c q;
                 Some c
               | None -> None)));
    close_oldest = (fun () -> if not (Queue.is_empty q) then close (Queue.pop q));
    count = (fun () -> Queue.length q);
    shutdown =
      (fun () ->
        Queue.iter close q;
        Queue.clear q;
        call p "apache.stop" (fun () -> Apache.stop srv));
    bounded = true
  }

let set_concurrency s target =
  while s.count () > target do s.close_oldest () done;
  if s.bounded then begin
    let guard = ref 0 in
    while s.count () < target && !guard < 4 * target do
      incr guard;
      s.open_one ()
    done
  end
  else while s.count () < target do s.open_one () done

let churn_slots s =
  for _ = 1 to s.count () do
    s.close_oldest ();
    s.open_one ()
  done

let low = 8
let high = 16
let churn = 3

(* [Timeline.run] with its defaults (paper schedule, 8/16 concurrent,
   churn 3): the same calls, in the same order, on the same PRNG streams. *)
let timeline p ?sshd_opts sys server =
  let sch = Timeline.default_schedule in
  let traffic = Timeline.paper_traffic ~low ~high sch in
  let traffic_rng = Prng.split (System.rng sys) in
  let srv = ref None in
  let snaps = ref [] in
  for t = 0 to sch.Timeline.finish do
    if t = sch.Timeline.start_server then
      srv :=
        Some
          (match server with
           | Timeline.Ssh -> ssh_server p ?sshd_opts sys
           | Timeline.Http -> http_server p ~high sys);
    (match !srv with
     | Some s when t < sch.Timeline.stop_server ->
       let target = Workload.concurrency_at traffic traffic_rng ~tick:t in
       set_concurrency s target;
       if target > 0 then for _ = 1 to churn do churn_slots s done
     | Some s when t = sch.Timeline.stop_server ->
       s.shutdown ();
       srv := None
     | Some _ | None -> ());
    snaps := call p "scan_cache.sweep" (fun () -> System.scan sys ~time:t) :: !snaps
  done;
  List.rev !snaps

(* Attack trials: [Experiment.primed_system] followed by one attack and the
   attacker's offline count.  Returns the copies recovered. *)
type attack = Ext2 of { connections : int; directories : int } | Tty of { connections : int }

let primed p ~key ?cohort ~level ~num_pages ~seed ~connections ~keep_open server =
  let sys = boot p ~key ?cohort (fun () -> System.create ~num_pages ~level ~seed ()) in
  let rng = System.rng sys in
  let settle () = call p "system.settle" (fun () -> System.settle sys) in
  (match server with
   | Timeline.Ssh ->
     let srv = call p "sshd.start" (fun () -> System.start_sshd sys) in
     let conns =
       List.init connections (fun _ ->
           Option.get
             (timed_open p (fun () ->
                  Some (call p "sshd.open" (fun () -> Sshd.open_connection srv rng)))))
     in
     if not keep_open then
       List.iter (fun c -> call p "sshd.close" (fun () -> Sshd.close_connection srv c)) conns
   | Timeline.Http ->
     let srv = call p "apache.start" (fun () -> System.start_apache sys) in
     let open_ () =
       timed_open p (fun () -> call p "apache.open" (fun () -> Apache.open_connection srv rng))
     in
     if keep_open then ignore (List.filter_map (fun _ -> open_ ()) (List.init connections Fun.id))
     else begin
       let remaining = ref connections in
       while !remaining > 0 do
         let n = min 100 !remaining in
         remaining := !remaining - n;
         let conns = List.filter_map (fun _ -> open_ ()) (List.init n Fun.id) in
         List.iter
           (fun c -> call p "apache.close" (fun () -> Apache.close_connection srv c))
           conns;
         settle ()
       done
     end);
  if not keep_open then settle ();
  sys

let attack_trial p ~key ?cohort ~level ~num_pages ~seed server attack =
  match attack with
  | Ext2 { connections; directories } ->
    let sys = primed p ~key ?cohort ~level ~num_pages ~seed ~connections ~keep_open:false server in
    let atk = Ext2_leak.create () in
    call p "ext2_leak.mkdirs" (fun () -> Ext2_leak.mkdirs atk (System.kernel sys) ~n:directories);
    call p "kernel.ext2_unmount" (fun () -> Kernel.ext2_unmount (System.kernel sys));
    call p "attack.count" (fun () -> Ext2_leak.count_copies atk ~patterns:(System.patterns sys))
  | Tty { connections } ->
    let sys = primed p ~key ?cohort ~level ~num_pages ~seed ~connections ~keep_open:true server in
    let dump = call p "tty_dump.run" (fun () -> System.run_tty_attack sys) in
    call p "attack.count" (fun () -> Tty_dump.count_copies dump ~patterns:(System.patterns sys))
