(** The scripted simulation of Sections 3.2, 5.3 and 6.3: a server is
    started, client traffic ramps 0 → 8 → 16 → 8 → 0 concurrent transfers,
    the server is stopped, and the scanner snapshots physical memory at
    every tick (one tick = the paper's 2-minute unit).

    The paper's transfers last ~4 s each, so within one 2-minute tick every
    concurrency slot turns over many times; [churn] controls how many
    close-and-reopen cycles each slot performs per tick. *)

type server = Ssh | Http

val server_name : server -> string
(** ["ssh"] / ["http"] — the tag used in reports, archives and the CLI. *)

type schedule = {
  start_server : int;  (** paper: t=2 *)
  traffic_low1 : int;  (** t=6: 8 concurrent *)
  traffic_high : int;  (** t=10: 16 concurrent *)
  traffic_low2 : int;  (** t=14: back to 8 *)
  traffic_stop : int;  (** t=18: 0 *)
  stop_server : int;  (** t=22 *)
  finish : int;  (** t=29 *)
}

val default_schedule : schedule

val concurrency_at : schedule -> low:int -> high:int -> int -> int
(** Test oracle: target concurrent connections at a tick. *)

val paper_traffic : ?low:int -> ?high:int -> schedule -> Memguard_apps.Workload.pattern
(** The Section 3.2 traffic script as a {!Memguard_apps.Workload.Steps}
    pattern (defaults: [low] 8, [high] 16). *)

type conn = {
  work : kib:int -> unit;
      (** move [kib] KiB through the connection (an scp transfer for sshd,
          a served response for Apache) *)
  close : unit -> unit;  (** the connection ends; its process's pages are freed *)
}

type handle = {
  open_ : unit -> conn option;
      (** accept a connection; [None] only when Apache's worker pool is full *)
  stop : unit -> unit;  (** stop the server ([/etc/init.d/... stop]) *)
}

val start :
  ?sshd_opts:Memguard_apps.Sshd.options -> ?workers:int -> System.t -> server -> handle
(** Start [server] on the machine: {!System.start_sshd} with [sshd_opts] or
    {!System.start_apache} with [workers] (each option is ignored by the
    other server).  Every connection draws from [System.rng sys].  This is
    how {!run}, [Experiment.perf_run] and [Experiment.primed_system] drive
    a server. *)

val run :
  ?low:int ->
  ?high:int ->
  ?churn:int ->
  ?stop_at:int ->
  ?sshd_opts:Memguard_apps.Sshd.options ->
  System.t ->
  server ->
  Memguard_scan.Report.snapshot list
(** Run the {!default_schedule} script and return one scanner snapshot per
    tick ([finish + 1] snapshots).  Clients follow
    [paper_traffic ~low ~high default_schedule] ([low]/[high] default to 8/16
    concurrent connections; Apache starts with [high] workers); each open
    connection moves 4 KiB (sshd) or 8 KiB (Apache).  [churn] is the number
    of reconnect cycles per slot per tick (default 3).  [stop_at] truncates
    the run after that tick's snapshot (clamped to [finish]) — the machine
    is left live for introspection ([memguard_cli inspect]).  [sshd_opts]
    overrides the level-derived sshd options (see {!System.start_sshd});
    only meaningful with [Ssh]. *)
