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
(** Target concurrent connections at a tick. *)

val paper_traffic : ?low:int -> ?high:int -> schedule -> Memguard_apps.Workload.pattern
(** The Section 3.2 traffic script as a {!Memguard_apps.Workload.Steps}
    pattern (defaults: [low] 8, [high] 16). *)

val run :
  ?schedule:schedule ->
  ?low:int ->
  ?high:int ->
  ?traffic:Memguard_apps.Workload.pattern ->
  ?churn:int ->
  ?stop_at:int ->
  ?sshd_opts:Memguard_apps.Sshd.options ->
  System.t ->
  server ->
  Memguard_scan.Report.snapshot list
(** Run the full script and return one scanner snapshot per tick
    ([finish + 1] snapshots).  [traffic] defaults to
    [paper_traffic ~low ~high schedule] ([low]/[high] default to 8/16
    concurrent connections); [churn] is the number of reconnect cycles per
    slot per tick (default 3).  [stop_at] truncates the run after that
    tick's snapshot (clamped to [schedule.finish]) — the machine is left
    live for introspection ([memguard_cli inspect]).  [sshd_opts]
    overrides the level-derived sshd options (see {!System.start_sshd});
    only meaningful with [Ssh]. *)
