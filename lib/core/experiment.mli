(** Regeneration of every table and figure in the paper's evaluation
    (see DESIGN.md, "Per-experiment index", and EXPERIMENTS.md for the
    recorded results).  All runners are deterministic in [seed].

    Defaults are sized to finish in seconds; pass larger [trials] /
    [num_pages] / grids to approach the paper's exact parameters. *)

type server = Timeline.server = Ssh | Http

type sweep_point = {
  connections : int;
  directories : int;  (** 0 for the tty attack *)
  mean_copies : float;
  success_rate : float;
}

val pp_sweep : Format.formatter -> sweep_point list -> unit

(** {1 Section 2 — threat assessment} *)

val primed_system :
  ?key_bits:int ->
  level:Protection.level ->
  num_pages:int ->
  seed:int ->
  connections:int ->
  keep_open:bool ->
  server ->
  System.t
(** Test oracle: the machine both attacks run against.  A fresh
    {!System.create} starts [server] and opens [connections] connections
    the way the Section 2 scripts do.  With [keep_open] they stay open (the
    n_tty attack); otherwise they are closed (Apache in waves of 100, which
    its MaxClients cap forces) and the machine settles, so their pages are
    recycled (the ext2 attack). *)

val ext2_sweep :
  ?level:Protection.level ->
  ?trials:int ->
  ?num_pages:int ->
  ?seed:int ->
  ?key_bits:int ->
  ?connections:int list ->
  ?directories:int list ->
  server ->
  sweep_point list
(** Figures 1 (Ssh) and 2 (Http): prime the server with N sequential
    connections, close them, then create M directories on the ext2 stick
    and grep the stick.  One point per (N, M) pair. *)

val tty_sweep :
  ?level:Protection.level ->
  ?trials:int ->
  ?num_pages:int ->
  ?seed:int ->
  ?key_bits:int ->
  ?connections:int list ->
  server ->
  sweep_point list
(** Figures 3 (Ssh) and 4 (Http): prime with N connections, then one n_tty
    dump per trial. *)

(** {1 Section 3 / 5.3 / 6.3 — key behaviour over time} *)

val machine :
  ?level:Protection.level ->
  ?num_pages:int ->
  ?seed:int ->
  ?rng:Memguard_util.Prng.t ->
  ?key_bits:int ->
  ?churn:int ->
  ?low:int ->
  ?high:int ->
  ?stop_at:int ->
  ?sshd_opts:Memguard_apps.Sshd.options ->
  ?obs:Memguard_obs.Obs.ctx ->
  ?recorder:(Memguard_obs.Obs.Snapshot.t -> unit) ->
  server ->
  System.t * Memguard_scan.Report.snapshot list
(** The one builder of a fig-5 machine: {!System.create} followed by
    {!Timeline.run}, returning the live machine with its per-tick
    snapshots.  Arguments are those of {!timeline}, plus [stop_at] and
    [sshd_opts], passed on to {!Timeline.run} unchanged: [stop_at] leaves
    the machine live at that tick for introspection ([memguard_cli
    inspect], [Fleet.inspect_shard]); [sshd_opts] overrides the
    level-derived sshd options (the overhead report forces re-exec). *)

val timeline :
  ?level:Protection.level ->
  ?num_pages:int ->
  ?seed:int ->
  ?rng:Memguard_util.Prng.t ->
  ?key_bits:int ->
  ?churn:int ->
  ?low:int ->
  ?high:int ->
  ?obs:Memguard_obs.Obs.ctx ->
  ?recorder:(Memguard_obs.Obs.Snapshot.t -> unit) ->
  server ->
  Memguard_scan.Report.snapshot list
(** Figures 5/6 (unprotected) and 9–16 / 21–28 (one protection level each):
    the scripted t=0..29 run, one snapshot per tick.  [rng] overrides
    [seed] (see {!System.create}); [low]/[high] override the schedule's
    connection targets — the fleet scales them to reach production-size
    connection counts per shard.  The per-tick snapshots come from the
    default incremental {!System.scan}.  [obs] threads an observability context
    through the machine (see {!System.create}): the run's snapshots then
    carry per-hit provenance and the context accumulates the event trace
    and subsystem metrics.  [recorder] is called once, after the last
    tick, with a flight archive ({!Memguard_obs.Obs.Snapshot.record},
    kind ["timeline"]) of everything the context observed — when no
    [obs] was passed a private context is created for it.  Recording is
    observer-only: the run is byte-identical with or without it.  The
    snapshots of {!machine} with the same arguments. *)

(** {1 Section 5.2 / 6.2 — attacks before vs after} *)

val before_after_tty :
  ?trials:int ->
  ?num_pages:int ->
  ?seed:int ->
  ?connections:int list ->
  server ->
  (Protection.level * sweep_point list) list
(** Figures 7(a,b) (Ssh) and 17/18 (Http): the tty sweep under
    [Unprotected] and under [Integrated]. *)

val before_after_ext2 :
  ?trials:int ->
  ?num_pages:int ->
  ?seed:int ->
  ?directories:int ->
  server ->
  (Protection.level * sweep_point list) list
(** Section 5.2/6.2 first experiment: the ext2 attack against every
    protection level ("in no case were we able to recover any portion of
    the private key" for kernel/integrated). *)

(** {1 Performance (Figures 8, 19, 20)} *)

type perf = {
  transactions : int;
  elapsed_s : float;
  transaction_rate : float;  (** transactions per wall-clock second *)
  throughput_mib_s : float;  (** payload MiB per second *)
  mean_response_ms : float;
  concurrency : float;  (** mean in-flight connections *)
}

val perf_run :
  ?level:Protection.level ->
  ?num_pages:int ->
  ?seed:int ->
  ?transactions:int ->
  ?concurrent:int ->
  server ->
  perf
(** Figure 8 (scp stress: 20 concurrent, 4000 transfers) and Figures 19/20
    (Siege: 20 concurrent, 4000 transactions), on the simulated substrate;
    each transaction moves 100 KiB.
    The paper's claim is a *relative* one — protection imposes no
    penalty — so compare [Unprotected] vs [Integrated] outputs. *)

val pp_perf : Format.formatter -> perf -> unit

(** {1 Ablations (beyond the paper's figures)} *)

val ablation_swap : ?num_pages:int -> ?seed:int -> unit -> (string * int) list
(** [(configuration, key hits on the swap device)]: mlock keeps the key
    off swap entirely; Provos-style swap encryption [\[19\]] makes what
    does swap unreadable.  Both zero the attacker's take. *)

val ablation_nocache : ?seed:int -> unit -> (string * int) list
(** [(configuration, PEM copies in RAM after load)]: O_NOCACHE alone. *)

val ablation_cow :
  ?seed:int -> ?workers_list:int list -> unit -> (int * int * int) list
(** [(workers, copies_vanilla, copies_hardened)]: how COW sharing flattens
    the per-worker key duplication. *)

val ablation_dealloc :
  ?trials:int -> ?seed:int -> unit -> (string * float * float) list
(** [(level, ext2 success rate, tty success rate)] for Secure_dealloc vs
    Kernel_level vs Integrated — the "strictly better protection" claim
    versus Chow et al. *)

val ablation_encrypted_key : ?seed:int -> unit -> (string * int * int) list
(** [(configuration, passphrase copies in RAM, d copies in RAM)] after
    loading a passphrase-encrypted key file: encryption at rest does not
    remove the in-memory problem — it adds the passphrase to it. *)

val ablation_core_dump : ?seed:int -> unit -> (string * int) list
(** [(level, key copies in the server's core dump)]: the attack class the
    paper's countermeasures cannot address (its closing hardware
    argument). *)

val ablation_tty_fraction :
  ?trials:int -> ?seed:int -> ?fractions:float list -> unit -> (float * float) list
(** [(disclosed fraction, success rate)] against an Integrated system —
    verifies the paper's explanation that the residual success rate equals
    the fraction of memory disclosed. *)
