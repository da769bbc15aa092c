(** Deterministic fault-injection campaigns.

    A campaign boots a small machine ({!Memguard.System.create} with a few
    hundred pages, a swap device, and an enabled observability context),
    starts the SSH server, and then drives a seeded random interleaving of
    kernel operations against it: process spawn / fork / exit, malloc /
    free / memalign / mlock, memory writes and zeroing, file reads with
    and without [O_NOCACHE], ext2 mkdir leaks and unmounts, SSH
    connections opening, transferring and closing, forced swap pressure
    from a RAM-squeezing hog process, and memory scans at arbitrary
    ticks.

    After {e every} operation the layered {!Audit.run} executes, and (at
    levels that promise anything about memory contents) the
    {!Audit.confinement} oracle judges an incremental scan of all of RAM,
    and {!Audit.scan_agreement} checks that scan against a cold one — so
    the campaign fails at the exact operation that broke an invariant.

    Everything is driven by one splitmix64 stream: re-running a seed
    reproduces the identical operation sequence, log and audit outcome,
    byte for byte.  A failure report therefore {e is} its own
    reproduction recipe. *)

module Protection := Memguard.Protection

type config = {
  seed : int;
  level : Protection.level;
  ops : int;  (** injected operations to run *)
  num_pages : int;  (** machine size; must be a power of two *)
  swap_slots : int;  (** swap device size in pages *)
  scan_every : int;
      (** confinement-oracle cadence: scan after every [n]-th op (the
          structural audit still runs after every op).  [1] = every op. *)
}

val default_config : config
(** [{ seed = 0; level = Integrated; ops = 500; num_pages = 256;
      swap_slots = 128; scan_every = 1 }] *)

type result = {
  config : config;
  ops_run : int;
  ooms : int;  (** operations that hit a (legitimate) [Out_of_memory] *)
  scans : int;  (** confinement-oracle scans performed *)
  violations : Audit.violation list;
  log : string list;
      (** chronological op / audit trace; identical across re-runs of the
          same [config] *)
  obs : Memguard_obs.Obs.ctx;
      (** the campaign's observability context (always enabled): event
          ring, metrics, provenance registry and exposure ledger as they
          stood when the campaign finished *)
}

val run : ?on_scan:(Memguard.System.t -> tick:int -> unit) -> config -> result
(** Run one campaign.  A campaign aborts early once it has accumulated 10
    violations (the machine is broken; more reports add noise).
    [on_scan] fires right after {e every} memory scan — both the random
    [scan_attack] ops and the confinement-oracle scans — with the live
    system and the tick the scan ran at; scans don't mutate machine state,
    so the callback observes exactly what the scanner (and the exposure
    ledger's [advance]) saw.  [Invalid_argument] on a non-power-of-two
    [num_pages], non-positive [ops] or [scan_every]. *)

val passed : result -> bool
(** No violations. *)

val replay_hint : result -> string
(** Test oracle: the [memguard_cli chaos] invocation reproducing this exact
    campaign. *)

val pp_summary : Format.formatter -> result -> unit
(** One line: seed, level, ops, ooms, scans, violation count. *)

val pp_failure : Format.formatter -> result -> unit
(** Full failure report: summary, every violation, the tail of the op
    trace, and the replay command. *)
