(** A complete simulated machine under a chosen {!Protection.level}: kernel
    + disk with a PEM host key + servers, with scanning helpers.  This is
    the top-level entry point of the library — see [examples/]. *)

open Memguard_kernel

type t

type scan_mode =
  | Incremental  (** dirty-page cache: re-sweep only pages written since the
                     previous scan (the default) *)
  | Full  (** cold single-pass multi-pattern sweep on every scan *)

val mode_name : scan_mode -> string
(** ["incremental"] / ["full"] — the tag used in trace
    events and metric names. *)

val key_path : string
(** ["/etc/ssl/host_key.pem"]. *)

val create :
  ?num_pages:int ->
  ?key_bits:int ->
  ?seed:int ->
  ?rng:Memguard_util.Prng.t ->
  ?noise:bool ->
  ?scan_mode:scan_mode ->
  ?obs:Memguard_obs.Obs.ctx ->
  ?swap_slots:int ->
  level:Protection.level ->
  unit ->
  t
(** Build a machine: fresh kernel (default 8192 pages = 32 MiB), a newly
    generated RSA key (default 256-bit modulus — same copy topology as
    1024-bit, much faster to simulate) written as a PEM file, and the
    protection level's kernel knobs applied.  [noise] (default [true])
    runs boot-time allocator churn so that later allocations scatter over
    the whole physical range, as on a live machine.  [scan_mode] (default
    [Incremental]) selects how {!scan} sweeps memory; both modes
    return identical results.  This is the only place the strategy is
    chosen: every experiment, dashboard and fleet shard scans
    incrementally, and [Full] is the cold reference the scan-engine bench
    and the equivalence tests compare against.  [rng] overrides [seed] with an
    already-constructed generator — the fleet derives one per shard from a
    master seed ([Prng.derive]) so every shard sees an independent,
    reproducible stream.  [obs] (default {!Memguard_obs.Obs.null})
    is threaded through every layer — kernel, allocator, page cache, SSL
    library, scanner — collecting the key-copy lifecycle trace, subsystem
    metrics, and per-hit provenance; with the default disabled context the
    simulation is byte-identical to an uninstrumented run.  [swap_slots]
    (default [0] = no swap device) configures an unencrypted swap
    device so memory pressure swaps rather than OOMs — used by the
    fault-injection campaigns to reach swap-out edge paths. *)

val kernel : t -> Kernel.t
val priv : t -> Memguard_crypto.Rsa.priv
val rng : t -> Memguard_util.Prng.t
val obs : t -> Memguard_obs.Obs.ctx

val patterns : t -> (string * string) list
(** The scanner patterns for this machine's key (d, p, q, pem). *)

val start_sshd : ?opts:Memguard_apps.Sshd.options -> t -> Memguard_apps.Sshd.t
(** Start the OpenSSH server with the level's options.  [opts] overrides
    them wholesale — the overhead report uses this to force re-exec
    behaviour uniformly across levels so their costs stay comparable. *)

val start_apache : ?workers:int -> t -> Memguard_apps.Apache.t

val scan : t -> time:int -> Memguard_scan.Report.snapshot
(** Run the scanner over physical memory right now.  Incremental by
    default (see [create ?scan_mode]): only pages written since the
    previous [scan] are re-swept, with results identical to a cold
    {!Memguard_scan.Scanner.scan}.  With an enabled observability context
    the scan also sets the trace tick to [time], emits
    [Scan_started]/[Scan_finished] events, updates the [scan.*] counters
    and wall-time histograms, and annotates each hit with its provenance
    (see {!Memguard_scan.Report}).  It also samples the per-tick telemetry
    series — kernel memory pressure ([kernel.*]), exposure byte·tick
    integrals and rates ([exposure.*]), sweep latency and cache reuse
    ([scan.*]), cycle spend by subsystem ([cost.*]) — and then evaluates
    the installed alert rules ([Memguard_obs.Obs.Alert.eval]). *)

val scan_stats : t -> Memguard_scan.Scan_cache.stats option
(** Hit/miss statistics of the incremental scan cache; [None] until the
    first [Incremental] {!scan} builds it. *)

val settle : t -> unit
(** Let background system activity churn the free lists (shuffling the
    order in which free pages will be reused, without touching their
    contents).  Run between a workload and an attack. *)

val run_ext2_attack : t -> directories:int -> Memguard_attack.Ext2_leak.t
(** Mount the stick, create the directories, unmount — returns the device
    for the attacker's offline search. *)

val run_tty_attack : t -> Memguard_attack.Tty_dump.dump
(** One n_tty disclosure with the paper's ~50% window. *)
