(** The paper-style countermeasure overhead report: run the fig-5 sshd
    timeline at several protection levels under the deterministic
    simulated-cycle cost model ({!Memguard_obs.Obs.Cost}) and compare
    total cycles, cycles per connection / per signature, and the
    per-subsystem breakdown against the unprotected baseline.

    Every level runs the {e identical} workload: the sshd options force
    per-connection re-exec even at the hardened levels (where the real
    deployment would skip it), because skipping the key reload is a
    savings that would mask the countermeasures' own costs.  With the
    workload held constant, total cycles order
    Integrated > Kernel_level > Library > Unprotected — each level adds
    work (zero-on-free, memory_align, O_NOCACHE re-reads) and removes
    none. *)

type row = {
  level : Protection.level;
  cycles : int;  (** total simulated cycles for the whole timeline *)
  requests : int;  (** sshd connections served *)
  signatures : int;  (** RSA private operations performed *)
  by_subsystem : (string * int) list;  (** sums exactly to [cycles] *)
  by_op : (Memguard_obs.Obs.Cost.op * int * int) list;
      (** per-op [(op, count, cycles)] *)
  slowdown : float;  (** cycles relative to the first level run *)
  obs : Memguard_obs.Obs.ctx;
      (** the run's full context — flamegraph/trace exports read it *)
}

val default_levels : Protection.level list
(** [Unprotected; Library; Kernel_level; Integrated] — the four columns
    of the paper-style table. *)

val sshd_opts_for : Protection.level -> Memguard_apps.Sshd.options
(** The forced-re-exec options the report runs each level with. *)

val run :
  ?levels:Protection.level list ->
  ?num_pages:int ->
  ?seed:int ->
  ?key_bits:int ->
  unit ->
  row list
(** Run every level (default {!default_levels}) and normalise slowdown
    against the first row. *)

val snapshot : row list -> Memguard_obs.Obs.Snapshot.t
(** The report's JSON form: a scalars-only flight archive (kind
    ["overhead"]) of the rows — [overhead_cycles_<level>],
    [overhead_cycles_<level>_<subsystem>], plus requests / signatures /
    slowdown per level, with the rows' levels in meta.  [memguard_cli
    overhead --flight] writes it; [bench/flight_overhead.json] is the
    committed one, and [dune runtest] requires a fresh recording to match
    it byte for byte. *)

val pp : Format.formatter -> row list -> unit
(** The paper-style table: totals, per-connection and per-signature
    cycles, slowdown, then the per-subsystem breakdown. *)
