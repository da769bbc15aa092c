(** Fleet-scale simulation: many independent machines, one merged report.

    The paper's fig-5 timeline exercises one machine with tens of
    connections; the ROADMAP north-star asks what the protection levels
    cost at 10k+ connections.  One sequential [System.t] over one [Bytes.t]
    RAM cannot reach that, so the fleet shards the workload: [shards]
    complete machines, each owning its {e own} kernel, RAM, RSA key,
    observability context and PRNG stream (derived from the master seed
    with [Prng.derive ~tag:shard_id]), run the scripted timeline
    independently — on OCaml 5 domains when [domains > 1] — and a
    deterministic merge folds the per-shard exposure ledgers, scan
    snapshots, counters and cycle counts into one aggregate report.

    Determinism contract: shard [i]'s result is a pure function of
    [(config, i)] — no state is shared between shards (the bignum layer's
    per-domain caches are domain-local, see [Bn]), so the merged report is
    byte-identical for any [domains] value and any scheduling.  The merged
    event stream is ordered by [(tick, shard_id, seq)]. *)

module Obs := Memguard_obs.Obs
module Report := Memguard_scan.Report

(** Which server each shard runs.  [Mixed] alternates by shard parity
    (even shards sshd, odd apache) — the fleet-wide workload mix. *)
type mix = Ssh_only | Http_only | Mixed

val mix_name : mix -> string

type config = {
  shards : int;  (** number of independent machines *)
  domains : int;  (** worker domains; [<= 1] runs sequentially *)
  level : Memguard.Protection.level;
  mix : mix;
  num_pages : int;  (** RAM frames per shard *)
  master_seed : int;  (** shard [i] streams from [Prng.derive ~tag:i] *)
  conns_low : int;  (** timeline low-plateau concurrency, per shard *)
  conns_high : int;  (** timeline peak concurrency, per shard *)
  churn : int;  (** reconnect cycles per slot per tick *)
  breach_age : int option;  (** arm the exposure SLO on every shard *)
}

val default : config
(** 4 shards, [domains = Domain.recommended_domain_count ()], Unprotected,
    [Mixed], 2048 pages, seed 1, low/high = 16/32, churn 3, no SLO. *)

(** One entry of a shard's tick-stamped event stream (scan results and
    SLO breaches, extracted from the shard's trace).  [seq] is the
    shard-local trace sequence number, so [(tick, shard_id, seq)] totally
    orders the merged stream. *)
type event = {
  tick : int;
  shard_id : int;
  seq : int;
  label : string;
  value : int;
}

(** What one shard produced.  [dash] is the shard's own {!Memguard.Dashboard.t}
    — the same record [memguard_cli observe] builds for one machine: server,
    per-tick snapshots, exposure ledger, lifetimes, breaches, counters,
    cycles, telemetry series, alert firings and per-request leak budgets.
    The remaining fields are fleet-only rollups read off the shard's
    observability context. *)
type shard_result = {
  shard_id : int;
  dash : Memguard.Dashboard.t;  (** the shard's observed fig-5 run *)
  events : event list;
  connections : int;  (** sshd + apache connections opened on this shard *)
  requests : int;
  pages_swept : int;  (** pages the scanner swept on this shard *)
  sweeps : int;  (** scan passes run on this shard *)
}

(** Wall-clock throughput of one worker domain.  Scheduling- and
    host-dependent by nature: reported in {!pp_summary} (and the bench
    riders) but deliberately excluded from {!fingerprint} and
    {!snapshot}, so both stay pure functions of the config. *)
type domain_stat = {
  domain : int;
  shards_run : int list;  (** ascending shard ids this domain executed *)
  d_pages_swept : int;
  d_sweeps : int;
  d_sweep_cycles : int;  (** simulated cycles of the ["scan"] subsystem *)
  wall_s : float;
}

type report = {
  config : config;
  shard_results : shard_result list;  (** ordered by [shard_id] *)
  merged_events : event list;  (** sorted by [(tick, shard_id, seq)] *)
  total_connections : int;
  total_requests : int;
  total_cycles : int;
  sensitive_unsafe : int;
      (** merged byte·ticks of sensitive origins outside mlocked-anon *)
  domain_stats : domain_stat list;  (** one per worker domain *)
}

val run_shard : config -> int -> shard_result
(** Test oracle: run shard [i] to completion on the calling domain — one
    {!Memguard.Dashboard.run} on its own PRNG stream, [Prng.derive]d from the
    master seed with tag [i].  Pure in [(config, i)]: same inputs,
    byte-identical result. *)

val run : ?recorder:(Memguard_obs.Obs.Snapshot.t -> unit) -> config -> report
(** Run the whole fleet.  Shards execute on [min domains shards] workers
    (at least one) by work-stealing over shard ids: worker 0 is the
    calling domain and the others are spawned, so with one worker
    everything runs sequentially on the calling domain.  The report is
    identical either way.  [recorder] receives {!snapshot} of the
    finished report. *)

val dashboard : report -> Memguard.Dashboard.t
(** Test oracle: the merged fleet as a [Dashboard.t]: per-tick snapshots,
    exposure series and totals, lifetimes, breaches, counters and cycles are the
    shard-wise sums/concatenations, so the dashboard renderers (HTML and
    summary) consume the fleet exactly as they consume one machine.  The
    embedded snapshots carry merged hit {e counts} only (no per-hit lists —
    those stay per shard). *)

val inspect_shard : config -> shard:int -> tick:int -> string
(** Re-run shard [shard] sequentially up to [tick] and render the live
    machine with [Introspect.render] — the fleet's drill-down: any
    shard's /proc view at any tick, reproduced on demand from the master
    seed. *)

val to_html : report -> string
(** Self-contained HTML: the merged {!dashboard} rendered by
    [Dashboard.to_html] with a fleet banner (per-shard table) prepended. *)

val fingerprint : report -> string
(** The determinism guard: must not depend on [config.domains] or
    scheduling.  It is the MD5 hex digest of a private canonical value —
    config, per-shard summaries, merged totals, counters, telemetry
    series, shard-tagged alert firings and leak budgets, [copies_by_tick]
    and the merged event stream, with no wall-clock times, hashes or
    addresses of OCaml values and no [domain_stats] — printed in
    [Memguard_obs.Obs.Json]'s [Fleet] layout.  The fingerprint is the
    only reason that layout exists, and the value's members, their order
    and the layout are frozen: any change moves every pinned digest
    ([bench/flight_fleet.json]'s meta).  The fleet's JSON form is
    {!snapshot}. *)

val snapshot : report -> Memguard_obs.Obs.Snapshot.t
(** Test oracle: flight archive (kind ["fleet"]) of the merged report: merged
    series (with envelopes over the merged points), exposure totals, counters,
    subsystem cycles, alert firings, per-request leak budgets keyed
    ["s<shard>:t<trace>"], one {!Memguard_obs.Obs.Snapshot.shard_env} per shard,
    and fleet-wide total scalars.  Like {!fingerprint} it is a pure function of
    the config — meta excludes the domain count and carries {!fingerprint} —
    so same-config archives diff to zero.  [memguard_cli fleet --flight]
    writes it. *)

val pp_summary : Format.formatter -> report -> unit
