(** The exposure-observatory report pipeline: run the fig-5 timeline with
    the exposure ledger on, and render the result as a self-contained HTML
    dashboard (inline CSS + SVG, no scripts) and a terminal summary — the
    [memguard_cli observe] backend.  The run's one JSON form is its flight
    archive ({!Memguard_obs.Obs.Snapshot}, through [run ~recorder]).

    The report joins three data sets the observability layer accumulates
    during one scripted run:
    - the exposure ledger (byte·ticks per origin × memory class, one
      cumulative sample per tick);
    - the scanner snapshots (hit counts per tick, as in Figure 5(b));
    - copy lifetime histograms and [Exposure_breach] SLO events. *)

module Obs := Memguard_obs.Obs
module Report := Memguard_scan.Report

type breach = {
  tick : int;
  origin : Obs.origin;
  cls : Obs.mem_class;
  pid : int;
  addr : int;
  len : int;
  age : int;
}

type metric_series = {
  ms_name : string;
  ms_kind : string;  (** ["gauge"] / ["counter"] / ["rate"] *)
  ms_stride : int;  (** downsampling stride at end of run (1 = lossless) *)
  ms_samples : int;  (** samples offered, before downsampling *)
  ms_points : (int * float) list;  (** retained (tick, value) points *)
}
(** One telemetry series as collected at the end of a run — a snapshot of
    {!Obs.Timeseries} state, decoupled from the live context. *)

type alert_firing = {
  fired_tick : int;
  rule : string;
  rule_series : string;
  value : float;
}

type t = {
  level : Protection.level;
  server : Timeline.server;
  seed : int;
  num_pages : int;
  breach_age : int option;
  snapshots : Report.snapshot list;
  series : (int * ((Obs.origin * Obs.mem_class) * int) list) list;
  totals : ((Obs.origin * Obs.mem_class) * int) list;
  lifetimes : (Obs.origin * int list) list;
  breaches : breach list;
  counters : (string * int) list;
  cycles : int;  (** total simulated cycles charged during the run *)
  cycles_by_subsystem : (string * int) list;
      (** per-subsystem cost breakdown, sums to [cycles] *)
  metrics : metric_series list;  (** telemetry series, name-sorted *)
  alert_rules : (string * string * Obs.Alert.condition) list;
      (** installed rules as (name, series, condition), install order *)
  alerts : alert_firing list;  (** chronological alert firings *)
  budgets : Forensics.budget_row list;
      (** per-request leak budgets (trace-id sorted); the rows sum exactly
          to [sensitive_unsafe_total] — both sides are accumulated by the
          same exposure-ledger pass *)
}

val install_default_alerts : Obs.ctx -> unit
(** Arm the standing SLO pack on a context: [exposure-slo] (sensitive
    bytes outside mlocked-anon for 3 consecutive ticks), [swap-pressure]
    (any used swap slot), and the two constant-time sentinels —
    [ct-leakage], a zero-tolerance spread rule over
    [rsa.private_op.word_muls] that fires if any two private operations
    ever charged a different word-mul count, and [ct-leakage-limbs], the
    same rule over [rsa.private_op.limb_traffic] guarding the branchless
    [Bn.Ct] sweeps one layer below the ladder.  {!run} installs it, so every
    fleet shard and every [memguard_cli observe] run has it
    armed. *)

val run :
  ?level:Protection.level ->
  ?num_pages:int ->
  ?seed:int ->
  ?rng:Memguard_util.Prng.t ->
  ?churn:int ->
  ?low:int ->
  ?high:int ->
  ?breach_age:int ->
  ?server:Timeline.server ->
  ?obs:Obs.ctx ->
  ?recorder:(Obs.Snapshot.t -> unit) ->
  unit ->
  t
(** One observed fig-5 timeline run ({!Experiment.timeline} on a fresh
    system) with the default alert pack installed and, when [breach_age]
    is given, the exposure SLO armed.  Defaults match
    {!Experiment.timeline}: [Unprotected], 8192 pages, seed 1, [Ssh].  [rng], [low], [high] and
    [recorder] are forwarded to {!Experiment.timeline} unchanged (the
    fleet passes a per-shard stream and its plateau sizes; [memguard_cli
    observe --flight] a recorder, whose archive names [breach_age] in its
    meta when it is given).  [obs] (default: a fresh enabled context) is
    the context the run records into; pass one to keep reading it after
    the run — the fleet takes its event stream from it, [memguard_cli
    observe --prom] its series and span histograms. *)

val sensitive_unsafe_total : t -> int
(** Byte·ticks accumulated by {e sensitive} origins in any class other
    than mlocked-anon — the headline number: zero at Integrated (the
    confinement result), growing monotonically at Unprotected. *)

val class_total : t -> Obs.mem_class -> int
(** Test oracle: total byte·ticks accumulated in one memory class (all
    origins). *)

val class_series : t -> Obs.mem_class -> (int * int) list
(** Test oracle: cumulative byte·ticks of sensitive origins in one class per
    tick. *)

val to_html : t -> string
(** Self-contained report: metadata table, per-origin and per-class
    exposure charts, hit-count chart, origin×class totals matrix,
    lifetime percentiles, breach list, telemetry sparkline panel, and
    alert table.  All interpolated names are HTML-escaped. *)

val svg_sparkline : (int * float) list -> string
(** Test oracle: inline 160x28 SVG sparkline of one series, auto-scaled to its
    own min/max envelope.  Shared by the dashboard and diff HTML reports. *)

val pp_summary : Format.formatter -> t -> unit
(** Terminal summary: headline exposure + totals + breach count. *)

val pp_telemetry : Format.formatter -> t -> unit
(** Terminal telemetry view: one row per sampled tick over the headline
    series (free, swap, page-cache and locked frames, sensitive-unsafe
    bytes, sweep cycles, scan hits, cycles per tick), then one [ALERT]
    line per firing, or ["no alerts fired"]. *)

val diff_html :
  base_name:string ->
  cur_name:string ->
  Memguard_obs.Obs.Snapshot.t ->
  Memguard_obs.Obs.Snapshot.t ->
  Memguard_obs.Obs.Diff.t ->
  string
(** Side-by-side diff of two flight archives as a self-contained HTML
    page: verdict summary, configuration changes, the full delta table
    with improvement/regression coloring ([hard] tagged), and paired
    base/current sparklines for every series both archives retained. *)

val trajectory_html : (string * Memguard_obs.Obs.Snapshot.t) list -> string
(** Trend view over an ordered list of [(name, archive)] runs: one
    sparkline per flattened observable (x = run index), with first/last
    values and the relative drift.  Per-request budget and per-shard
    keys are omitted — they are drill-down detail, not trends. *)
