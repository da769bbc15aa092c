(** Leak forensics: reconstruct, for a scanner hit or an exposure breach,
    the full causal story — originating request, syscall chain, copy
    fan-out, zeroed-or-still-live verdicts, and the per-request leak
    budget.  Everything is derived read-only from the observability
    context (causal spans, event ring, provenance registry, exposure
    ledger); building a report never perturbs the simulation. *)

module Obs = Memguard_obs.Obs
module Scanner = Memguard_scan.Scanner
module Report = Memguard_scan.Report

type verdict =
  | Zeroed  (** a later zeroing event covered the copy *)
  | Still_live  (** a same-trace provenance interval still covers it *)
  | Recycled
      (** freed or overwritten without a deliberate zero — the paper's
          "copies are not erased before entering unallocated memory" *)

val verdict_name : verdict -> string

(** One step of the causal chain (a span on the path from the request
    root down to the span that registered the copy). *)
type link = {
  lk_span : int;
  lk_parent : int;
  lk_name : string;
  lk_pid : int;
  lk_start_tick : int;
  lk_end_tick : int;  (** [-1] while still open *)
}

(** One lifecycle event of the owning trace (copy creation, COW fan-out,
    swap traffic, zeroing, breach).  [fn_addr] is [-1] for events that
    carry a pfn or slot instead of a byte address (the pfn/slot is then
    in [fn_len]). *)
type fan_node = {
  fn_seq : int;
  fn_tick : int;
  fn_kind : string;
  fn_pid : int;
  fn_addr : int;
  fn_len : int;
  fn_origin : string;
  fn_span : int;
  fn_span_name : string;
  fn_verdict : verdict option;  (** judged for [copy_created] nodes only *)
}

type t = {
  f_tick : int;
  f_label : string;
  f_addr : int;
  f_origin : string;  (** [""] when no provenance interval covers the hit *)
  f_birth_tick : int;  (** [-1] when unknown *)
  f_trace : int;  (** [0] = untraced *)
  f_request : string;  (** root span name; ["untraced"] for trace 0 *)
  f_request_pid : int;
  f_chain : link list;  (** request root first, birth span last *)
  f_fanout : fan_node list;  (** seq order *)
  f_live : (int * int * string) list;  (** still-live [(addr, len, origin)] *)
  f_leak_budget : int;  (** byte·ticks attributed to the trace *)
}

val of_addr : Obs.ctx -> tick:int -> label:string -> addr:int -> t
(** Core constructor: resolve the copy that covered [addr] {e at} [tick]
    (latest [Copy_created] event at or before [tick] in the ring, falling
    back to the provenance registry for intervals older than the ring),
    walk its birth span to the trace root, and collect the trace's
    fan-out and live intervals. *)

val of_hit : Obs.ctx -> tick:int -> Scanner.hit -> t

val of_snapshot : Obs.ctx -> Report.snapshot -> hit:int -> t option
(** Forensics for the [hit]-th hit of a snapshot; [None] out of range. *)

val breaches : Obs.ctx -> Obs.record list
(** The [Exposure_breach] records retained in the ring, oldest first. *)

val of_breach : Obs.ctx -> Obs.record -> t option
(** Forensics for a breach record ([None] for any other event). *)

(** {2 Per-request leak budgets} *)

type budget_row = {
  br_trace : int;
  br_request : string;  (** root span name; ["untraced"] for trace 0 *)
  br_pid : int;
  br_start_tick : int;  (** root span start; [-1] for the untraced bucket *)
  br_byte_ticks : int;
}

val budget_table : Obs.ctx -> budget_row list
(** {!Obs.Trace.leak_budget} joined with each trace's root span — the
    table {!Dashboard} and the fleet report render.  Trace-id sorted;
    the rows sum exactly to the exposure ledger's sensitive byte·tick
    total (both are accumulated by the same ledger pass). *)

(** {2 Rendering} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_json : t -> string
(** Canonical single-object JSON (deterministic field order). *)

val to_html : t -> string

val html_escape : string -> string
(** Escape [<], [>] and [&] for HTML text — shared by every HTML
    renderer (re-exported as {!Dashboard.html_escape}). *)
