(** Aggregation of scanner output into the quantities the paper plots:
    the number of key copies in allocated vs unallocated memory (the bar
    charts of Figures 5(b)/6(b)/10/12/...) and their physical locations
    (the scatter plots of Figures 5(a)/6(a)/9/11/...). *)

type origin_info = {
  origin : Memguard_obs.Obs.origin;  (** which copy site produced the bytes *)
  age_ticks : int;  (** snapshot time minus the copy's birth tick *)
}

type annotated = {
  hit : Scanner.hit;
  info : origin_info option;  (** [None]: no provenance interval covers it *)
}

type snapshot = {
  time : int;  (** simulation tick *)
  total : int;
  allocated : int;
  unallocated : int;
  hits : Scanner.hit list;
  annotated : annotated list;
      (** per-hit provenance, same order as [hits]; [[]] unless an enabled
          observability context was passed to {!of_hits} *)
}

val of_hits :
  ?obs:Memguard_obs.Obs.ctx -> time:int -> Scanner.hit list -> snapshot
(** With an enabled [obs] (default {!Memguard_obs.Obs.null}), each hit is
    joined against the provenance registry to record which copy site the
    matched bytes came from and how old the copy is.  The join is read-only
    and never changes [hits] or the headline counts. *)

val by_label : snapshot -> (string * int) list
(** Hit count per pattern label, label-sorted. *)

val by_origin : snapshot -> (string * int) list
(** Hit count per provenance origin name (plus ["unknown"] for hits no
    interval covers), name-sorted.  Empty when the snapshot was taken
    without an enabled observability context. *)

val locations : snapshot -> (int * bool) list
(** [(physical address, is_allocated)] pairs — one figure-5(a) column. *)

val pp_series : Format.formatter -> snapshot list -> unit
(** Render a timeline as the paper's count-vs-time table:
    [time  allocated  unallocated  total]. *)

val pp_series_origins : Format.formatter -> snapshot list -> unit
(** Companion table attributing each tick's copies to their origin sites
    with age ranges — the Section-4 "where did this copy come from"
    narrative.  Only meaningful for snapshots taken with an enabled
    observability context. *)
