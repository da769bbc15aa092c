(** Client traffic: how many concurrent connections the clients hold open
    at each simulation tick.

    The paper's Perl driver produces one shape (0 → 8 → 16 → 8 → 0), and a
    pattern is that shape as a list of change points.
    ([Memguard.Timeline.paper_traffic] builds it from the timeline's event
    schedule.) *)

type pattern =
  | Steps of (int * int) list
      (** [(from_tick, target)] change points, ascending; concurrency before
          the first change point is 0 *)

val concurrency_at : pattern -> Memguard_util.Prng.t -> tick:int -> int
(** Target concurrency at [tick] (>= 0).  The PRNG is not read: it stays in
    the signature because the benchmark's own timeline driver calls this
    function with a split stream, as {!Memguard.Timeline.run} does, and both
    must keep the call sequence they share. *)
