(** Traffic-pattern generators: how many concurrent connections the clients
    hold open at each simulation tick.

    The paper's Perl driver produces one fixed shape (0 → 8 → 16 → 8 → 0);
    these generators let the timeline and the benches explore others, e.g.
    to show the copy-flood tracks concurrency whatever the shape.
    ([Memguard.Timeline] builds the paper's shape as a {!Steps} value from
    its event schedule.) *)

type pattern =
  | Constant of int
  | Steps of (int * int) list
      (** [(from_tick, target)] change points, ascending; concurrency before
          the first change point is 0 *)
  | Sawtooth of { low : int; high : int; period : int }
      (** linear ramp [low → high] repeating every [period] ticks *)
  | Poisson of { mean : float }
      (** independent Poisson draw per tick (clipped at 4× the mean) *)

val concurrency_at : pattern -> Memguard_util.Prng.t -> tick:int -> int
(** Target concurrency at [tick] (>= 0).  [Poisson] consumes randomness;
    the other patterns do not. *)
