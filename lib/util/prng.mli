(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through a [Prng.t] so that every
    experiment is reproducible bit-for-bit from its seed.  The generator is
    splitmix64 (Steele, Lea & Flood 2014): tiny state, good statistical
    quality, and trivially splittable for independent sub-streams. *)

type t

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. *)

val of_int : int -> t
(** [of_int seed] is [create ~seed:(Int64.of_int seed)]. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val derive : t -> tag:int -> t
(** [derive t ~tag] is a {e pure} tagged split: an independent child
    generator determined only by [t]'s current state and the
    domain-separation [tag] ([>= 0]).  [t] does not advance, so any number
    of children can be derived from one master in any order — the fleet
    simulator derives shard [i]'s stream with [~tag:i] and gets the same
    stream no matter which domain runs the shard or how many siblings
    exist.  Distinct tags yield statistically independent streams.
    Raises [Invalid_argument] on a negative tag. *)

val copy : t -> t
(** [copy t] duplicates the current state (the two then evolve identically). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val byte : t -> char

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniformly random bytes. *)

val fill_bytes : t -> bytes -> pos:int -> len:int -> unit
(** Fill [len] bytes at [pos] with uniform random bytes, eight per
    generator step (not the same stream as repeated {!byte} calls).
    Raises [Invalid_argument] on a bad range. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
