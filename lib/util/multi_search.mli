(** Single-pass multi-pattern search: one sweep of a haystack reports every
    occurrence of every needle at once, instead of one
    Boyer–Moore–Horspool pass per needle.

    The matcher is a multi-needle Horspool (Wu–Manber): a shift table over
    2-byte blocks shared by all patterns, computed from the shortest
    pattern length, skips the sweep forward by up to [min_len - 1] bytes
    per probe; a zero shift verifies the candidate patterns whose prefix
    ends in the probed block.  All (possibly overlapping) occurrences are
    reported, including needles that are prefixes of one another and
    duplicate needles (property-tested against a naive reference). *)

type t

val compile : string array -> t
(** Build the matcher.  Patterns must be non-empty (raises
    [Invalid_argument] otherwise); an empty array yields a matcher that
    never matches.  Pattern indices in match callbacks refer to positions
    in this array. *)

val max_len : t -> int
(** Length of the longest pattern ([0] when there are none) — callers
    re-scanning a sub-range must extend it by [max_len t - 1] bytes to
    catch matches straddling the range boundary. *)

val iter :
  ?from:int -> ?until:int -> t -> bytes -> f:(pos:int -> pat:int -> unit) -> unit
(** One pass over [haystack.(from..until-1)], calling [f] for every match:
    [pos] is the offset of the occurrence, [pat] the pattern index.
    Matches are delivered in ascending [pos]; at equal [pos], ascending
    [pat].  [from] defaults to [0], [until] to the haystack length.
    Raises [Invalid_argument] on a bad range. *)

val find_all : ?from:int -> ?until:int -> t -> bytes -> (int * int) list
(** Test oracle: the matches of {!iter} as an [(pos, pat)] list. *)

val count : t -> bytes -> int
(** The number of matches {!iter} reports: the (possibly overlapping)
    occurrences of every pattern, summed, from one sweep. *)
