(** Byte-level utilities shared across the simulator: pattern search (the
    heart of the memory scanner), zero checks and hex encoding. *)

val find_all : ?from:int -> ?until:int -> needle:string -> bytes -> int list
(** Test oracle: [find_all ~needle haystack] returns the (ascending) offsets of
    every occurrence of [needle] within [haystack.(from..until-1)].  Occurrences
    may overlap.  [from] defaults to [0], [until] to [Bytes.length haystack].
    Raises [Invalid_argument] on an empty needle or a bad range. *)

val find_first : ?from:int -> ?until:int -> needle:string -> bytes -> int option
(** Test oracle: first occurrence only, or [None]. *)

val count : ?from:int -> ?until:int -> needle:string -> bytes -> int
(** Number of (possibly overlapping) occurrences. *)

val is_zero : bytes -> pos:int -> len:int -> bool
(** [true] iff the whole range is zero bytes (word-at-a-time scan).
    Raises [Invalid_argument] on a bad range. *)

val hex_of_string : string -> string
(** Lowercase hex encoding. *)

val string_of_hex : string -> string
(** Inverse of {!hex_of_string}. Raises [Invalid_argument] on bad input. *)

val human_size : int -> string
(** [human_size 4096] is ["4.0KiB"], etc. *)
