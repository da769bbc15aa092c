(** The attack built on the n_tty signed-type bug [\[12\]]: an unprivileged
    read that returns a large contiguous piece of physical memory "of a
    random location and a random amount" — about 50% of RAM on average in
    the paper's runs.  Unlike the ext2 leak it sees allocated AND
    unallocated memory, which is why only minimising the number of live
    copies (not just clearing free pages) reduces its success rate. *)

type dump = {
  start : int;  (** physical byte offset where the disclosed window begins *)
  data : bytes;
}

val run :
  Memguard_util.Prng.t ->
  Memguard_kernel.Kernel.t ->
  ?mean_fraction:float ->
  ?jitter:float ->
  unit ->
  dump
(** Disclose a random window.  The window length is uniform in
    [mean_fraction ± jitter] of physical memory (defaults 0.5 and 0.1, per
    the paper's "about 50% on average"); its start is uniform and the
    window wraps around the end of physical memory, so every physical
    address is disclosed with probability equal to the disclosed
    fraction — matching the paper's observation that the post-hardening
    success rate equals the fraction of memory disclosed.  Raises
    [Invalid_argument] unless [jitter >= 0], [mean_fraction > 0] and the
    window [mean_fraction ± jitter] lies within [\[0, 1\]]. *)

val count_copies : dump -> patterns:(string * string) list -> int

val found_any : dump -> patterns:(string * string) list -> bool
