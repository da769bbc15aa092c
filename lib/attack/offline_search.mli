(** The attacker's offline search, the last step of every disclosure
    attack: grep the disclosed bytes (the ext2 device, the n_tty dump, a
    core file) for key material. *)

val count_copies : patterns:(string * string) list -> bytes -> int
(** The (possibly overlapping) occurrences of each [(label, needle)]
    pattern in [data], summed, from one {!Memguard_util.Multi_search}
    sweep.  Equal to the sum of {!Memguard_util.Bytes_util.count} over the
    needles, which makes one pass per needle. *)
