(** Incremental memory scanning: per-page hit lists cached against
    {!Memguard_vmm.Phys_mem} generation counters, so repeated sweeps (the
    [Timeline] runs that snapshot memory every tick) re-scan only the pages
    written since the previous sweep, plus a [max_needle_len - 1] byte
    overlap into neighbouring pages so matches straddling a page boundary
    are never missed.  A page still at generation [0] has not been written
    since boot and holds only zeros: no needle with a non-zero byte can
    start there, so the first sweep accounts it without reading it (unless
    some needle is all zero bytes).  Results are identical to a cold
    {!Scanner.scan}:
    the cache stores raw match offsets only and re-derives each hit's
    {!Scanner.location} (which changes on alloc/free without any byte
    being written) at query time. *)

type t

val create : Memguard_kernel.Kernel.t -> patterns:(string * string) list -> t
(** Compile [patterns] (non-empty [(label, needle)] pairs — raises
    [Invalid_argument] on an empty needle) for the kernel's physical
    memory.  Nothing is scanned until the first {!scan}. *)

val patterns : t -> (string * string) list
(** Test oracle: the cache's patterns, in the order given to [create]. *)

val scan : t -> Scanner.hit list
(** Equivalent to [Scanner.scan k ~patterns] — byte-for-byte the same hit
    list — but only dirty pages are re-swept.  The first call sweeps
    everything. *)

val last_pages_scanned : t -> int
(** Number of pages the most recent {!scan} swept (diagnostics and
    benchmarks; the first scan reports every page).  A swept page is one
    the scanner covers and prices as read, including a never-written page
    it accounts for without reading its zeros. *)

val total_pages_scanned : t -> int
(** Cumulative pages swept over the cache's lifetime, counted the same
    way. *)

(** {1 Hit/miss statistics}

    A page the cache skipped (generation unchanged since its last sweep)
    is a cache {e hit}; a swept page is a {e miss}.  Hit rate over a run
    is [total_clean_pages / (total_clean_pages + total_pages_scanned)]. *)

type stats = {
  scans : int;  (** number of {!scan} calls since creation *)
  last_pages_scanned : int;  (** pages swept by the most recent scan (misses) *)
  total_pages_scanned : int;  (** cumulative pages swept *)
  last_clean_pages : int;  (** pages skipped by the most recent scan (hits) *)
  total_clean_pages : int;  (** cumulative pages skipped *)
}

val stats : t -> stats

