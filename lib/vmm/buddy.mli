(** Binary buddy page allocator, the simulator's [page_alloc.c].

    Single pages go through a hot list — a LIFO stack of recently freed
    frames, the analogue of Linux's per-CPU pagevecs — so the order in
    which pages were freed is the order in which they are reused.  After a
    burst of interleaved activity this scatters fresh allocations across
    the whole physical range, exactly the property that makes the paper's
    disclosure attacks sample "random" stale pages.  Multi-page blocks use
    the classic per-order free sets with buddy coalescing; when they run
    dry the hot list is drained (coalescing as it goes).  The sets are
    bitmaps over block numbers, the hot list is an array stack and
    allocated blocks are a byte per frame, so no operation allocates and
    the lowest free block of an order is found by a word scan.

    [zero_on_free] is the paper's kernel-level countermeasure: the patch to
    [free_hot_cold_page]/[__free_pages_ok] that runs [clear_highpage] on
    every page entering the free lists, guaranteeing unallocated memory
    never carries key material. *)

type t

val max_order : int
(** Largest block order (10, as in Linux: 4 MiB blocks with 4 KiB pages). *)

val create : ?zero_on_free:bool -> ?obs:Memguard_obs.Obs.ctx -> Phys_mem.t -> t
(** All of [mem] starts free.  [zero_on_free] defaults to [false] (the
    vanilla kernel).  [obs] (default {!Memguard_obs.Obs.null}) receives
    [buddy.alloc_pages] / [buddy.free_pages] / [buddy.zero_on_free_bytes]
    counters; zero-on-free also retires provenance intervals on the
    cleared frames. *)

val zero_on_free : t -> bool
val set_zero_on_free : t -> bool -> unit

val alloc : t -> order:int -> int option
(** [alloc t ~order] returns the base pfn of a naturally-aligned block of
    [2^order] pages, or [None] when memory is exhausted.  Frames are NOT
    cleared on allocation (as in Linux unless __GFP_ZERO — disclosure via
    reuse is the point).  Order-0 requests are served from the hot list
    first (most recently freed page wins). *)

val alloc_page : t -> int option
(** [alloc t ~order:0]. *)

val free : t -> pfn:int -> order:int -> unit
(** Return a block.  Order-0 frees are pushed on the hot list; larger
    blocks coalesce into the per-order sets.  When [zero_on_free] is set
    the frames are cleared first.  Raises [Invalid_argument] on double-free
    or mismatched order. *)

val free_page : t -> int -> unit

val drain_hot : t -> unit
(** Flush the hot list into the per-order sets, coalescing (what Linux does
    when a CPU's pagevec is flushed). *)

val free_pages : t -> int
(** Number of free pages (hot list included). *)

val allocated_pages : t -> int

val free_blocks_by_order : t -> (int * int) list
(** [(order, block_count)] for every order [0..max_order] — the
    [/proc/buddyinfo] occupancy view (the hot list is separate, see
    {!hot_list_size}). *)

val hot_list_size : t -> int
(** Pages parked on the hot list (recently freed order-0 frames). *)

val is_free_block : t -> pfn:int -> bool
(** Is [pfn] covered by any free block (hot list or per-order sets)?
    Answers membership for interior pages of coalesced order>0 blocks,
    not just block bases. *)

val check_invariants : t -> (unit, string) result
(** For tests: free blocks are disjoint, aligned, within range, and page
    descriptors agree with the free lists. *)
