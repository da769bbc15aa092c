(** Simulated physical memory: a flat byte array divided into fixed-size
    frames, with a [Page.t] descriptor per frame.

    Everything sensitive in the simulation lives in here — the OCaml heap
    only sees transient copies inside the crypto engine (see DESIGN.md).
    The memory-disclosure attacks and the scanner read this array directly,
    exactly as the paper's exploits and LKM read physical RAM. *)

type t

val create : ?page_size:int -> num_pages:int -> unit -> t
(** Fresh zeroed memory.  [page_size] defaults to 4096.  [num_pages] must be
    a power of two (the buddy allocator manages whole power-of-two blocks). *)

val page_size : t -> int
val num_pages : t -> int
val size_bytes : t -> int

val page : t -> int -> Page.t
(** Frame descriptor for page-frame-number [pfn].  Raises [Invalid_argument]
    when out of range. *)

val addr_of_pfn : t -> int -> int
val pfn_of_addr : t -> int -> int

val read : t -> addr:int -> len:int -> string
val write : t -> addr:int -> string -> unit
val set_byte : t -> int -> char -> unit

val blit_frame : t -> src_pfn:int -> dst_pfn:int -> unit
(** Copy a whole frame (the COW copy). *)

val clear_frame : t -> int -> unit
(** Zero a whole frame (the paper's [clear_highpage]). *)

val frame_is_zero : t -> int -> bool

(** {1 Frame generations}

    Every mutation through this interface ({!write}, {!set_byte},
    {!blit_frame}, {!clear_frame}) bumps a per-frame generation counter.
    The incremental scanner ([Scan_cache]) caches per-page hit lists keyed
    by these counters and re-scans only frames whose counter moved. *)

val generation : t -> int -> int
(** Current generation of frame [pfn] (starts at [0]).  Raises
    [Invalid_argument] when out of range. *)

val touch : t -> int -> unit
(** Manually bump a frame's generation.  Only needed by code that mutates
    memory through {!raw} instead of the write API. *)

(** {1 Frame class generations}

    The exposure ledger classifies a frame from its descriptor (owner +
    lock flag), not its content, so content generations cannot tell it
    when a classification became stale: freeing a page without zeroing
    changes its class ([Plain_anon] → [Free_ram]) while writing not a
    single byte.  Every descriptor mutation site therefore calls
    {!touch_class}; the ledger memoizes per-chunk classifications and
    revalidates them against these counters instead of re-classifying
    every interval on every tick (see [Obs.Exposure.advance]). *)

val class_generation : t -> int -> int
(** Descriptor-change counter of frame [pfn] (starts at [0]).  Raises
    [Invalid_argument] when out of range. *)

val class_epoch : t -> int
(** Machine-wide sum of descriptor changes — an O(1) "did any frame
    change class since I last looked" check. *)

val touch_class : t -> int -> unit
(** Record that frame [pfn]'s descriptor (owner or lock flag) changed.
    Called by the kernel/buddy/page-cache wherever they mutate a
    [Page.t]. *)

val raw : t -> bytes
(** The underlying array.  Used by the scanner ([scanmemory] reads all of
    physical memory) and by the disclosure attacks; regular simulated code
    must go through {!read}/{!write} or the kernel's virtual-memory API.
    Writing through [raw] bypasses the generation counters — call {!touch}
    on the affected frames, or incremental scans will serve stale hits. *)
