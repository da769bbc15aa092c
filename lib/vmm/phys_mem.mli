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

val blit_frame : t -> src_pfn:int -> dst_pfn:int -> unit
(** Copy a whole frame (the COW copy). *)

val clear_frame : t -> int -> unit
(** Zero a whole frame (the paper's [clear_highpage]). *)

val frame_is_zero : t -> int -> bool
(** Test oracle: [true] iff the whole frame is zero bytes. *)

(** {1 Frame generations}

    Every mutation through this interface ({!write}, {!set_byte},
    {!blit_frame}, {!clear_frame}) bumps a per-frame generation counter.
    The incremental scanner ([Scan_cache]) caches per-page hit lists keyed
    by these counters and re-scans only frames whose counter moved. *)

val generation : t -> int -> int
(** Current generation of frame [pfn].  Raises [Invalid_argument] when out
    of range.  It starts at [0] and only grows, so [0] means the frame has
    not been written since {!create} zeroed it: it holds only zero bytes.
    [Scan_cache] relies on this to account such frames as swept without
    reading them. *)

val touch : t -> int -> unit
(** Test oracle: manually bump a frame's generation.  Only needed by code that
    mutates memory through {!raw} instead of the write API. *)

val raw : t -> bytes
(** The underlying array.  Used by the scanner ([scanmemory] reads all of
    physical memory) and by the disclosure attacks; regular simulated code
    must go through {!read}/{!write} or the kernel's virtual-memory API.
    Writing through [raw] bypasses the generation counters — call {!touch}
    on the affected frames, or incremental scans will miss the write: a
    frame still at generation [0] is taken to be all zero, so even the
    first scan does not read it. *)
