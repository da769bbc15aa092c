(** The page cache: physical frames caching file pages.

    The PEM-encoded private key file lands here on every read and — in the
    vanilla kernel — stays until memory pressure evicts it.  The paper's
    integrated solution adds an [O_NOCACHE] open flag whose read path calls
    [remove_from_page_cache] + [clear_highpage] + [__free_pages]; that is
    {!evict_ino} here. *)

type t

val create :
  ?obs:Memguard_obs.Obs.ctx -> Memguard_vmm.Phys_mem.t -> Memguard_vmm.Buddy.t -> t
(** [obs] (default {!Memguard_obs.Obs.null}) receives
    [Page_cache_insert]/[Page_cache_evict] events, a [Copy_created] with
    origin [Page_cache] per cached page, and insert/eviction counters. *)

val lookup : t -> ino:int -> index:int -> int option
(** Cached frame (pfn) for page [index] of file [ino]. *)

val insert : t -> ino:int -> index:int -> string -> int option
(** Cache one page of file content (at most [page_size] bytes; shorter
    content is zero-padded, as [readpage] zeroes the tail).  Returns the pfn,
    or [None] if physical memory is exhausted.  Replaces any previous frame
    for the same (ino, index). *)

val evict_ino : t -> ino:int -> unit
(** Drop every cached page of [ino]: frames are cleared then freed —
    the [O_NOCACHE] path, effective even without zero-on-free. *)

val evict_lru : t -> bool
(** Reclaim the least-recently-used cached page (memory pressure).
    [false] when the cache is empty.  Unlike {!evict_ino}, reclaim does
    NOT clear the frame — eviction just frees it, which is how file data
    (like the PEM text) ends up readable in unallocated memory on a
    vanilla kernel. *)

val cached_frames : t -> int
(** Total number of frames held by the cache. *)

val entries : t -> (int * int * int) list
(** Every cached page as [(ino, index, pfn)], sorted — the
    residency view for [/proc]-style introspection. *)
