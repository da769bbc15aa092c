(** The [scanmemory] loadable kernel module of Section 3.1: a linear O(n)
    sweep of physical memory for key-part byte patterns, with each hit
    attributed — via frame metadata and the anonymous reverse map — to the
    processes that have the page in their logical address space. *)

type location =
  | Allocated_anon of int list
      (** user memory; the pids mapping the frame (rmap walk).  An empty
          list corresponds to the LKM printing ["0"] — a live page reachable
          only by the kernel *)
  | Allocated_page_cache of { ino : int; index : int }
  | Allocated_kernel
  | Unallocated  (** the frame is on the buddy free lists *)

type hit = {
  label : string;  (** which pattern matched (e.g. ["d"], ["p"], ["pem"]) *)
  addr : int;  (** physical byte address of the match *)
  pfn : int;  (** page frame holding the first byte *)
  location : location;
}

val is_allocated : location -> bool

type owners
(** One scan's reverse map: frame -> pids of the live processes mapping
    it.  Built from the page tables in one pass on the first lookup of an
    anonymous frame, so a scan with no anon hit never builds it; every
    later lookup indexes the table.  It describes the page tables as they
    were at that first lookup: use one per scan, or {!reset_owners} it. *)

val owners : Memguard_kernel.Kernel.t -> owners
(** An empty table for the kernel's current page tables. *)

val reset_owners : owners -> unit
(** Make the next lookup rebuild the table (in place: the array is
    reused).  [Scan_cache] holds one table and resets it every scan. *)

val locate : owners -> pfn:int -> location
(** Classify a frame the way a hit on it would be classified (frame
    metadata + rmap walk).  Used by [Scan_cache], which caches raw match
    offsets and re-derives locations at query time. *)

val scan : Memguard_kernel.Kernel.t -> patterns:(string * string) list -> hit list
(** [scan k ~patterns] sweeps all of physical memory — one single
    multi-pattern pass, however many patterns there are.  [patterns] are
    [(label, needle)] pairs; needles must be non-empty.  Hits are returned
    sorted by [(addr, label)]. *)

type matcher
(** Compiled [(label, needle)] patterns. *)

val matcher : (string * string) list -> matcher
(** Compile patterns once for repeated {!sweep}s (compiling costs more
    than sweeping a small machine).  Raises [Invalid_argument] on an empty
    needle. *)

val sweep : Memguard_kernel.Kernel.t -> matcher -> hit list
(** The hits of {!scan} without charging the sweep to the cost model: for
    checks that must leave a run's totals as they were. *)

val scan_swap : Memguard_kernel.Kernel.t -> matcher -> (string * int) list
(** Sweep the swap device (if any): [(label, byte offset)] of each match —
    the swap-disclosure ablation. *)

val count_copies : patterns:(string * string) list -> bytes -> int
(** The attacker's offline search, the last step of every disclosure
    attack (the ext2 device, the n_tty dump, a core file): the (possibly
    overlapping) occurrences of each [(label, needle)] pattern in [data],
    summed, from the same one-sweep matcher as {!scan}.  Needles must be
    non-empty. *)

val confined : owners -> hit -> bool
(** Confinement oracle for the Integrated solution: [true] iff the hit's
    frame is anonymous user memory, [mlock]ed, and mapped by at least one
    live process — i.e. the blessed in-use key buffer.  Every other
    location (free frame, page cache, kernel frame, unlocked or unmapped
    anon frame) means a key copy escaped the countermeasures. *)

val key_patterns :
  ?pem:string -> Memguard_crypto.Rsa.priv -> (string * string) list
(** The patterns the paper treats as "a copy of the private key": the
    big-endian magnitudes of [d], [p], [q], and (when [pem] is supplied)
    the PEM file text. *)

val pp_hit : Format.formatter -> hit -> unit
