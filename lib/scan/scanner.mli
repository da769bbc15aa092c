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

val locate : Memguard_kernel.Kernel.t -> pfn:int -> location
(** Classify a frame the way a hit on it would be classified (frame
    metadata + rmap walk).  Used by [Scan_cache], which caches raw match
    offsets and re-derives locations at query time. *)

val scan : Memguard_kernel.Kernel.t -> patterns:(string * string) list -> hit list
(** [scan k ~patterns] sweeps all of physical memory — one single
    multi-pattern pass, however many patterns there are.  [patterns] are
    [(label, needle)] pairs; needles must be non-empty.  Hits are returned
    sorted by [(addr, label)]. *)

val scan_swap : Memguard_kernel.Kernel.t -> patterns:(string * string) list -> (string * int) list
(** Sweep the swap device (if any): [(label, byte offset)] of each match —
    the swap-disclosure ablation. *)

val count_copies : patterns:(string * string) list -> bytes -> int
(** The attacker's offline search, the last step of every disclosure
    attack (the ext2 device, the n_tty dump, a core file): the (possibly
    overlapping) occurrences of each [(label, needle)] pattern in [data],
    summed, from the same one-sweep matcher as {!scan}.  Needles must be
    non-empty. *)

val confined : Memguard_kernel.Kernel.t -> hit -> bool
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

(** {1 Partial matches and the LKM's /proc output}

    The paper's module anchors on the first 32-bit word of each pattern and
    extends as far as memory keeps matching, reporting a partial match from
    [MIN = 5] words (20 bytes) up — fragments of a key are still worth
    reporting because big-number arithmetic can reconstruct the rest. *)

type detailed_hit = {
  base : hit;
  matched_bytes : int;  (** length of the matching run *)
  full : bool;
}

val scan_detailed :
  Memguard_kernel.Kernel.t ->
  patterns:(string * string) list ->
  ?min_bytes:int ->
  unit ->
  detailed_hit list
(** Like {!scan} but also reports partial matches of at least [min_bytes]
    (default 20, the LKM's [MIN * 4]).  A full match is never double
    reported as its own prefix. *)

val render_proc_output :
  Memguard_kernel.Kernel.t -> patterns:(string * string) list -> string
(** The exact report format of the paper's LKM, one line per hit:
    ["Full match found for d of size 32 bytes at: 000507392, in page: 000123, processes: 5 7"]. *)
