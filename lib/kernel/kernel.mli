(** The kernel facade: processes, fork with copy-on-write, demand-zeroed
    anonymous memory, a per-process heap allocator (malloc / free /
    posix_memalign / mlock), the page cache, file I/O with the paper's
    [O_NOCACHE] extension, swap, and the ext2 directory-leak path used by
    the first attack.

    Policy knobs map one-to-one onto the paper's countermeasure layers:
    - [zero_on_free]   — kernel-level solution (clear pages entering the
                         buddy free lists);
    - [secure_dealloc] — the Chow et al. comparator (the *process* allocator
                         zeroes on [free], but freed-then-retained heap and
                         exited-process pages are still handled by the
                         vanilla kernel unless [zero_on_free] is also set —
                         here the allocator zeroing happens at [free] time,
                         so process exit does NOT zero still-live
                         allocations). *)

type t

exception Out_of_memory

exception Segfault of { pid : int; vaddr : int }

type config = {
  page_size : int;  (** default 4096 *)
  num_pages : int;  (** default 8192 = 32 MiB; must be a power of two *)
  zero_on_free : bool;  (** default false *)
  secure_dealloc : bool;  (** default false *)
  swap_slots : int;  (** default 0 = no swap device *)
  swap_encrypt : bool;
      (** default false.  Provos's encrypted virtual memory [\[19\]]: pages
          are AES-encrypted with an ephemeral per-boot key before they
          reach the swap device, so a disclosed swap partition is useless.
          Orthogonal to mlock: encryption protects what *does* swap;
          mlock prevents swapping at all. *)
}

val default_config : config

val create : ?config:config -> ?obs:Memguard_obs.Obs.ctx -> unit -> t
(** [obs] (default {!Memguard_obs.Obs.null}) is the observability context
    threaded through the allocator, the page cache, the swap path and the
    COW machinery.  A disabled context (the default) costs one branch per
    instrumented site and records nothing. *)

(** {1 Accessors} *)

val mem : t -> Memguard_vmm.Phys_mem.t
val buddy : t -> Memguard_vmm.Buddy.t
val fs : t -> Fs.t
val page_cache : t -> Page_cache.t
val swap : t -> Swap.t option
val page_size : t -> int
val obs : t -> Memguard_obs.Obs.ctx

(** {1 Processes} *)

val spawn : t -> name:string -> Proc.t
(** A fresh process with an empty address space. *)

val fork : t -> Proc.t -> Proc.t
(** POSIX fork: the child shares every frame copy-on-write.  A frame is
    physically duplicated only when one side writes to it — the mechanism
    [RSA_memory_align] exploits to keep a single physical key copy no
    matter how many processes are forked. *)

val exit : t -> Proc.t -> unit
(** Terminate: every exclusively-held frame returns to the buddy allocator
    (uncleared unless [zero_on_free]); shared frames drop a reference. *)

val live_procs : t -> Proc.t list
(** Sorted by pid. *)

(** {1 Process memory} *)

val malloc : t -> Proc.t -> int -> int
(** Returns a virtual address.  Recycled heap memory is NOT cleared (the
    libc behaviour that leaves key copies in allocated memory).  Raises
    {!Out_of_memory}. *)

val free : t -> Proc.t -> int -> unit
(** Frees a [malloc]/[memalign] allocation.  Under [secure_dealloc] the
    region is zeroed first.  The heap pages stay mapped to the process
    (allocated memory, from the kernel's point of view). *)

val alloc_size : t -> Proc.t -> int -> int option
(** Size of the live allocation at a virtual address, if any. *)

val memalign : t -> Proc.t -> bytes:int -> int
(** posix_memalign: a page-aligned allocation covering whole pages. *)

val mlock : t -> Proc.t -> addr:int -> len:int -> unit
(** Pin the pages covering the range: never swapped out. *)

val write_mem : t -> Proc.t -> addr:int -> string -> unit
(** Write through the process's page tables, taking COW faults as needed.
    Raises {!Segfault} on unmapped addresses. *)

val read_mem : t -> Proc.t -> addr:int -> len:int -> string

val zero_mem : t -> Proc.t -> addr:int -> len:int -> unit
(** Overwrite the range with zeros (through COW, like {!write_mem}) and
    retire any key-copy provenance intervals covering the physical bytes. *)

(** {1 Key-copy lifecycle notes (observability)}

    Library code ({!Memguard_ssl}) calls these at the paper's copy sites.
    All three are no-ops on a disabled context.  [addr]/[len] are a
    {e virtual} range in [p]; events and provenance intervals are emitted
    per physical chunk. *)

val note_copy :
  t -> Proc.t -> origin:Memguard_obs.Obs.origin -> addr:int -> len:int -> unit
(** The range now holds a fresh copy of key material: emit [Copy_created]
    and register the physical range in the provenance registry. *)

val note_zeroed :
  t -> Proc.t -> origin:Memguard_obs.Obs.origin -> addr:int -> len:int -> unit
(** Emit [Copy_zeroed] (call after {!zero_mem}, which already retired the
    provenance). *)

val note_freed_dirty :
  t -> Proc.t -> origin:Memguard_obs.Obs.origin -> addr:int -> len:int -> unit
(** Emit [Copy_freed_dirty]: the copy was freed without zeroing, so its
    provenance interval intentionally stays live — a later scanner hit in
    unallocated memory attributes back to this origin. *)

val pfn_of_vaddr : t -> Proc.t -> int -> int option
(** Test oracle: the physical frame backing a virtual address ([None] if
    unmapped or swapped out). *)

(** {1 Files} *)

val write_file : t -> path:string -> string -> int
(** Write a file to the simulated disk (no RAM footprint until read). *)

val read_file : t -> Proc.t -> path:string -> nocache:bool -> int * int
(** Open + read a whole file: populates the page cache, then copies the
    content into a fresh [malloc]ed buffer in the calling process; returns
    [(buffer_vaddr, length)].  With [~nocache:true] (the paper's
    [O_NOCACHE]) the page-cache frames are cleared and freed immediately
    after the copy.  Raises [Not_found] for a missing path. *)

val ext2_mkdir_leak : t -> string
(** The [\[17\]] vulnerability: creating a directory on an ext2 volume
    allocates an uncleared kernel block buffer, initialises only the first
    24 bytes of directory entries, and flushes the whole block to the
    attacker-readable device.  Returns the 4 KiB block content (up to 4072
    bytes of stale kernel memory).  The buffer page stays cached while the
    directory exists, so successive calls sample distinct free pages.
    Raises {!Out_of_memory} when no reclaimable page is left. *)

val ext2_unmount : t -> unit
(** Release every cached directory block (removing the attack volume). *)

(** {1 Introspection (used by the scanner)} *)

val classify_phys : t -> addr:int -> Memguard_obs.Obs.mem_class
(** Exposure class of the frame holding physical [addr] — the same
    classification hook {!create} installs into the observability context
    ([Memguard_obs.Obs.Exposure.set_classifier]); exposed so tests and
    introspection can recompute the ledger independently. *)

val fill_owner_table : t -> int list array -> unit
(** Reverse mapping of every frame at once (the rmap walk of the paper's
    LKM, one pass over the live processes' page tables instead of one per
    frame): afterwards [tbl.(pfn)] holds the pids of the live processes
    with a present PTE for [pfn], ascending, each once, and [[]] for a
    frame no process maps.  [tbl] is overwritten in place and must have
    one entry per frame (raises [Invalid_argument] otherwise). *)

type stats = {
  free_pages : int;
  allocated_pages : int;
  cached_frames : int;
  live_proc_count : int;
  swap_slots_used : int;
}

val stats : t -> stats

val locked_frames : t -> int
(** Frames whose descriptor carries the mlock flag — the size of the
    never-swapped pool the countermeasures pin key material into.
    Sampled per tick into the ["kernel.locked_frames"] series. *)

val check_invariants : t -> (unit, string) result
(** For tests: frame refcounts equal the number of PTEs referencing each
    frame; buddy invariants hold; no PTE points at a free frame. *)
