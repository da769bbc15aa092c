(** Per-process state: page table and heap-allocator bookkeeping.

    The types are transparent because {!Kernel} is the only intended
    manipulator; user code should go through the kernel's syscall facade. *)

type present = {
  mutable pfn : int;
  mutable cow : bool;  (** write must copy while the frame is shared *)
  mutable locked : bool;  (** mlocked: never selected for swap-out *)
}

type pte =
  | Present of present
  | Swapped of int  (** slot number on the swap device *)

type t = {
  pid : int;
  name : string;
  parent : int option;
  page_table : (int, pte) Hashtbl.t;  (** vpn -> pte *)
  mutable brk : int;  (** heap end as a byte offset from {!heap_base} *)
  mutable heap_pages : int;  (** number of mapped heap pages *)
  mutable free_list : (int * int) list;
      (** freed (offset, size) runs inside the heap, offset-sorted, merged *)
  allocs : (int, int) Hashtbl.t;  (** live allocation offset -> size *)
  mutable alive : bool;
}

val heap_base : int
(** Virtual byte address where every process's heap starts. *)

val create : pid:int -> name:string -> parent:int option -> t

val mapped_vpns : t -> int list
(** All mapped virtual page numbers, sorted (deterministic iteration). *)

val find_pte : t -> vpn:int -> pte option

(** {1 Heap free-list bookkeeping} *)

val straddles : page_size:int -> off:int -> size:int -> bool
(** Would a sub-page allocation at [off] cross a page boundary? *)

val take_free_run : t -> size:int -> page_size:int -> int option
(** First-fit: carve [size] bytes out of a free run and return the offset.
    Like a slab allocator, a sub-page allocation is never placed straddling
    a page boundary (so key material always lies within one frame, which is
    what lets a physical-memory scan see whole patterns — the paper's LKM
    relies on the same property of the real allocators). *)

val take_free_run_aligned : t -> size:int -> align:int -> int option
(** First-fit for an [align]-aligned placement (used by posix_memalign so
    that repeatedly allocated and freed key regions recycle their pages). *)

val insert_free_run : t -> off:int -> size:int -> unit
(** Return a run to the free list, merging with adjacent runs. *)

