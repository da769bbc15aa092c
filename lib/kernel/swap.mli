(** Simulated swap device.

    The backing store is attacker-observable (a real disk partition), which
    is precisely why the paper's solutions call [mlock]: "memory that is
    swapped out is not immediately cleared".  Slot content persists after
    swap-in and after slot free, as on a real swap partition. *)

type t

val create : ?slots:int -> page_size:int -> unit -> t
(** [slots] defaults to 1024. *)

val total_slots : t -> int
val used_slots : t -> int
val free_slots : t -> int

val slot_in_use : t -> int -> bool
(** Is the slot currently reserved?  (Audit accessor: every [Swapped] PTE
    must point at an in-use slot.)  False for out-of-range slots. *)

val used_slot_list : t -> int list
(** The in-use slots, ascending.  (Audit accessor: the swap-slot /
    page-table cross-check walks both sides of the mapping.) *)

val store : t -> string -> int option
(** Test oracle: write one page of data to a free slot; [None] when swap is
    full.  The string must be exactly [page_size] bytes. *)

val reserve : t -> int option
(** Claim a free slot without writing (lets the caller encrypt with a
    slot-derived nonce before {!write_slot}). *)

val write_slot : t -> int -> string -> unit
(** Write a reserved (or used) slot.  One page exactly. *)

val load : t -> int -> string
(** Read a slot (during swap-in).  The slot stays used. *)

val release : t -> int -> unit
(** Mark the slot free.  Its content is NOT cleared (vanilla behaviour). *)

val raw : t -> bytes
(** The device content, for the swap-disclosure ablation. *)
