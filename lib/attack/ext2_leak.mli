(** The attack of Section 2 built on the ext2 [make_empty] leak [\[17\]]:
    each directory created on the attacker's USB stick flushes one
    uninitialised kernel block buffer (≤ 4072 bytes of stale memory) to a
    medium the attacker controls.  Requires no privilege; it can only ever
    observe *unallocated* (recycled) memory. *)

type t = {
  device : Buffer.t;  (** the USB stick: concatenation of directory blocks *)
  mutable directories : int;
}

val create : unit -> t

val mkdirs : t -> Memguard_kernel.Kernel.t -> n:int -> unit
(** Create [n] directories, appending each leaked block to the device.
    Stops early (keeping what it has) if kernel memory for block buffers
    runs out. *)

val device_bytes : t -> bytes

val bytes_disclosed : t -> int

val count_copies : t -> patterns:(string * string) list -> int
(** Search the device for key material, as the attacker's final grep. *)
