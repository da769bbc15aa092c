(** Core-dump exposure (the Broadwell et al. "Scrash" problem the paper
    cites): when a process crashes, its *entire mapped address space* —
    including any mlocked, aligned key region — is written to a world- or
    developer-readable core file.

    This is the attack class the paper's countermeasures do NOT address
    (they reduce the number of copies, but the one remaining copy is still
    mapped), supporting its closing argument that fully eliminating
    exposure needs special hardware. *)

type t = {
  pid : int;
  data : bytes;  (** the process's mapped pages, in virtual-address order *)
}

val dump : Memguard_kernel.Kernel.t -> Memguard_kernel.Proc.t -> t
(** Snapshot every resident page of the process (what the kernel's core
    writer emits).  Swapped-out pages are pulled back in first. *)

val count_copies : t -> patterns:(string * string) list -> int
