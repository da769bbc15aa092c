(** A BIGNUM whose digit storage lives in *simulated* process memory.

    This is the linchpin of the reproduction on a GC-managed runtime: OCaml
    values are only transient carriers inside the crypto engine, while every
    byte with a lifetime sits behind a simulated virtual address where the
    scanner, the attacks, fork/COW and the countermeasures can see it
    (see DESIGN.md, "Substitutions").

    The stored representation is the minimal big-endian magnitude — exactly
    the byte pattern the scanner searches for. *)

open Memguard_kernel

type t = {
  mutable data : int;  (** virtual address of the digit buffer *)
  mutable size : int;  (** byte length of the stored magnitude *)
  mutable static_data : bool;
      (** OpenSSL's [BN_FLG_STATIC_DATA]: storage is owned by someone else
          (the aligned key region); [clear_free] must not touch it *)
  origin : Memguard_obs.Obs.origin;
      (** provenance tag for the copy held in [data] (observability) *)
}

val alloc :
  ?origin:Memguard_obs.Obs.origin -> ?width:int ->
  Kernel.t -> Proc.t -> Memguard_bignum.Bn.t -> t
(** malloc a buffer in the process heap and store the value's magnitude.
    The value must be non-negative.  [origin] (default [Bn_limbs]) tags the
    copy in the trace / provenance registry: pass [Mont_cache] for
    Montgomery-context copies, [Heap_copy] for BN_CTX temporaries.
    [width] left-pads the stored magnitude with zero bytes to a fixed
    byte length — secret-bearing callers must pass it (key-size width)
    so the stored length never depends on the value's leading zero
    bytes; the default minimal encoding is for non-secret temporaries.
    Raises [Invalid_argument] if the magnitude needs more than [width]
    bytes. *)

val value : Kernel.t -> Proc.t -> t -> Memguard_bignum.Bn.t
(** Read the magnitude back out of simulated memory. *)

val store : Kernel.t -> Proc.t -> t -> Memguard_bignum.Bn.t -> unit
(** Test oracle: overwrite in place.  The new magnitude must fit in [size] bytes
    (it is left-padded with zeros). *)

val clear_free : Kernel.t -> Proc.t -> t -> unit
(** OpenSSL's [BN_clear_free]: zeroize then free — unless [static_data]. *)

val free_insecure : Kernel.t -> Proc.t -> t -> unit
(** Plain [free] with no zeroing: the digits stay behind in the heap —
    the copy-leaking path. *)

val pattern : Kernel.t -> Proc.t -> t -> string
(** Test oracle: the byte pattern currently stored (what a memory scan would
    match). *)
