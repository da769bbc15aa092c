(** The in-memory RSA structure of the simulated OpenSSL, with the exact
    copy behaviours the paper measures:

    - the six private parts live in separate heap buffers after [d2i];
    - with [RSA_FLAG_CACHE_PRIVATE] set (the default), the first private-key
      operation caches Montgomery contexts holding fresh copies of [p] and
      [q] in the operating process's heap;
    - per-operation temporaries hold only *reduced* intermediates (never the
      key parts themselves), and are freed uncleared — realistic noise;
    - {!memory_align} is the paper's novel countermeasure: all six parts are
      consolidated into one mlocked page-aligned region, the originals are
      zeroized and freed, [BN_FLG_STATIC_DATA] is set, and both cache flags
      are cleared. *)

open Memguard_kernel
open Memguard_bignum

type t = {
  pub : Memguard_crypto.Rsa.public;  (** public half, no secrecy concern *)
  d : Sim_bn.t;
  p : Sim_bn.t;
  q : Sim_bn.t;
  dp : Sim_bn.t;
  dq : Sim_bn.t;
  qinv : Sim_bn.t;
  mutable flag_cache_private : bool;  (** RSA_FLAG_CACHE_PRIVATE *)
  mont : (int, Sim_bn.t * Sim_bn.t) Hashtbl.t;
      (** per-pid Montgomery contexts: each process that performs a private
          operation materialises its own copies of [p] and [q] in its own
          heap (in the real system each forked worker has its own COW copy
          of the [RSA] struct and populates its own cache) *)
  mutable aligned_region : int option;
      (** vaddr of the [memory_align] region, once installed *)
}

val of_priv : Kernel.t -> Proc.t -> Memguard_crypto.Rsa.priv -> t
(** Materialise a parsed private key into the process's heap — the tail end
    of [d2i_RSAPrivateKey]. *)

val private_op : Kernel.t -> Proc.t -> t -> Bn.t -> Bn.t
(** [c^d mod n] by CRT, reading every key part out of simulated memory.
    Populates the calling process's Montgomery cache if
    [flag_cache_private] is set. *)

val memory_align : Kernel.t -> Proc.t -> t -> unit
(** [RSA_memory_align()] — see module header.  Idempotent. *)

val mont_cache_size : t -> int
(** Number of processes currently holding Montgomery copies of p and q. *)

val clear_free : Kernel.t -> Proc.t -> t -> unit
(** Zeroize and free every private buffer, the calling process's Montgomery
    cache, and the aligned region if present. *)

val free_insecure : Kernel.t -> Proc.t -> t -> unit
(** Free private buffers without zeroing (how careless teardown leaks). *)

val recover_priv : Kernel.t -> Proc.t -> t -> Memguard_crypto.Rsa.priv
(** Reassemble the full private key from simulated memory (for tests). *)
