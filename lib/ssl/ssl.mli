(** The private-key loading path — [BIO_new_file] → PEM decode →
    [d2i_PrivateKey] — with every copy the real pipeline makes:

    + one page-cache copy of the PEM file (unless opened [O_NOCACHE]);
    + a heap buffer holding the PEM text;
    + a heap buffer holding the decoded DER (which contains d, p, q, ... in
      the clear);
    + six heap buffers for the BIGNUM parts.

    In the vanilla path the PEM and DER buffers are freed *uncleared*, so
    their key bytes linger in the process heap.  [`Hardened] is the paper's
    library/application-level fix: transient buffers are zeroized before
    free, and [RSA_memory_align] is invoked as soon as the RSA structure is
    filled in. *)

open Memguard_kernel

type mode =
  | Vanilla  (** OpenSSL 0.9.7i as shipped *)
  | Hardened
      (** patched: zeroized transients + [RSA_memory_align] (the paper's
          application- and library-level solutions; they differ only in
          *who* calls the function, not in behaviour) *)

val load_private_key :
  Kernel.t -> Proc.t -> path:string -> ?nocache:bool -> ?passphrase:string -> mode -> Sim_rsa.t
(** Load a PEM private-key file into the process.  [nocache] (default
    [false]) opens the file [O_RDONLY | O_NOCACHE] — the integrated
    library–kernel refinement that keeps the PEM text out of the page
    cache.

    [passphrase] decrypts a [Proc-Type: 4,ENCRYPTED] key file.  Note what
    this does to memory: the passphrase itself is materialised in a heap
    buffer (the operator typed it), and in [Vanilla] mode that buffer is
    freed *uncleared* — encrypting the key at rest moves the secret, it
    does not remove it.  Raises [Not_found] if the file does not exist and
    [Invalid_argument] on a corrupt key file or missing/wrong passphrase. *)

val write_key_file : Kernel.t -> path:string -> Memguard_crypto.Rsa.priv -> int
(** PEM-encode a key onto the simulated disk; returns the inode. *)
