(** SHA-1 (FIPS 180-1) — the exchange-hash and key-derivation digest of the
    SSHv2 protocol the simulated OpenSSH speaks.  Like {!Md5}, here for
    protocol fidelity, not for new designs. *)

val digest : string -> string
(** 20-byte raw digest. *)
