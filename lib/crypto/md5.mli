(** MD5 (RFC 1321) — needed for OpenSSL's [EVP_BytesToKey] derivation of
    PEM encryption keys (the 0.9.7-era scheme), and handy for key
    fingerprints.  Not for new designs, obviously. *)

val digest : string -> string
(** 16-byte raw digest. *)

val bytes_to_key : passphrase:string -> salt:string -> length:int -> string
(** OpenSSL [EVP_BytesToKey] with MD5, count=1: concatenated
    [D_1 = MD5(pass||salt)], [D_i = MD5(D_{i-1}||pass||salt)] truncated to
    [length] bytes.  [salt] is normally the first 8 bytes of the IV. *)
