(** AES-128 (FIPS 197), with CBC mode and PKCS#7 padding — what protects
    the PEM key file *at rest*.  One of the paper's implicit points is that
    encryption at rest does nothing for the in-memory problem: the moment
    the server starts, the plaintext key (and the passphrase used here)
    must appear in RAM.  See [Ssl.load_private_key ~passphrase]. *)

type key
(** The expanded key schedule (44 32-bit words).  Every [cbc_*] call expands
    its key afresh and drops the schedule on return: none is cached. *)

val expand_key : string -> key
(** 16-byte key.  Raises [Invalid_argument] otherwise. *)

val encrypt_block : key -> string -> string
(** One 16-byte block. *)

val decrypt_block : key -> string -> string
(** Test oracle: the inverse of [encrypt_block] (FIPS-197), under
    [cbc_decrypt]. *)

val cbc_encrypt : key:string -> iv:string -> string -> string
(** PKCS#7-padded CBC over arbitrary-length plaintext.  [iv] is 16 bytes.
    Output length is a multiple of 16, strictly larger than the input. *)

val cbc_decrypt : key:string -> iv:string -> string -> (string, string) result
(** Inverse; [Error _] on bad length or bad padding (e.g. wrong key). *)
