(** Textbook RSA with CRT, PKCS#1 RSAPrivateKey serialization, and keygen —
    the role OpenSSL 0.9.7i plays in the paper.

    No padding schemes: the paper's attacks and countermeasures concern where
    key *material* lives in memory, and raw modexp exercises exactly the same
    key parts (d, p, q, dp, dq, qinv) as a padded operation would. *)

open Memguard_bignum

type public = { n : Bn.t; e : Bn.t }

type priv = {
  n : Bn.t;
  e : Bn.t;
  d : Bn.t;
  p : Bn.t;
  q : Bn.t;
  dp : Bn.t;  (** d mod (p-1) *)
  dq : Bn.t;  (** d mod (q-1) *)
  qinv : Bn.t;  (** q^-1 mod p *)
}

val pem_label : string
(** ["RSA PRIVATE KEY"]. *)

val generate : Memguard_util.Prng.t -> bits:int -> priv
(** [generate rng ~bits] makes a fresh key with an exactly-[bits]-bit modulus
    and public exponent 65537.  Requires [bits >= 32] and even. *)

val public_of_priv : priv -> public

val encrypt_raw : public -> Bn.t -> Bn.t
(** [m^e mod n]; requires [0 <= m < n]. *)

val decrypt_raw : ?crt:bool -> priv -> Bn.t -> Bn.t
(** Test oracle: [c^d mod n] via CRT by default (as OpenSSL does); [~crt:false]
    uses the plain exponent. *)

val sign_raw : ?crt:bool -> priv -> Bn.t -> Bn.t
(** Same computation as {!decrypt_raw} (raw RSA is symmetric). *)

val verify_raw : public -> msg:Bn.t -> signature:Bn.t -> bool

val der_of_priv : priv -> string
(** Test oracle: PKCS#1
    [RSAPrivateKey ::= SEQUENCE { version, n, e, d, p, q, dp, dq, qinv }]. *)

val priv_of_der : string -> (priv, string) result

val pem_of_priv : priv -> string

val pem_of_priv_encrypted : passphrase:string -> iv:string -> priv -> string
(** Traditional OpenSSL encrypted key file (AES-128-CBC, 16-byte [iv]). *)

(** {1 Key-part byte patterns}

    The scanner and the attacks search physical memory for these big-endian
    magnitudes; finding any one of them compromises the key (Section 2 of the
    paper: d, p, q, or the PEM file each count as "a copy of the private
    key"). *)

val pattern_d : priv -> string
val pattern_p : priv -> string
val pattern_q : priv -> string
