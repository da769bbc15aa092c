(** A small DER (ASN.1 Distinguished Encoding Rules) codec — just the subset
    PKCS#1 needs: INTEGER, OCTET STRING, and SEQUENCE. *)

type t =
  | Integer of Memguard_bignum.Bn.t
  | Octet_string of string
  | Sequence of t list

val encode : t -> string
(** DER encoding.  INTEGERs use minimal two's-complement form. *)

val decode : string -> (t, string) result
(** Parse a complete DER value; trailing bytes are an error. *)
