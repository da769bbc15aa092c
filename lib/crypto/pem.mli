(** PEM armouring (RFC 7468 / classic OpenSSL style), used for the on-disk
    private key file — the "PEM-encoded private key" whose page-cache copy
    the paper tracks.

    Also supports the OpenSSL 0.9.7-era encrypted form
    ([Proc-Type: 4,ENCRYPTED] + [DEK-Info: AES-128-CBC,iv]), with the key
    derived from the passphrase by [EVP_BytesToKey]/MD5.  Encryption at
    rest protects the stolen *file* — not the memory the paper attacks. *)

val encode : label:string -> string -> string
(** [encode ~label der] wraps DER bytes in
    [-----BEGIN label-----] / [-----END label-----] armour. *)

val encode_encrypted : label:string -> passphrase:string -> iv:string -> string -> string
(** Traditional OpenSSL encrypted PEM (AES-128-CBC).  [iv] is 16 bytes. *)

val is_encrypted : string -> bool
(** Does the first PEM block carry [Proc-Type: 4,ENCRYPTED]? *)

val decode : ?label:string -> string -> (string, string) result
(** Extract and base64-decode the first PEM block.  When [label] is given
    the block's label must match exactly.  Encrypted blocks are an error
    (use {!decode_encrypted}). *)

val decode_encrypted : ?label:string -> passphrase:string -> string -> (string, string) result
(** Decrypt an encrypted block.  A wrong passphrase surfaces as a padding
    (or downstream parse) error, exactly as in OpenSSL. *)
