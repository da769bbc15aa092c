(** RFC 4648 base64, as used by PEM. *)

val encode : string -> string
(** Test oracle: standard alphabet, with [=] padding, no line breaks. *)

val encode_wrapped : ?width:int -> string -> string
(** Like {!encode} but broken into lines of [width] (default 64) characters,
    each terminated by ['\n'] — the PEM body format. *)

val decode : string -> (string, string) result
(** Inverse of {!encode}.  Whitespace (spaces, tabs, newlines) is skipped.
    Returns [Error _] on invalid characters or bad padding. *)
