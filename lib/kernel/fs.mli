(** A minimal in-memory filesystem.

    File content *at rest* is held in ordinary OCaml strings — it models the
    disk, which is outside physical RAM and outside the scanner's and the
    attacks' view.  Content only becomes observable once it is read through
    the kernel, which pulls it into page-cache frames and user buffers
    inside simulated RAM. *)

type t

val create : unit -> t

val write_file : t -> path:string -> string -> int
(** Create or replace a file; returns its inode number. *)

val ino_of_path : t -> string -> int option

val content_of_ino : t -> int -> string option

val remove : t -> path:string -> bool
(** Test oracle: unlink [path], forgetting its inode; [false] if there was
    no such file. *)

val list_paths : t -> string list
