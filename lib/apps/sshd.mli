(** Simulated OpenSSH 4.3p2 server.

    Vanilla OpenSSH forks *and re-executes itself* for every incoming
    connection, so each connection re-reads and re-parses the PEM key file —
    the reason ssh key copies scale with connection count in Section 3.2.
    The paper's application-level solution requires starting the server with
    the undocumented [-r] option ([no_reexec]) so children merely fork and
    share the (aligned, mlocked) key page copy-on-write. *)

open Memguard_kernel

type options = {
  no_reexec : bool;  (** the [-r] flag *)
  ssl_mode : Memguard_ssl.Ssl.mode;
  nocache : bool;  (** open the key file [O_NOCACHE] *)
}

type conn

type t

val start : Kernel.t -> key_path:string -> options -> t
(** Spawn the listener and load the host key.  The key file must exist. *)

val listener : t -> Proc.t

val open_connection : t -> Memguard_util.Prng.t -> conn
(** Accept a connection: fork a child, (re-exec and re-load the key unless
    [no_reexec]), run the SSHv2 key exchange in the child (DH agreement
    signed by the host key — the private-key operation the attacks
    target), allocate session buffers. *)

val session : conn -> Memguard_proto.Ssh_kex.session
(** The connection's key-exchange result (for inspecting where session
    keys live). *)

val child : conn -> Proc.t
(** The per-connection server process. *)

val transfer : t -> conn -> Memguard_util.Prng.t -> kib:int -> unit
(** Move [kib] KiB through the connection (scp-style data churn in the
    child's heap). *)

val close_connection : t -> conn -> unit
(** The child exits; its pages return to the kernel. *)

val connection_count : t -> int
(** Test oracle: the number of open connections. *)

val stop : t -> unit
(** Close remaining connections and terminate the listener
    ([/etc/init.d/sshd stop]).  A patched ([Hardened]) server scrubs the
    aligned key region on the way out — the "special care" of Section 4. *)
