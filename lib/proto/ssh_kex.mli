(** An SSHv2-style key exchange, the handshake the simulated OpenSSH runs
    per connection: a Diffie–Hellman agreement whose exchange hash the
    server *signs with its long-term RSA host key* — the single use of the
    private key the paper's attacks target.

    The client runs on a remote machine (its memory is plain OCaml and out
    of the attacks' reach); the server side lives in simulated process
    memory.  The server's ephemeral DH secret is zeroized after the
    exchange (OpenSSH calls BN_clear on kex state), but the derived session
    keys stay resident for the life of the connection — a second class of
    in-memory secret beyond the paper's scope that the scanner can equally
    hunt (see [examples/session_keys.ml]). *)

open Memguard_kernel

type session = {
  session_id : string;  (** exchange hash (public) *)
  keys_addr : int;  (** vaddr of the derived key material in server memory *)
  keys_len : int;
}

val key_material : Kernel.t -> Proc.t -> session -> string
(** Read the session keys back out of server memory. *)

val server_handshake :
  Memguard_util.Prng.t ->
  Kernel.t ->
  Proc.t ->
  host_key:Memguard_ssl.Sim_rsa.t ->
  session
(** Run the whole exchange over {!Memguard_crypto.Dh.group_small} (both
    ends; the client end verifies the host signature and asserts both
    sides derived identical keys).  Raises on a host key that fails to
    sign correctly. *)

val close : Kernel.t -> Proc.t -> session -> unit
(** Connection teardown: the session-key buffer is freed — uncleared, as in
    the era's code. *)
