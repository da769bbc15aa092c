(** A TLS-style RSA key exchange plus record layer — what the simulated
    Apache/mod_ssl runs per HTTPS connection.

    The client encrypts a premaster secret to the server certificate's RSA
    key; the server's [private_op] (the paper's target operation) recovers
    it, both sides derive a master secret and a key block with the MD5-era
    PRF, and application data flows AES-128-CBC-protected.  The server-side
    master secret and key block are resident in simulated memory for the
    session's lifetime. *)

open Memguard_kernel

type session = {
  master_addr : int;  (** server-memory vaddr of the master secret *)
  master_len : int;
  key_block_addr : int;
  key_block_len : int;
  mutable seq : int;  (** record sequence number (drives per-record IVs) *)
}

val server_handshake :
  Memguard_util.Prng.t ->
  Kernel.t ->
  Proc.t ->
  cert_key:Memguard_ssl.Sim_rsa.t ->
  session
(** Full exchange.  The client (remote, not simulated) only draws the
    randoms and the premaster and encrypts it; the server checks that
    [private_op] decrypts the premaster it was sent.  The client's own
    derivation of the same keys is checked in the tests, not here. *)

val seal : Kernel.t -> Proc.t -> session -> string -> string
(** Encrypt one application record with the session's server-write key
    (read out of simulated memory, as the real cipher would). *)

val open_record : Kernel.t -> Proc.t -> session -> seq:int -> string -> (string, string) result
(** Test oracle: decrypt a record sealed at sequence number [seq]. *)

val close : Kernel.t -> Proc.t -> session -> unit
(** Free the session secrets (uncleared, as the era's teardown did). *)
