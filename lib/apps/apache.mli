(** Simulated Apache 2.0.55 with mod_ssl, compiled with the default prefork
    MPM (no threading): a parent that loads the server key and pre-forks a
    pool of worker processes.  Every HTTPS connection is handled by a
    worker, whose first private-key operation populates OpenSSL's Montgomery
    cache — duplicating [p] and [q] into the worker's heap and COW-breaking
    the heap pages it touches.  Workers are recycled after
    [max_requests_per_child], dumping their copies into freed memory. *)

open Memguard_kernel

type options = {
  workers : int;  (** StartServers: the initially pre-forked pool *)
  max_clients : int;  (** MaxClients: on-demand worker spawning cap *)
  max_spare_servers : int;  (** idle workers above this are reaped *)
  ssl_mode : Memguard_ssl.Ssl.mode;
  nocache : bool;
  max_requests_per_child : int;  (** 0 = never recycle *)
}

type conn

type t

val start : Kernel.t -> key_path:string -> options -> t

val public : t -> Memguard_crypto.Rsa.public

val worker_pids : t -> int list
(** Test oracle: the pids of the worker pool, live and idle. *)

val open_connection : t -> Memguard_util.Prng.t -> conn option
(** Assign a free worker (pre-forking another if all are busy and the pool
    is below MaxClients) and run the TLS handshake in it; [None] when the
    server is saturated. *)

val serve : t -> conn -> Memguard_util.Prng.t -> kib:int -> unit
(** Stream a response body through the worker, one AES-protected TLS
    record per KiB. *)

val close_connection : t -> conn -> unit
(** Release the worker, recycling it if it exceeded
    [max_requests_per_child] and reaping idle workers above
    [max_spare_servers] — both paths drop a dead worker's key copies into
    unallocated memory. *)

val connection_count : t -> int
(** Test oracle: the number of busy workers. *)

val stop : t -> unit
