open Memguard_kernel
module Obs = Memguard_obs.Obs
module Ssl = Memguard_ssl.Ssl
module Sim_rsa = Memguard_ssl.Sim_rsa
module Rsa = Memguard_crypto.Rsa
module Bn = Memguard_bignum.Bn
module Prng = Memguard_util.Prng
module Ssh_kex = Memguard_proto.Ssh_kex

type options = { no_reexec : bool; ssl_mode : Ssl.mode; nocache : bool }

let vanilla = { no_reexec = false; ssl_mode = Ssl.Vanilla; nocache = false }

type conn = {
  child : Proc.t;
  child_key : Sim_rsa.t option;  (** a private copy when the child re-execed *)
  session : Ssh_kex.session;
  mutable session_bufs : int list;
  c_trace : int;  (** causal trace id minted for this connection *)
  c_span : int;  (** root span id — transfer/close re-enter under it *)
}

type t = {
  kernel : Kernel.t;
  key_path : string;
  opts : options;
  listener_proc : Proc.t;
  listener_key : Sim_rsa.t;
  mutable conns : conn list;
  mutable running : bool;
}

let start k ~key_path opts =
  let listener_proc = Kernel.spawn k ~name:"sshd" in
  let listener_key =
    Ssl.load_private_key k listener_proc ~path:key_path ~nocache:opts.nocache opts.ssl_mode
  in
  { kernel = k; key_path; opts; listener_proc; listener_key; conns = []; running = true }

let listener t = t.listener_proc
let key t = t.listener_key
let public t = t.listener_key.Sim_rsa.pub

(* the SSHv2 exchange: DH agreement, host-key signature over the exchange
   hash, session keys derived into the child's memory *)
let handshake t (proc : Proc.t) (rsa : Sim_rsa.t) rng =
  Ssh_kex.server_handshake rng t.kernel proc ~host_key:rsa

let open_connection t rng =
  if not t.running then invalid_arg "Sshd.open_connection: server stopped";
  let obs = Kernel.obs t.kernel in
  let c_span = Obs.Trace.begin_span ~pid:t.listener_proc.Proc.pid obs "sshd.connection" in
  let c_trace = Obs.Trace.current_trace obs in
  Fun.protect ~finally:(fun () -> Obs.Trace.end_span obs c_span) @@ fun () ->
  let child = Kernel.fork t.kernel t.listener_proc in
  Obs.Profiler.span obs "sshd.connection"
  @@ fun () ->
  Obs.Metrics.incr (Kernel.obs t.kernel) "sshd.connections";
  let child_key =
    if t.opts.no_reexec then None
    else
      (* vanilla sshd re-executes itself: the fresh image re-reads and
         re-parses the host key file *)
      Some (Ssl.load_private_key t.kernel child ~path:t.key_path ~nocache:t.opts.nocache
              t.opts.ssl_mode)
  in
  let rsa = Option.value child_key ~default:t.listener_key in
  let session = handshake t child rsa rng in
  (* per-session state: packet buffers, channel state, ... *)
  let session_bufs =
    List.init 2 (fun _ ->
        let size = 512 + Prng.int rng 2048 in
        let buf = Kernel.malloc t.kernel child size in
        Kernel.write_mem t.kernel child ~addr:buf (Bytes.to_string (Prng.bytes rng size));
        buf)
  in
  let conn = { child; child_key; session; session_bufs; c_trace; c_span } in
  t.conns <- conn :: t.conns;
  conn

let transfer t conn rng ~kib =
  Obs.Trace.with_span ~pid:conn.child.Proc.pid ~trace:conn.c_trace ~parent:conn.c_span
    (Kernel.obs t.kernel) "sshd.transfer"
  @@ fun () ->
  Obs.Profiler.span (Kernel.obs t.kernel) "sshd.transfer"
  @@ fun () ->
  for _ = 1 to max 1 kib do
    let buf = Kernel.malloc t.kernel conn.child 1024 in
    Kernel.write_mem t.kernel conn.child ~addr:buf (Bytes.to_string (Prng.bytes rng 64));
    Kernel.free t.kernel conn.child buf
  done

let close_connection t conn =
  if List.memq conn t.conns then begin
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    Obs.Trace.with_span ~pid:conn.child.Proc.pid ~trace:conn.c_trace ~parent:conn.c_span
      (Kernel.obs t.kernel) "sshd.close"
    @@ fun () ->
    Obs.Profiler.span (Kernel.obs t.kernel) "sshd.close"
      (fun () -> Kernel.exit t.kernel conn.child)
  end

let session conn = conn.session

let child conn = conn.child

let connection_count t = List.length t.conns
let connections t = t.conns

let handle_sequential t rng ~n =
  for _ = 1 to n do
    let conn = open_connection t rng in
    transfer t conn rng ~kib:4;
    close_connection t conn
  done

let stop t =
  if t.running then begin
    List.iter (fun c -> Kernel.exit t.kernel c.child) t.conns;
    t.conns <- [];
    (* the patched server takes the "special care" of Section 4: it clears
       the special memory region before the process dies.  Vanilla sshd
       just exits, leaving the key in soon-to-be-free pages. *)
    if t.opts.ssl_mode = Ssl.Hardened then
      Sim_rsa.clear_free t.kernel t.listener_proc t.listener_key;
    Kernel.exit t.kernel t.listener_proc;
    t.running <- false
  end

let crash t =
  if t.running then begin
    List.iter (fun c -> Kernel.exit t.kernel c.child) t.conns;
    t.conns <- [];
    Kernel.exit t.kernel t.listener_proc;
    t.running <- false
  end

let is_running t = t.running
