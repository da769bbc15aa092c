open Memguard_kernel
module Obs = Memguard_obs.Obs
module Ssl = Memguard_ssl.Ssl
module Sim_rsa = Memguard_ssl.Sim_rsa
module Rsa = Memguard_crypto.Rsa
module Bn = Memguard_bignum.Bn
module Prng = Memguard_util.Prng
module Tls_rsa = Memguard_proto.Tls_rsa

type options = {
  workers : int;
  max_clients : int;
  max_spare_servers : int;
  ssl_mode : Ssl.mode;
  nocache : bool;
  max_requests_per_child : int;
}

type worker = { mutable proc : Proc.t; mutable handled : int; mutable busy : bool }

type conn = {
  worker : worker;
  session : Tls_rsa.session;
  c_span : int;  (** root span id — serve/close re-enter its trace under it *)
}

type t = {
  kernel : Kernel.t;
  opts : options;
  parent_proc : Proc.t;
  server_key : Sim_rsa.t;
  mutable pool : worker list;
  mutable running : bool;
}

let start k ~key_path opts =
  if opts.workers < 1 then invalid_arg "Apache.start: need at least one worker";
  let parent_proc = Kernel.spawn k ~name:"apache2" in
  let server_key =
    Ssl.load_private_key k parent_proc ~path:key_path ~nocache:opts.nocache opts.ssl_mode
  in
  let pool =
    List.init opts.workers (fun _ ->
        { proc = Kernel.fork k parent_proc; handled = 0; busy = false })
  in
  { kernel = k; opts; parent_proc; server_key; pool; running = true }

let public t = t.server_key.Sim_rsa.pub
let worker_pids t = List.map (fun w -> w.proc.Proc.pid) t.pool

(* mod_ssl's handshake: RSA key exchange (the private-key operation the
   attacks target) + key derivation, all in the worker's memory *)
let handshake t (proc : Proc.t) rng =
  Tls_rsa.server_handshake rng t.kernel proc ~cert_key:t.server_key

let recycle t w =
  Kernel.exit t.kernel w.proc;
  w.proc <- Kernel.fork t.kernel t.parent_proc;
  w.handled <- 0

let spawn_worker t =
  let w = { proc = Kernel.fork t.kernel t.parent_proc; handled = 0; busy = false } in
  t.pool <- t.pool @ [ w ];
  w

let open_connection t rng =
  if not t.running then invalid_arg "Apache.open_connection: server stopped";
  let free_worker =
    match List.find_opt (fun w -> not w.busy) t.pool with
    | Some w -> Some w
    | None ->
      (* prefork spawns additional children on demand, up to MaxClients *)
      if List.length t.pool < t.opts.max_clients then Some (spawn_worker t) else None
  in
  match free_worker with
  | None -> None
  | Some w ->
    w.busy <- true;
    let obs = Kernel.obs t.kernel in
    Obs.Trace.with_span ~pid:w.proc.Proc.pid obs "apache.connection" @@ fun () ->
    let c_span = Obs.Trace.current_span obs in
    Obs.Metrics.incr obs "apache.connections";
    Obs.Metrics.incr obs "apache.requests";
    (* mod_ssl handshake in the worker: this is where the Montgomery cache
       (fresh copies of p and q) lands in the worker's heap *)
    let session = handshake t w.proc rng in
    (* request parsing buffers *)
    let buf = Kernel.malloc t.kernel w.proc 2048 in
    Kernel.write_mem t.kernel w.proc ~addr:buf (Bytes.to_string (Prng.bytes rng 256));
    Kernel.free t.kernel w.proc buf;
    Some { worker = w; session; c_span }

let serve t conn rng ~kib =
  let w = conn.worker in
  Obs.Trace.with_span ~pid:w.proc.Proc.pid ~parent:conn.c_span
    (Kernel.obs t.kernel) "apache.serve"
  @@ fun () ->
  for _ = 1 to max 1 kib do
    (* one TLS record per KiB of response body *)
    let body = Bytes.to_string (Prng.bytes rng 64) in
    let record = Tls_rsa.seal t.kernel w.proc conn.session body in
    let buf = Kernel.malloc t.kernel w.proc (String.length record) in
    Kernel.write_mem t.kernel w.proc ~addr:buf record;
    Kernel.free t.kernel w.proc buf
  done

(* prefork reaps idle children above MaxSpareServers — each reaped worker
   drops a full set of key copies into the free lists *)
let cull_idle t =
  let idle () = List.filter (fun w -> not w.busy) t.pool in
  let excess = List.length (idle ()) - t.opts.max_spare_servers in
  if excess > 0 then begin
    let victims = List.filteri (fun i _ -> i < excess) (List.rev (idle ())) in
    List.iter (fun w -> Kernel.exit t.kernel w.proc) victims;
    t.pool <- List.filter (fun w -> not (List.memq w victims)) t.pool
  end

let close_connection t conn =
  let w = conn.worker in
  if w.busy then
    Obs.Trace.with_span ~pid:w.proc.Proc.pid ~parent:conn.c_span
      (Kernel.obs t.kernel) "apache.close"
    @@ fun () ->
    begin
      Tls_rsa.close t.kernel w.proc conn.session;
      w.busy <- false;
      w.handled <- w.handled + 1;
      if t.opts.max_requests_per_child > 0 && w.handled >= t.opts.max_requests_per_child
      then recycle t w;
      cull_idle t
    end

let connection_count t = List.length (List.filter (fun w -> w.busy) t.pool)

let stop t =
  if t.running then begin
    List.iter (fun w -> Kernel.exit t.kernel w.proc) t.pool;
    t.pool <- [];
    if t.opts.ssl_mode = Ssl.Hardened then
      Sim_rsa.clear_free t.kernel t.parent_proc t.server_key;
    Kernel.exit t.kernel t.parent_proc;
    t.running <- false
  end
