open Memguard_kernel
module Rsa = Memguard_crypto.Rsa
module Pem = Memguard_crypto.Pem
module Obs = Memguard_obs.Obs

type mode = Vanilla | Hardened

let write_key_file k ~path priv = Kernel.write_file k ~path (Rsa.pem_of_priv priv)

let load_private_key k proc ~path ?(nocache = false) ?passphrase mode =
  (* joins the enclosing connection trace, or mints a root trace for a
     boot-time load — either way the PEM/DER copies attribute back here *)
  Obs.Trace.with_span ~pid:proc.Proc.pid (Kernel.obs k) "ssl.key_load" @@ fun () ->
  Obs.Profiler.span (Kernel.obs k) "ssl.key_load" @@ fun () ->
  (* read(2) the PEM file into a fresh heap buffer (and the page cache) *)
  let pem_buf, pem_len = Kernel.read_file k proc ~path ~nocache in
  Kernel.note_copy k proc ~origin:Obs.Pem_buffer ~addr:pem_buf ~len:pem_len;
  let pem_text = Kernel.read_mem k proc ~addr:pem_buf ~len:pem_len in
  (* an encrypted key file pulls the passphrase into process memory: the
     prompt writes it into a heap buffer before the KDF runs *)
  let pass_buf =
    match passphrase with
    | Some pass when String.length pass > 0 ->
      let buf = Kernel.malloc k proc (String.length pass) in
      Kernel.write_mem k proc ~addr:buf pass;
      Kernel.note_copy k proc ~origin:Obs.Heap_copy ~addr:buf ~len:(String.length pass);
      Some (buf, String.length pass)
    | _ -> None
  in
  let der =
    match (Pem.is_encrypted pem_text, passphrase) with
    | false, _ -> (
      match Pem.decode ~label:Rsa.pem_label pem_text with
      | Ok der -> der
      | Error e -> invalid_arg ("Ssl.load_private_key: " ^ e))
    | true, None -> invalid_arg "Ssl.load_private_key: encrypted key, no passphrase"
    | true, Some pass -> (
      match Pem.decode_encrypted ~label:Rsa.pem_label ~passphrase:pass pem_text with
      | Ok der -> der
      | Error e -> invalid_arg ("Ssl.load_private_key: " ^ e))
  in
  (* the base64 decoder writes the raw DER into another heap buffer *)
  let der_buf = Kernel.malloc k proc (String.length der) in
  Kernel.write_mem k proc ~addr:der_buf der;
  Kernel.note_copy k proc ~origin:Obs.Der_temp ~addr:der_buf ~len:(String.length der);
  let priv =
    match Rsa.priv_of_der der with
    | Ok priv -> priv
    | Error e -> invalid_arg ("Ssl.load_private_key: " ^ e)
  in
  (* d2i_RSAPrivateKey fills in the BIGNUM parts *)
  let rsa = Sim_rsa.of_priv k proc priv in
  (match mode with
   | Vanilla ->
     (* the shipped code frees its work buffers without clearing them: the
        PEM text, the DER bytes — and the passphrase — stay in the heap *)
     Kernel.note_freed_dirty k proc ~origin:Obs.Pem_buffer ~addr:pem_buf ~len:pem_len;
     Kernel.free k proc pem_buf;
     Kernel.note_freed_dirty k proc ~origin:Obs.Der_temp ~addr:der_buf
       ~len:(String.length der);
     Kernel.free k proc der_buf;
     (match pass_buf with
      | Some (buf, len) ->
        Kernel.note_freed_dirty k proc ~origin:Obs.Heap_copy ~addr:buf ~len;
        Kernel.free k proc buf
      | None -> ())
   | Hardened ->
     Kernel.zero_mem k proc ~addr:pem_buf ~len:pem_len;
     Kernel.note_zeroed k proc ~origin:Obs.Pem_buffer ~addr:pem_buf ~len:pem_len;
     Kernel.free k proc pem_buf;
     Kernel.zero_mem k proc ~addr:der_buf ~len:(String.length der);
     Kernel.note_zeroed k proc ~origin:Obs.Der_temp ~addr:der_buf
       ~len:(String.length der);
     Kernel.free k proc der_buf;
     (match pass_buf with
      | Some (buf, len) ->
        Kernel.zero_mem k proc ~addr:buf ~len;
        Kernel.note_zeroed k proc ~origin:Obs.Heap_copy ~addr:buf ~len;
        Kernel.free k proc buf
      | None -> ());
     Sim_rsa.memory_align k proc rsa);
  rsa
