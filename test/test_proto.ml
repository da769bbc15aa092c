open Memguard_kernel
open Memguard_proto
open Memguard_crypto
open Memguard_bignum
open Memguard_util
module Sim_rsa = Memguard_ssl.Sim_rsa
module Ssl = Memguard_ssl.Ssl

(* ---- dh ---- *)

let test_dh_fixed_groups_valid () =
  (match Helpers.dh_validate Dh.group_small with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("group_small: " ^ e));
  match Helpers.dh_validate Dh.group_medium with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("group_medium: " ^ e)

let test_dh_agreement () =
  let rng = Prng.of_int 41 in
  for _ = 1 to 5 do
    let a = Dh.generate_keypair rng Dh.group_small in
    let b = Dh.generate_keypair rng Dh.group_small in
    let s_ab = Dh.shared_secret Dh.group_small ~secret:a.Dh.secret ~peer_public:b.Dh.public in
    let s_ba = Dh.shared_secret Dh.group_small ~secret:b.Dh.secret ~peer_public:a.Dh.public in
    Alcotest.(check bool) "agreement" true (Bn.equal s_ab s_ba)
  done

let test_dh_rejects_degenerate_peer () =
  let rng = Prng.of_int 42 in
  let a = Dh.generate_keypair rng Dh.group_small in
  List.iter
    (fun bad ->
      Alcotest.(check bool) "rejected" true
        (match Dh.shared_secret Dh.group_small ~secret:a.Dh.secret ~peer_public:bad with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ Bn.zero; Bn.one; Dh.group_small.Dh.p; Bn.sub Dh.group_small.Dh.p Bn.one ]

(* ---- shared fixtures ---- *)

let key = lazy (Rsa.generate (Prng.of_int 7777) ~bits:256)

let setup () =
  let config = { Kernel.default_config with num_pages = 512 } in
  let k = Kernel.create ~config () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/hk.pem" priv);
  let p = Kernel.spawn k ~name:"server" in
  let rsa = Ssl.load_private_key k p ~path:"/hk.pem" Ssl.Vanilla in
  (k, p, rsa)

let in_ram k needle =
  Bytes_util.count ~needle (Memguard_vmm.Phys_mem.raw (Kernel.mem k)) > 0

(* ---- ssh kex ---- *)

let test_ssh_kex_handshake () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 50 in
  let session = Ssh_kex.server_handshake rng k p ~host_key:rsa in
  Alcotest.(check int) "session id is a sha1" 20 (String.length session.Ssh_kex.session_id);
  Alcotest.(check int) "two key directions" 32 session.Ssh_kex.keys_len;
  let keys = Ssh_kex.key_material k p session in
  Alcotest.(check bool) "keys nontrivial" true (keys <> String.make 32 '\000')

let test_ssh_kex_keys_resident_in_server_memory () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 51 in
  let session = Ssh_kex.server_handshake rng k p ~host_key:rsa in
  let keys = Ssh_kex.key_material k p session in
  Alcotest.(check bool) "session keys scannable in RAM" true (in_ram k keys)

let test_ssh_kex_dh_secret_scrubbed () =
  (* the ephemeral DH secret must NOT be findable after the handshake *)
  let k, p, rsa = setup () in
  let rng = Prng.of_int 52 in
  (* replicate the handshake's client/server draws to learn the secret:
     determinism makes the ephemeral secret predictable for the test *)
  let rng_probe = Prng.copy rng in
  let _client = Dh.generate_keypair rng_probe Dh.group_small in
  let server = Dh.generate_keypair rng_probe Dh.group_small in
  ignore (Ssh_kex.server_handshake rng k p ~host_key:rsa);
  Alcotest.(check bool) "DH secret zeroized" false
    (in_ram k (Bn.to_bytes_be server.Dh.secret))

let test_ssh_kex_sessions_differ () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 53 in
  let s1 = Ssh_kex.server_handshake rng k p ~host_key:rsa in
  let s2 = Ssh_kex.server_handshake rng k p ~host_key:rsa in
  Alcotest.(check bool) "distinct session ids" true
    (s1.Ssh_kex.session_id <> s2.Ssh_kex.session_id);
  Alcotest.(check bool) "distinct keys" true
    (Ssh_kex.key_material k p s1 <> Ssh_kex.key_material k p s2)

let test_ssh_kex_close_leaves_stale_keys () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 54 in
  let session = Ssh_kex.server_handshake rng k p ~host_key:rsa in
  let keys = Ssh_kex.key_material k p session in
  (* era-typical teardown: the buffer is freed uncleared and still holds
     the keys *)
  Kernel.free k p session.Ssh_kex.keys_addr;
  Alcotest.(check bool) "stale session keys in heap" true (in_ram k keys)

let test_ssh_kex_client_view_agrees () =
  (* the client end runs remotely and is not simulated: rebuild its view
     from a replay of the handshake's draws and check it against what the
     server holds *)
  let k, p, rsa = setup () in
  let rng = Prng.of_int 55 in
  let rng_probe = Prng.copy rng in
  let client = Dh.generate_keypair rng_probe Dh.group_small in
  let server = Dh.generate_keypair rng_probe Dh.group_small in
  let session = Ssh_kex.server_handshake rng k p ~host_key:rsa in
  let shared =
    Dh.shared_secret Dh.group_small ~secret:client.Dh.secret ~peer_public:server.Dh.public
  in
  Alcotest.(check bool) "both ends share K" true
    (Bn.equal shared
       (Dh.shared_secret Dh.group_small ~secret:server.Dh.secret ~peer_public:client.Dh.public));
  let k_bytes = Bn.to_bytes_be shared in
  let h =
    Sha1.digest (Bn.to_bytes_be client.Dh.public ^ Bn.to_bytes_be server.Dh.public ^ k_bytes)
  in
  Alcotest.(check string) "session id is the client's H" h session.Ssh_kex.session_id;
  let key letter = String.sub (Sha1.digest (k_bytes ^ letter ^ h)) 0 16 in
  Alcotest.(check string) "client derives the server's keys" (key "A" ^ key "B")
    (Ssh_kex.key_material k p session)

(* ---- tls rsa ---- *)

let test_tls_handshake_and_records () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 60 in
  let session = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let record = Tls_rsa.seal k p session "GET / HTTP/1.1 response body" in
  Alcotest.(check bool) "ciphertext differs" true (record <> "GET / HTTP/1.1 response body");
  Alcotest.(check (result string string)) "round trip" (Ok "GET / HTTP/1.1 response body")
    (Tls_rsa.open_record k p session ~seq:0 record)

let test_tls_records_use_fresh_ivs () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 61 in
  let session = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let r1 = Tls_rsa.seal k p session "same plaintext" in
  let r2 = Tls_rsa.seal k p session "same plaintext" in
  Alcotest.(check bool) "no ECB-style repetition" true (r1 <> r2);
  (* wrong sequence number cannot decrypt *)
  Alcotest.(check bool) "seq binds the record" true
    (Tls_rsa.open_record k p session ~seq:1 r1 <> Ok "same plaintext")

(* each record is sealed under the key block's first 16 bytes with IV
   MD5("iv-<key block vaddr>-<seq>"), the derivation fixed by the reference
   cipher and digest *)
let test_tls_record_iv_derivation () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 65 in
  let session = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let key = Kernel.read_mem k p ~addr:session.Tls_rsa.key_block_addr ~len:16 in
  List.iter
    (fun seq ->
      let payload = Printf.sprintf "record %d" seq in
      let iv = Md5_ref.digest (Printf.sprintf "iv-%d-%d" session.Tls_rsa.key_block_addr seq) in
      Alcotest.(check string) payload (Aes_ref.cbc_encrypt ~key ~iv payload)
        (Tls_rsa.seal k p session payload))
    [ 0; 1; 2 ]

let test_tls_master_secret_resident () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 62 in
  let session = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let master =
    Kernel.read_mem k p ~addr:session.Tls_rsa.master_addr ~len:session.Tls_rsa.master_len
  in
  Alcotest.(check bool) "master secret scannable" true (in_ram k master);
  Tls_rsa.close k p session

let test_tls_sessions_isolated () =
  let k, p, rsa = setup () in
  let rng = Prng.of_int 63 in
  let s1 = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let s2 = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let r = Tls_rsa.seal k p s1 "secret payload" in
  Alcotest.(check bool) "other session cannot read" true
    (Tls_rsa.open_record k p s2 ~seq:0 r <> Ok "secret payload")

let test_tls_client_view_agrees () =
  (* replay the client's draws (both randoms, then the premaster) and run
     the MD5 PRF on the client's side of the exchange *)
  let k, p, rsa = setup () in
  let rng = Prng.of_int 64 in
  let rng_probe = Prng.copy rng in
  let client_random = Bytes.to_string (Prng.bytes rng_probe 16) in
  let server_random = Bytes.to_string (Prng.bytes rng_probe 16) in
  let premaster = Bn.random_below rng_probe rsa.Sim_rsa.pub.Rsa.n in
  let session = Tls_rsa.server_handshake rng k p ~cert_key:rsa in
  let prf ~secret ~label ~seed ~length =
    let rec go a acc =
      if String.length acc >= length then String.sub acc 0 length
      else
        let a = Md5_ref.digest (secret ^ a) in
        go a (acc ^ Md5_ref.digest (secret ^ a ^ label ^ seed))
    in
    go seed ""
  in
  let master =
    prf ~secret:(Bn.to_bytes_be premaster) ~label:"master secret"
      ~seed:(client_random ^ server_random) ~length:24
  in
  let read addr len = Kernel.read_mem k p ~addr ~len in
  Alcotest.(check string) "master secret" master
    (read session.Tls_rsa.master_addr session.Tls_rsa.master_len);
  Alcotest.(check string) "key block"
    (prf ~secret:master ~label:"key expansion" ~seed:(server_random ^ client_random) ~length:32)
    (read session.Tls_rsa.key_block_addr session.Tls_rsa.key_block_len)

(* ---- integration: session keys through the real servers ---- *)

let test_sshd_session_keys_tracked () =
  let config = { Kernel.default_config with num_pages = 1024 } in
  let k = Kernel.create ~config () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/hk.pem" priv);
  let srv = Memguard_apps.Sshd.start k ~key_path:"/hk.pem" Helpers.sshd_vanilla in
  let rng = Prng.of_int 70 in
  let conn = Memguard_apps.Sshd.open_connection srv rng in
  let keys =
    Ssh_kex.key_material k (Memguard_apps.Sshd.child conn) (Memguard_apps.Sshd.session conn)
  in
  Alcotest.(check bool) "session keys in RAM while connected" true (in_ram k keys);
  Memguard_apps.Sshd.close_connection srv conn;
  (* the child died; on a vanilla kernel its keys are stale in free pages *)
  Alcotest.(check bool) "stale session keys after close" true (in_ram k keys);
  Memguard_apps.Sshd.stop srv

let suite =
  [ ( "dh",
      [ Alcotest.test_case "fixed groups valid" `Quick test_dh_fixed_groups_valid;
        Alcotest.test_case "agreement" `Quick test_dh_agreement;
        Alcotest.test_case "degenerate peers" `Quick test_dh_rejects_degenerate_peer
      ] );
    ( "ssh_kex",
      [ Alcotest.test_case "handshake" `Quick test_ssh_kex_handshake;
        Alcotest.test_case "keys resident" `Quick test_ssh_kex_keys_resident_in_server_memory;
        Alcotest.test_case "dh secret scrubbed" `Quick test_ssh_kex_dh_secret_scrubbed;
        Alcotest.test_case "sessions differ" `Quick test_ssh_kex_sessions_differ;
        Alcotest.test_case "close leaves stale keys" `Quick test_ssh_kex_close_leaves_stale_keys;
        Alcotest.test_case "client view agrees" `Quick test_ssh_kex_client_view_agrees
      ] );
    ( "tls_rsa",
      [ Alcotest.test_case "handshake + records" `Quick test_tls_handshake_and_records;
        Alcotest.test_case "fresh IVs" `Quick test_tls_records_use_fresh_ivs;
        Alcotest.test_case "record IV derivation" `Quick test_tls_record_iv_derivation;
        Alcotest.test_case "master resident" `Quick test_tls_master_secret_resident;
        Alcotest.test_case "sessions isolated" `Quick test_tls_sessions_isolated;
        Alcotest.test_case "client view agrees" `Quick test_tls_client_view_agrees
      ] );
    ( "proto_integration",
      [ Alcotest.test_case "sshd session keys" `Quick test_sshd_session_keys_tracked ] )
  ]
