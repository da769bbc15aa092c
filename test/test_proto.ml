open Memguard_kernel
open Memguard_proto
open Memguard_crypto
open Memguard_bignum
open Memguard_util
module Sim_rsa = Memguard_ssl.Sim_rsa
module Ssl = Memguard_ssl.Ssl

(* ---- dh ---- *)

let test_dh_fixed_groups_valid () =
  (match Dh.validate_params Dh.group_small with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("group_small: " ^ e));
  match Dh.validate_params Dh.group_medium with
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

let test_dh_generated_params () =
  let rng = Prng.of_int 43 in
  let params = Dh.generate_params rng ~bits:64 in
  (match Dh.validate_params params with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "p bits" 64 (Bn.bit_length params.Dh.p)

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
  Ssh_kex.close k p session;
  (* era-typical: the freed buffer still holds the keys *)
  Alcotest.(check bool) "stale session keys in heap" true (in_ram k keys)

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

(* ---- integration: session keys through the real servers ---- *)

let test_sshd_session_keys_tracked () =
  let config = { Kernel.default_config with num_pages = 1024 } in
  let k = Kernel.create ~config () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/hk.pem" priv);
  let srv = Memguard_apps.Sshd.start k ~key_path:"/hk.pem" Memguard_apps.Sshd.vanilla in
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
        Alcotest.test_case "degenerate peers" `Quick test_dh_rejects_degenerate_peer;
        Alcotest.test_case "generated params" `Quick test_dh_generated_params
      ] );
    ( "ssh_kex",
      [ Alcotest.test_case "handshake" `Quick test_ssh_kex_handshake;
        Alcotest.test_case "keys resident" `Quick test_ssh_kex_keys_resident_in_server_memory;
        Alcotest.test_case "dh secret scrubbed" `Quick test_ssh_kex_dh_secret_scrubbed;
        Alcotest.test_case "sessions differ" `Quick test_ssh_kex_sessions_differ;
        Alcotest.test_case "close leaves stale keys" `Quick test_ssh_kex_close_leaves_stale_keys
      ] );
    ( "tls_rsa",
      [ Alcotest.test_case "handshake + records" `Quick test_tls_handshake_and_records;
        Alcotest.test_case "fresh IVs" `Quick test_tls_records_use_fresh_ivs;
        Alcotest.test_case "master resident" `Quick test_tls_master_secret_resident;
        Alcotest.test_case "sessions isolated" `Quick test_tls_sessions_isolated
      ] );
    ( "proto_integration",
      [ Alcotest.test_case "sshd session keys" `Quick test_sshd_session_keys_tracked ] )
  ]
