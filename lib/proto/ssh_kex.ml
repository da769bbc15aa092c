open Memguard_kernel
module Bn = Memguard_bignum.Bn
module Dh = Memguard_crypto.Dh
module Sha1 = Memguard_crypto.Sha1
module Rsa = Memguard_crypto.Rsa
module Sim_rsa = Memguard_ssl.Sim_rsa
module Prng = Memguard_util.Prng

type session = { session_id : string; keys_addr : int; keys_len : int }

let key_material k proc s = Kernel.read_mem k proc ~addr:s.keys_addr ~len:s.keys_len

let derive_keys ~shared ~session_id =
  (* SSH derives IVs/keys as HASH(K || H || letter || session_id); one
     SHA-1 block per direction, truncated to 16 bytes each here *)
  let k = Bn.to_bytes_be shared in
  String.sub (Sha1.digest (k ^ "A" ^ session_id)) 0 16
  ^ String.sub (Sha1.digest (k ^ "B" ^ session_id)) 0 16

let server_handshake rng k proc ~host_key =
  let group = Dh.group_small in
  (* client side (remote machine, plain OCaml values) *)
  let client = Dh.generate_keypair rng group in
  (* server side: the ephemeral secret transits server memory *)
  let server = Dh.generate_keypair rng group in
  let secret_bytes = Bn.to_bytes_be server.Dh.secret in
  let secret_buf = Kernel.malloc k proc (String.length secret_bytes) in
  Kernel.write_mem k proc ~addr:secret_buf secret_bytes;
  let shared =
    Dh.shared_secret group ~secret:server.Dh.secret ~peer_public:client.Dh.public
  in
  (* exchange hash H = hash(client_pub || server_pub || K) *)
  let session_id =
    Sha1.digest
      (Bn.to_bytes_be client.Dh.public ^ Bn.to_bytes_be server.Dh.public
      ^ Bn.to_bytes_be shared)
  in
  (* the server SIGNS H with the long-term host key — the private-key
     operation the paper's attacks are after *)
  let h_bn = Bn.rem (Bn.of_bytes_be session_id) host_key.Sim_rsa.pub.Rsa.n in
  let signature = Sim_rsa.private_op k proc host_key h_bn in
  (* client: verify the host signature and derive the same keys *)
  if not (Rsa.verify_raw host_key.Sim_rsa.pub ~msg:h_bn ~signature) then
    failwith "Ssh_kex: host signature verification failed";
  let client_shared =
    Dh.shared_secret group ~secret:client.Dh.secret ~peer_public:server.Dh.public
  in
  assert (Bn.equal shared client_shared);
  let keys = derive_keys ~shared ~session_id in
  assert (String.equal keys (derive_keys ~shared:client_shared ~session_id));
  (* OpenSSH clears its kex secrets promptly... *)
  Kernel.zero_mem k proc ~addr:secret_buf ~len:(String.length secret_bytes);
  Kernel.free k proc secret_buf;
  (* ...but the session keys live for the duration of the connection *)
  let keys_addr = Kernel.malloc k proc (String.length keys) in
  Kernel.write_mem k proc ~addr:keys_addr keys;
  { session_id; keys_addr; keys_len = String.length keys }

let close k proc s =
  (* era-typical teardown: free without clearing *)
  Kernel.free k proc s.keys_addr
