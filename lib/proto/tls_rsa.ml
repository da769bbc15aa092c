open Memguard_kernel
module Bn = Memguard_bignum.Bn
module Md5 = Memguard_crypto.Md5
module Aes = Memguard_crypto.Aes
module Rsa = Memguard_crypto.Rsa
module Sim_rsa = Memguard_ssl.Sim_rsa
module Prng = Memguard_util.Prng

type session = {
  master_addr : int;
  master_len : int;
  key_block_addr : int;
  key_block_len : int;
  mutable seq : int;
}

(* the SSL3/TLS1.0-flavoured PRF, MD5 half only (era-appropriate) *)
let prf ~secret ~label ~seed ~length =
  (* A(1) = MD5(secret || seed), A(i+1) = MD5(secret || A(i)); output block
     i is MD5(secret || A(i) || label || seed) *)
  let out = Bytes.create length in
  let label_seed = label ^ seed in
  let a = ref (Md5.digest (secret ^ seed)) in
  let pos = ref 0 in
  while !pos < length do
    let block = Md5.digest (String.concat "" [ secret; !a; label_seed ]) in
    Bytes.blit_string block 0 out !pos (min 16 (length - !pos));
    pos := !pos + 16;
    if !pos < length then a := Md5.digest (secret ^ !a)
  done;
  Bytes.unsafe_to_string out

let server_handshake rng k proc ~cert_key =
  let n = cert_key.Sim_rsa.pub.Rsa.n in
  let client_random = Bytes.to_string (Prng.bytes rng 16) in
  let server_random = Bytes.to_string (Prng.bytes rng 16) in
  (* client: premaster secret, RSA-encrypted to the certificate key *)
  let premaster_bn = Bn.random_below rng n in
  let encrypted = Rsa.encrypt_raw cert_key.Sim_rsa.pub premaster_bn in
  (* server: THE private-key operation *)
  let premaster = Sim_rsa.private_op k proc cert_key encrypted in
  (* the premaster must round-trip: the one run-time check that the
     private-key op, on key parts read back through simulated memory, came
     out right *)
  assert (Bn.equal premaster premaster_bn);
  let pm_bytes = Bn.to_bytes_be premaster in
  (* the decrypted premaster transits a server buffer; ssl3 memsets it
     after deriving the master secret *)
  let pm_buf = Kernel.malloc k proc (max 1 (String.length pm_bytes)) in
  Kernel.write_mem k proc ~addr:pm_buf pm_bytes;
  let master = prf ~secret:pm_bytes ~label:"master secret" ~seed:(client_random ^ server_random) ~length:24 in
  Kernel.zero_mem k proc ~addr:pm_buf ~len:(String.length pm_bytes);
  Kernel.free k proc pm_buf;
  (* master secret and key block stay resident server-side *)
  let master_addr = Kernel.malloc k proc (String.length master) in
  Kernel.write_mem k proc ~addr:master_addr master;
  let key_block =
    prf ~secret:master ~label:"key expansion" ~seed:(server_random ^ client_random) ~length:32
  in
  let key_block_addr = Kernel.malloc k proc (String.length key_block) in
  Kernel.write_mem k proc ~addr:key_block_addr key_block;
  { master_addr;
    master_len = String.length master;
    key_block_addr;
    key_block_len = String.length key_block;
    seq = 0
  }

let record_key k proc s =
  let block = Kernel.read_mem k proc ~addr:s.key_block_addr ~len:s.key_block_len in
  String.sub block 0 16

let iv_for s ~seq =
  Md5.digest (String.concat "" [ "iv-"; string_of_int s.key_block_addr; "-"; string_of_int seq ])

let seal k proc s payload =
  let key = record_key k proc s in
  let iv = iv_for s ~seq:s.seq in
  let sealed = Aes.cbc_encrypt ~key ~iv payload in
  s.seq <- s.seq + 1;
  sealed

let open_record k proc s ~seq data =
  let key = record_key k proc s in
  Aes.cbc_decrypt ~key ~iv:(iv_for s ~seq) data

let close k proc s =
  Kernel.free k proc s.master_addr;
  Kernel.free k proc s.key_block_addr
