open Memguard_crypto
open Memguard_util

(* ---- md5 (RFC 1321 test suite) ---- *)

let test_md5_rfc_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Bytes_util.hex_of_string (Md5.digest input)))
    [ ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f" );
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a" )
    ]

let test_md5_block_boundaries () =
  (* lengths straddling the 55/56/63/64-byte padding edges must not crash
     and must be distinct *)
  let digests =
    List.map (fun n -> Bytes_util.hex_of_string (Md5.digest (String.make n 'x')))
      [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  let unique = List.sort_uniq compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length unique)

(* Record IVs and PRF output land in simulated RAM, so the unrolled MD5 must
   match the earlier implementation byte for byte.  Every prefix of each
   message is checked, so each run crosses the 55/56-byte (one or two
   padding blocks) and 64-byte (one more whole block) edges. *)
let prop_md5_matches_reference =
  QCheck.Test.make ~name:"md5 matches reference" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun msg ->
      List.for_all
        (fun n ->
          let prefix = String.sub msg 0 n in
          Md5.digest prefix = Md5_ref.digest prefix)
        (List.init (String.length msg + 1) Fun.id))

let test_bytes_to_key_deterministic () =
  let k1 = Md5.bytes_to_key ~passphrase:"hunter2" ~salt:"12345678" ~length:16 in
  let k2 = Md5.bytes_to_key ~passphrase:"hunter2" ~salt:"12345678" ~length:16 in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check int) "length" 16 (String.length k1);
  let k3 = Md5.bytes_to_key ~passphrase:"hunter3" ~salt:"12345678" ~length:16 in
  Alcotest.(check bool) "passphrase matters" true (k1 <> k3);
  let k4 = Md5.bytes_to_key ~passphrase:"hunter2" ~salt:"12345678" ~length:48 in
  Alcotest.(check int) "longer output" 48 (String.length k4);
  Alcotest.(check string) "prefix consistent" k1 (String.sub k4 0 16)

(* ---- aes (FIPS 197 appendix C.1) ---- *)

let fips_key = Bytes_util.string_of_hex "000102030405060708090a0b0c0d0e0f"
let fips_plain = Bytes_util.string_of_hex "00112233445566778899aabbccddeeff"
let fips_cipher = Bytes_util.string_of_hex "69c4e0d86a7b0430d8cdb78070b4c55a"

let test_aes_fips_vector () =
  let rk = Aes.expand_key fips_key in
  Alcotest.(check string) "encrypt" (Bytes_util.hex_of_string fips_cipher)
    (Bytes_util.hex_of_string (Aes.encrypt_block rk fips_plain));
  Alcotest.(check string) "decrypt" (Bytes_util.hex_of_string fips_plain)
    (Bytes_util.hex_of_string (Aes.decrypt_block rk fips_cipher))

let test_aes_bad_key_size () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand_key: key must be 16 bytes")
    (fun () -> ignore (Aes.expand_key "short"))

let test_aes_cbc_roundtrip_lengths () =
  let key = fips_key and iv = String.make 16 '\007' in
  List.iter
    (fun n ->
      let plain = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let ct = Aes.cbc_encrypt ~key ~iv plain in
      Alcotest.(check int) "padded multiple of 16" 0 (String.length ct mod 16);
      Alcotest.(check bool) "strictly longer" true (String.length ct > n);
      Alcotest.(check (result string string)) (Printf.sprintf "roundtrip %d" n) (Ok plain)
        (Aes.cbc_decrypt ~key ~iv ct))
    [ 0; 1; 15; 16; 17; 100; 256 ]

let test_aes_cbc_wrong_key_fails () =
  let iv = String.make 16 '\001' in
  let ct = Aes.cbc_encrypt ~key:fips_key ~iv "attack at dawn" in
  let wrong = String.init 16 (fun i -> Char.chr (i + 1)) in
  (match Aes.cbc_decrypt ~key:wrong ~iv ct with
   | Error _ -> ()
   | Ok plain -> Alcotest.(check bool) "wrong key yields garbage" true (plain <> "attack at dawn"))

let test_aes_cbc_tamper_detected_or_garbled () =
  let iv = String.make 16 '\002' in
  let ct = Bytes.of_string (Aes.cbc_encrypt ~key:fips_key ~iv "sixteen byte msg") in
  Bytes.set ct 3 (Char.chr (Char.code (Bytes.get ct 3) lxor 0x40));
  match Aes.cbc_decrypt ~key:fips_key ~iv (Bytes.to_string ct) with
  | Error _ -> ()
  | Ok plain -> Alcotest.(check bool) "garbled" true (plain <> "sixteen byte msg")

let test_aes_cbc_iv_matters () =
  let ct1 = Aes.cbc_encrypt ~key:fips_key ~iv:(String.make 16 'a') "same plaintext" in
  let ct2 = Aes.cbc_encrypt ~key:fips_key ~iv:(String.make 16 'b') "same plaintext" in
  Alcotest.(check bool) "different ciphertexts" true (ct1 <> ct2)

let prop_aes_cbc_roundtrip =
  QCheck.Test.make ~name:"aes-cbc roundtrip" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 100)) small_nat)
    (fun (plain, seed) ->
      let rng = Prng.of_int seed in
      let key = Bytes.to_string (Prng.bytes rng 16) in
      let iv = Bytes.to_string (Prng.bytes rng 16) in
      Aes.cbc_decrypt ~key ~iv (Aes.cbc_encrypt ~key ~iv plain) = Ok plain)

(* Sealed records land in simulated RAM, where the scanner and the attacks
   read them, so the word-oriented cipher must match the byte-oriented
   reference byte for byte, [Error]s included: on the real ciphertext, on it
   under a wrong key, and on random bytes (bad length or bad padding). *)
let prop_aes_matches_reference =
  let block = QCheck.(string_of_size (Gen.return 16)) in
  let body = QCheck.(string_of_size (Gen.int_range 0 200)) in
  QCheck.Test.make ~name:"matches byte-oriented reference" ~count:500
    QCheck.(pair (triple block block block) (pair body body))
    (fun ((key, iv, wrong), (plain, junk)) ->
      let ct = Aes.cbc_encrypt ~key ~iv plain in
      let rk = Aes.expand_key key and ref_rk = Aes_ref.expand_key key in
      let blocks = String.sub junk 0 (String.length junk land lnot 15) in
      ct = Aes_ref.cbc_encrypt ~key ~iv plain
      && Aes.encrypt_block rk iv = Aes_ref.encrypt_block ref_rk iv
      && Aes.decrypt_block rk iv = Aes_ref.decrypt_block ref_rk iv
      && List.for_all
           (fun (key, data) -> Aes.cbc_decrypt ~key ~iv data = Aes_ref.cbc_decrypt ~key ~iv data)
           [ (key, ct); (wrong, ct); (key, junk); (key, blocks) ])

(* ---- encrypted pem ---- *)

let test_pem_encrypted_roundtrip () =
  let iv = String.init 16 (fun i -> Char.chr (0x30 + i)) in
  let pem = Pem.encode_encrypted ~label:"RSA PRIVATE KEY" ~passphrase:"s3cret" ~iv "DER-PAYLOAD" in
  Alcotest.(check bool) "marked encrypted" true (Pem.is_encrypted pem);
  Alcotest.(check (result string string)) "decrypts" (Ok "DER-PAYLOAD")
    (Pem.decode_encrypted ~label:"RSA PRIVATE KEY" ~passphrase:"s3cret" pem);
  Alcotest.(check bool) "wrong passphrase fails" true
    (Result.is_error (Pem.decode_encrypted ~passphrase:"wrong" pem)
     || Pem.decode_encrypted ~passphrase:"wrong" pem <> Ok "DER-PAYLOAD")

let test_pem_encrypted_requires_passphrase () =
  let iv = String.make 16 'Z' in
  let pem = Pem.encode_encrypted ~label:"K" ~passphrase:"pw" ~iv "data" in
  Alcotest.(check bool) "plain decode refuses" true (Result.is_error (Pem.decode pem))

let test_pem_plain_not_marked_encrypted () =
  Alcotest.(check bool) "not encrypted" false (Pem.is_encrypted (Pem.encode ~label:"K" "data"))

let test_pem_ciphertext_hides_payload () =
  let iv = String.make 16 'Q' in
  let payload = "TOP-SECRET-KEY-MATERIAL-THAT-MUST-NOT-LEAK" in
  let pem = Pem.encode_encrypted ~label:"K" ~passphrase:"pw" ~iv payload in
  (* neither the PEM text nor its base64-decoded body contains the payload *)
  Alcotest.(check bool) "not in armour" true
    (Bytes_util.find_first ~needle:payload (Bytes.of_string pem) = None)

let test_rsa_encrypted_pem_roundtrip () =
  let rng = Prng.of_int 808 in
  let key = Rsa.generate rng ~bits:128 in
  let iv = Bytes.to_string (Prng.bytes rng 16) in
  let pem = Rsa.pem_of_priv_encrypted ~passphrase:"hunter2" ~iv key in
  (match Helpers.priv_of_pem_encrypted ~passphrase:"hunter2" pem with
   | Ok k -> Alcotest.(check bool) "roundtrip" true (Helpers.equal_priv k key)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "wrong passphrase rejected" true
    (Result.is_error (Helpers.priv_of_pem_encrypted ~passphrase:"nope" pem))

let suite =
  [ ( "md5",
      [ Alcotest.test_case "rfc 1321 vectors" `Quick test_md5_rfc_vectors;
        Alcotest.test_case "block boundaries" `Quick test_md5_block_boundaries;
        QCheck_alcotest.to_alcotest prop_md5_matches_reference;
        Alcotest.test_case "bytes_to_key" `Quick test_bytes_to_key_deterministic
      ] );
    ( "aes",
      [ Alcotest.test_case "fips 197 vector" `Quick test_aes_fips_vector;
        Alcotest.test_case "bad key size" `Quick test_aes_bad_key_size;
        Alcotest.test_case "cbc roundtrip lengths" `Quick test_aes_cbc_roundtrip_lengths;
        Alcotest.test_case "cbc wrong key" `Quick test_aes_cbc_wrong_key_fails;
        Alcotest.test_case "cbc tamper" `Quick test_aes_cbc_tamper_detected_or_garbled;
        Alcotest.test_case "cbc iv matters" `Quick test_aes_cbc_iv_matters;
        QCheck_alcotest.to_alcotest prop_aes_cbc_roundtrip;
        QCheck_alcotest.to_alcotest prop_aes_matches_reference
      ] );
    ( "encrypted_pem",
      [ Alcotest.test_case "roundtrip" `Quick test_pem_encrypted_roundtrip;
        Alcotest.test_case "requires passphrase" `Quick test_pem_encrypted_requires_passphrase;
        Alcotest.test_case "plain not marked" `Quick test_pem_plain_not_marked_encrypted;
        Alcotest.test_case "ciphertext hides payload" `Quick test_pem_ciphertext_hides_payload;
        Alcotest.test_case "rsa key roundtrip" `Quick test_rsa_encrypted_pem_roundtrip
      ] )
  ]

(* ---- sha1 (FIPS 180-1 vectors) ---- *)

let test_sha1_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Bytes_util.hex_of_string (Sha1.digest input)))
    [ ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
      ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
      ("The quick brown fox jumps over the lazy dog",
       "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12")
    ]

let test_sha1_million_a () =
  (* the classic long-input vector *)
  Alcotest.(check string) "10^6 x 'a'" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Bytes_util.hex_of_string (Sha1.digest (String.make 1_000_000 'a')))

let test_sha1_block_boundaries () =
  let digests =
    List.map (fun n -> Bytes_util.hex_of_string (Sha1.digest (String.make n 'x')))
      [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  Alcotest.(check int) "all distinct" (List.length digests)
    (List.length (List.sort_uniq compare digests))

let sha1_suite =
  ( "sha1",
    [ Alcotest.test_case "fips vectors" `Quick test_sha1_vectors;
      Alcotest.test_case "million a" `Slow test_sha1_million_a;
      Alcotest.test_case "block boundaries" `Quick test_sha1_block_boundaries
    ] )

let suite = suite @ [ sha1_suite ]
