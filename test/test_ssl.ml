open Memguard_kernel
open Memguard_ssl
open Memguard_vmm
open Memguard_bignum
open Memguard_util
module Rsa = Memguard_crypto.Rsa

let key = lazy (Rsa.generate (Prng.of_int 2024) ~bits:256)

let config = { Kernel.default_config with num_pages = 1024 }

let setup ?(config = config) () =
  let k = Kernel.create ~config () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/etc/key.pem" priv);
  (k, priv)

let count_pattern k needle = Bytes_util.count ~needle (Phys_mem.raw (Kernel.mem k))

(* ---- sim_bn ---- *)

let test_sim_bn_roundtrip () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"a" in
  let v = Bn.of_hex "deadbeefcafebabe0123456789" in
  let b = Sim_bn.alloc k p v in
  Alcotest.(check bool) "value survives" true (Bn.equal v (Sim_bn.value k p b));
  Alcotest.(check string) "pattern is magnitude" (Bn.to_bytes_be v) (Sim_bn.pattern k p b)

let test_sim_bn_clear_free () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"a" in
  let v = Bn.of_hex "deadbeefcafebabe0123456789" in
  let b = Sim_bn.alloc k p v in
  Sim_bn.clear_free k p b;
  Alcotest.(check int) "no trace in memory" 0 (count_pattern k (Bn.to_bytes_be v))

let test_sim_bn_free_insecure_leaks () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"a" in
  let v = Bn.of_hex "deadbeefcafebabe0123456789" in
  let b = Sim_bn.alloc k p v in
  Sim_bn.free_insecure k p b;
  Alcotest.(check int) "digits linger in heap" 1 (count_pattern k (Bn.to_bytes_be v))

let test_sim_bn_store () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"a" in
  let b = Sim_bn.alloc k p (Bn.of_hex "ffffffffffffffff") in
  Sim_bn.store k p b (Bn.of_int 5);
  Alcotest.(check bool) "updated" true (Bn.equal (Bn.of_int 5) (Sim_bn.value k p b))

let test_sim_bn_static_data_not_freed () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"a" in
  let v = Bn.of_hex "0123456789abcdef11" in
  let b = Sim_bn.alloc k p v in
  b.Sim_bn.static_data <- true;
  Sim_bn.clear_free k p b;
  Alcotest.(check bool) "storage untouched" true (Bn.equal v (Sim_bn.value k p b))

(* ---- load paths ---- *)

let test_load_vanilla_copy_sites () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" Ssl.Vanilla in
  (* d appears in: the stale DER buffer + the d BIGNUM *)
  Alcotest.(check int) "two copies of d" 2 (count_pattern k (Rsa.pattern_d priv));
  (* the PEM text appears in: page cache + the stale PEM heap buffer *)
  let pem = Rsa.pem_of_priv priv in
  Alcotest.(check int) "two copies of the PEM text" 2 (count_pattern k pem);
  (* the key is functional *)
  let m = Bn.of_int 42 in
  Alcotest.(check bool) "roundtrip" true
    (Bn.equal m (Sim_rsa.private_op k p rsa (Rsa.encrypt_raw rsa.Sim_rsa.pub m)))

let test_load_vanilla_op_adds_mont_copies () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" Ssl.Vanilla in
  let before = count_pattern k (Rsa.pattern_p priv) in
  ignore (Sim_rsa.private_op k p rsa (Bn.of_int 7));
  let after = count_pattern k (Rsa.pattern_p priv) in
  Alcotest.(check int) "mont cache adds one copy of p" (before + 1) after;
  (* a second op does not add more *)
  ignore (Sim_rsa.private_op k p rsa (Bn.of_int 8));
  Alcotest.(check int) "cache hit adds none" after (count_pattern k (Rsa.pattern_p priv))

let test_load_hardened_single_copies () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" Ssl.Hardened in
  Alcotest.(check int) "one copy of d" 1 (count_pattern k (Rsa.pattern_d priv));
  Alcotest.(check int) "one copy of p" 1 (count_pattern k (Rsa.pattern_p priv));
  Alcotest.(check int) "one copy of q" 1 (count_pattern k (Rsa.pattern_q priv));
  (* the PEM heap buffer was zeroized; only the page-cache copy remains *)
  Alcotest.(check int) "one PEM copy (page cache)" 1 (count_pattern k (Rsa.pem_of_priv priv));
  (* operations do not create new copies (cache flag cleared) *)
  for i = 1 to 3 do
    ignore (Sim_rsa.private_op k p rsa (Bn.of_int i))
  done;
  Alcotest.(check int) "still one copy of p" 1 (count_pattern k (Rsa.pattern_p priv));
  Alcotest.(check int) "still one copy of d" 1 (count_pattern k (Rsa.pattern_d priv))

let test_load_hardened_nocache_no_pem () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  ignore (Ssl.load_private_key k p ~path:"/etc/key.pem" ~nocache:true Ssl.Hardened);
  Alcotest.(check int) "no PEM copy anywhere" 0 (count_pattern k (Rsa.pem_of_priv priv));
  Alcotest.(check int) "exactly one copy of d" 1 (count_pattern k (Rsa.pattern_d priv))

let test_aligned_region_is_locked_and_page_aligned () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" Ssl.Hardened in
  let region = Option.get rsa.Sim_rsa.aligned_region in
  Alcotest.(check int) "page aligned" 0 (region mod 4096);
  let pfn = Option.get (Kernel.pfn_of_vaddr k p region) in
  Alcotest.(check bool) "frame locked" true (Phys_mem.page (Kernel.mem k) pfn).Page.locked;
  (* all six parts inside the region's page(s) *)
  let size = Option.get (Kernel.alloc_size k p region) in
  List.iter
    (fun (b : Sim_bn.t) ->
      Alcotest.(check bool) "part inside region" true
        (b.Sim_bn.data >= region && b.Sim_bn.data + b.Sim_bn.size <= region + size))
    [ rsa.Sim_rsa.d; rsa.Sim_rsa.p; rsa.Sim_rsa.q; rsa.Sim_rsa.dp; rsa.Sim_rsa.dq;
      rsa.Sim_rsa.qinv ]

let test_memory_align_idempotent () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" Ssl.Hardened in
  let region = rsa.Sim_rsa.aligned_region in
  Sim_rsa.memory_align k p rsa;
  Alcotest.(check bool) "same region" true (rsa.Sim_rsa.aligned_region = region);
  Alcotest.(check int) "still one copy of d" 1 (count_pattern k (Rsa.pattern_d priv))

let test_align_key_still_works () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" Ssl.Hardened in
  Alcotest.(check bool) "recovered key equals original" true
    (Rsa.equal_priv priv (Sim_rsa.recover_priv k p rsa));
  let pub = rsa.Sim_rsa.pub in
  for i = 1 to 3 do
    let m = Bn.of_int (i * 1000) in
    Alcotest.(check bool) "op correct" true
      (Bn.equal m (Sim_rsa.private_op k p rsa (Rsa.encrypt_raw pub m)))
  done

let test_clear_free_removes_everything () =
  let k, priv = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key.pem" ~nocache:true Ssl.Hardened in
  ignore (Sim_rsa.private_op k p rsa (Bn.of_int 3));
  Sim_rsa.clear_free k p rsa;
  Alcotest.(check int) "no d" 0 (count_pattern k (Rsa.pattern_d priv));
  Alcotest.(check int) "no p" 0 (count_pattern k (Rsa.pattern_p priv));
  Alcotest.(check int) "no q" 0 (count_pattern k (Rsa.pattern_q priv))

let test_mont_cache_per_process () =
  let k, priv = setup () in
  let parent = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k parent ~path:"/etc/key.pem" Ssl.Vanilla in
  ignore (Sim_rsa.private_op k parent rsa (Bn.of_int 5));
  Alcotest.(check int) "one cache" 1 (Sim_rsa.mont_cache_size rsa);
  let c1 = Kernel.fork k parent in
  let c2 = Kernel.fork k parent in
  let p_copies_before = count_pattern k (Rsa.pattern_p priv) in
  ignore (Sim_rsa.private_op k c1 rsa (Bn.of_int 6));
  ignore (Sim_rsa.private_op k c2 rsa (Bn.of_int 7));
  Alcotest.(check int) "three caches" 3 (Sim_rsa.mont_cache_size rsa);
  (* each worker's cache is a distinct physical copy of p; COW-breaking the
     heap pages the workers touch can duplicate even more key bytes *)
  Alcotest.(check bool) "at least two more physical copies of p" true
    (count_pattern k (Rsa.pattern_p priv) >= p_copies_before + 2)

let test_aligned_key_shared_across_forks () =
  let k, priv = setup () in
  let parent = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k parent ~path:"/etc/key.pem" ~nocache:true Ssl.Hardened in
  let children = List.init 8 (fun _ -> Kernel.fork k parent) in
  (* every child performs private operations *)
  List.iteri
    (fun i c ->
      let m = Bn.of_int (100 + i) in
      Alcotest.(check bool) "child op correct" true
        (Bn.equal m (Sim_rsa.private_op k c rsa (Rsa.encrypt_raw rsa.Sim_rsa.pub m))))
    children;
  (* ... and still exactly ONE physical copy of each part exists *)
  Alcotest.(check int) "one d across 9 procs" 1 (count_pattern k (Rsa.pattern_d priv));
  Alcotest.(check int) "one p across 9 procs" 1 (count_pattern k (Rsa.pattern_p priv));
  let region = Option.get rsa.Sim_rsa.aligned_region in
  let pfn = Option.get (Kernel.pfn_of_vaddr k parent region) in
  Alcotest.(check int) "frame shared by all 9" 9
    (Phys_mem.page (Kernel.mem k) pfn).Page.refcount;
  List.iter (fun c -> Kernel.exit k c) children;
  Alcotest.(check int) "still one d after exits" 1 (count_pattern k (Rsa.pattern_d priv))

let test_missing_key_file () =
  let k, _ = setup () in
  let p = Kernel.spawn k ~name:"srv" in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Ssl.load_private_key k p ~path:"/nope.pem" Ssl.Vanilla))

let test_corrupt_key_file () =
  let k, _ = setup () in
  ignore (Kernel.write_file k ~path:"/bad.pem" "this is not a key");
  let p = Kernel.spawn k ~name:"srv" in
  (match Ssl.load_private_key k p ~path:"/bad.pem" Ssl.Vanilla with
   | _ -> Alcotest.fail "expected failure"
   | exception Invalid_argument _ -> ());
  (* well-formed armour under another key type's label *)
  let dsa_pem = Memguard_crypto.Pem.encode ~label:"DSA PRIVATE KEY" "der" in
  ignore (Kernel.write_file k ~path:"/dsa.pem" dsa_pem);
  match Ssl.load_private_key k p ~path:"/dsa.pem" Ssl.Vanilla with
  | _ -> Alcotest.fail "expected label mismatch"
  | exception Invalid_argument _ -> ()

let suite =
  [ ( "sim_bn",
      [ Alcotest.test_case "roundtrip" `Quick test_sim_bn_roundtrip;
        Alcotest.test_case "clear_free" `Quick test_sim_bn_clear_free;
        Alcotest.test_case "free_insecure leaks" `Quick test_sim_bn_free_insecure_leaks;
        Alcotest.test_case "store" `Quick test_sim_bn_store;
        Alcotest.test_case "static_data" `Quick test_sim_bn_static_data_not_freed
      ] );
    ( "ssl",
      [ Alcotest.test_case "vanilla copy sites" `Quick test_load_vanilla_copy_sites;
        Alcotest.test_case "mont cache copies" `Quick test_load_vanilla_op_adds_mont_copies;
        Alcotest.test_case "hardened single copies" `Quick test_load_hardened_single_copies;
        Alcotest.test_case "hardened + nocache" `Quick test_load_hardened_nocache_no_pem;
        Alcotest.test_case "aligned region locked" `Quick test_aligned_region_is_locked_and_page_aligned;
        Alcotest.test_case "align idempotent" `Quick test_memory_align_idempotent;
        Alcotest.test_case "aligned key works" `Quick test_align_key_still_works;
        Alcotest.test_case "clear_free total" `Quick test_clear_free_removes_everything;
        Alcotest.test_case "mont cache per process" `Quick test_mont_cache_per_process;
        Alcotest.test_case "aligned shared across forks" `Quick test_aligned_key_shared_across_forks;
        Alcotest.test_case "missing key file" `Quick test_missing_key_file;
        Alcotest.test_case "corrupt key file" `Quick test_corrupt_key_file
      ] )
  ]

(* ---- encrypted key files (encryption at rest vs. memory disclosure) ---- *)

let write_encrypted_key k priv ~passphrase =
  let iv = String.init 16 (fun i -> Char.chr (0xA0 lxor i)) in
  ignore
    (Kernel.write_file k ~path:"/etc/key_enc.pem"
       (Rsa.pem_of_priv_encrypted ~passphrase ~iv priv))

let test_encrypted_load_works () =
  let k, priv = setup () in
  write_encrypted_key k priv ~passphrase:"hunter2";
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/etc/key_enc.pem" ~passphrase:"hunter2" Ssl.Vanilla in
  Alcotest.(check bool) "key recovered" true
    (Rsa.equal_priv priv (Sim_rsa.recover_priv k p rsa))

let test_encrypted_load_requires_passphrase () =
  let k, priv = setup () in
  write_encrypted_key k priv ~passphrase:"hunter2";
  let p = Kernel.spawn k ~name:"srv" in
  (match Ssl.load_private_key k p ~path:"/etc/key_enc.pem" Ssl.Vanilla with
   | _ -> Alcotest.fail "expected failure without passphrase"
   | exception Invalid_argument _ -> ());
  match Ssl.load_private_key k p ~path:"/etc/key_enc.pem" ~passphrase:"wrong" Ssl.Vanilla with
  | _ -> Alcotest.fail "expected failure with wrong passphrase"
  | exception Invalid_argument _ -> ()

let test_encrypted_vanilla_leaks_passphrase_and_key () =
  let k, priv = setup () in
  write_encrypted_key k priv ~passphrase:"correct horse battery";
  let p = Kernel.spawn k ~name:"srv" in
  ignore (Ssl.load_private_key k p ~path:"/etc/key_enc.pem" ~passphrase:"correct horse battery" Ssl.Vanilla);
  (* encryption at rest did not keep the key parts out of RAM... *)
  Alcotest.(check bool) "decrypted d in memory" true (count_pattern k (Rsa.pattern_d priv) >= 1);
  (* ...and the passphrase itself is now a second secret sitting in the heap *)
  Alcotest.(check bool) "passphrase in memory" true
    (count_pattern k "correct horse battery" >= 1)

let test_encrypted_hardened_scrubs_passphrase () =
  let k, priv = setup () in
  write_encrypted_key k priv ~passphrase:"correct horse battery";
  let p = Kernel.spawn k ~name:"srv" in
  ignore
    (Ssl.load_private_key k p ~path:"/etc/key_enc.pem" ~nocache:true
       ~passphrase:"correct horse battery" Ssl.Hardened);
  Alcotest.(check int) "passphrase scrubbed" 0 (count_pattern k "correct horse battery");
  Alcotest.(check int) "single d copy" 1 (count_pattern k (Rsa.pattern_d priv))

let encrypted_suite =
  ( "ssl_encrypted_keys",
    [ Alcotest.test_case "load works" `Quick test_encrypted_load_works;
      Alcotest.test_case "requires passphrase" `Quick test_encrypted_load_requires_passphrase;
      Alcotest.test_case "vanilla leaks passphrase+key" `Quick test_encrypted_vanilla_leaks_passphrase_and_key;
      Alcotest.test_case "hardened scrubs" `Quick test_encrypted_hardened_scrubs_passphrase
    ] )

let suite = suite @ [ encrypted_suite ]
