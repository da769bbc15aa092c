open Memguard_kernel
open Memguard_bignum
open Memguard_ssl
open Memguard_util
open Memguard_scan
module Rsa = Memguard_crypto.Rsa
module Apache = Memguard_apps.Apache

let bn = Alcotest.testable Bn.pp Bn.equal

(* ---- Bn convenience ops ---- *)

let test_bn_small_helpers () =
  Alcotest.(check string) "to_hex negative" "-ff" (Bn.to_hex (Bn.of_int (-255)));
  Alcotest.(check int) "num_limbs zero" 0 (Bn.num_limbs Bn.zero);
  Alcotest.(check int) "num_limbs 2^24" 2 (Bn.num_limbs (Bn.shift_left Bn.one 24))

(* ---- report rendering ---- *)

let test_report_pp () =
  let snap = Report.of_hits ~time:7 [] in
  Alcotest.(check string) "pp" "t=7: 0 copies (0 allocated, 0 unallocated)"
    (Format.asprintf "%a" Helpers.pp_snapshot snap)

(* ---- scanner without swap ---- *)

let test_scan_swap_no_device () =
  let k = Kernel.create ~config:{ Kernel.default_config with num_pages = 64 } () in
  Alcotest.(check int) "empty" 0 (List.length (Scanner.scan_swap k (Scanner.matcher [ ("x", "YY") ])))

(* ---- ext2 unmount ---- *)

let test_ext2_unmount_restores_pages () =
  let k = Kernel.create ~config:{ Kernel.default_config with num_pages = 64 } () in
  let before = (Kernel.stats k).Kernel.free_pages in
  for _ = 1 to 10 do
    ignore (Kernel.ext2_mkdir_leak k)
  done;
  Alcotest.(check int) "blocks held" (before - 10) (Kernel.stats k).Kernel.free_pages;
  Kernel.ext2_unmount k;
  Alcotest.(check int) "restored" before (Kernel.stats k).Kernel.free_pages;
  Alcotest.(check bool) "invariants" true (Kernel.check_invariants k = Ok ())

(* ---- apache recycling ---- *)

let test_apache_recycling_replaces_pid () =
  let k = Kernel.create ~config:{ Kernel.default_config with num_pages = 1024 } () in
  let priv = Rsa.generate (Prng.of_int 2121) ~bits:128 in
  ignore (Ssl.write_key_file k ~path:"/k.pem" priv);
  let ap =
    Apache.start k ~key_path:"/k.pem"
      { Helpers.apache_vanilla with workers = 1; max_clients = 1; max_requests_per_child = 3 }
  in
  let rng = Prng.of_int 5 in
  let pids_before = Apache.worker_pids ap in
  Helpers.apache_sequential ap rng ~n:3;
  let pids_after = Apache.worker_pids ap in
  Alcotest.(check int) "pool size stable" (List.length pids_before) (List.length pids_after);
  Alcotest.(check bool) "worker was recycled (new pid)" true (pids_before <> pids_after);
  Apache.stop ap;
  Alcotest.(check int) "clean teardown" 0 (Kernel.stats k).Kernel.live_proc_count

(* ---- sim_rsa insecure teardown ---- *)

let test_sim_rsa_free_insecure_leaves_copies () =
  let k = Kernel.create ~config:{ Kernel.default_config with num_pages = 512 } () in
  let priv = Rsa.generate (Prng.of_int 3131) ~bits:128 in
  ignore (Ssl.write_key_file k ~path:"/k.pem" priv);
  let p = Kernel.spawn k ~name:"app" in
  let rsa = Ssl.load_private_key k p ~path:"/k.pem" Ssl.Vanilla in
  ignore (Sim_rsa.private_op k p rsa (Bn.of_int 5));
  Sim_rsa.free_insecure k p rsa;
  (* the careless path: everything freed, nothing cleared *)
  Alcotest.(check bool) "d still in heap" true
    (Bytes_util.count ~needle:(Rsa.pattern_d priv)
       (Memguard_vmm.Phys_mem.raw (Kernel.mem k))
     >= 1)

let suite =
  [ ( "misc_extra",
      [ Alcotest.test_case "bn helpers" `Quick test_bn_small_helpers;
        Alcotest.test_case "report pp" `Quick test_report_pp;
        Alcotest.test_case "scan_swap no device" `Quick test_scan_swap_no_device;
        Alcotest.test_case "ext2 unmount" `Quick test_ext2_unmount_restores_pages;
        Alcotest.test_case "apache recycling pid" `Quick test_apache_recycling_replaces_pid;
        Alcotest.test_case "free_insecure leaves copies" `Quick test_sim_rsa_free_insecure_leaves_copies
      ] )
  ]
