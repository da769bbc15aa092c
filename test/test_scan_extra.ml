open Memguard_kernel
open Memguard_scan
open Memguard_attack
open Memguard_util
open Memguard_ssl
module Rsa = Memguard_crypto.Rsa

let config = { Kernel.default_config with num_pages = 512 }

(* ---- partial matches ---- *)

let test_partial_match_reported () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"victim" in
  let secret = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcd" (* 40 bytes *) in
  let addr = Kernel.malloc k p 64 in
  (* plant only the first 24 bytes — a fragment, as left by a partial
     overwrite of a freed buffer *)
  Kernel.write_mem k p ~addr (String.sub secret 0 24);
  let hits = Helpers.scan_detailed k ~patterns:[ ("frag", secret) ] () in
  Alcotest.(check int) "one partial hit" 1 (List.length hits);
  let h = List.hd hits in
  Alcotest.(check bool) "not full" false h.Helpers.full;
  Alcotest.(check int) "24 bytes matched" 24 h.Helpers.matched_bytes

let test_partial_below_min_suppressed () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"victim" in
  let secret = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcd" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr (String.sub secret 0 10);
  (* 10 < MIN (20): the LKM would stay silent *)
  Alcotest.(check int) "suppressed" 0
    (List.length (Helpers.scan_detailed k ~patterns:[ ("frag", secret) ] ()));
  (* but a lower threshold reports it *)
  Alcotest.(check int) "reported at min_bytes=8" 1
    (List.length (Helpers.scan_detailed k ~patterns:[ ("frag", secret) ] ~min_bytes:8 ()))

let test_full_match_detailed () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"victim" in
  let secret = "FULL-MATCH-PATTERN-HERE!" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr secret;
  let hits = Helpers.scan_detailed k ~patterns:[ ("s", secret) ] () in
  Alcotest.(check int) "one hit" 1 (List.length hits);
  let h = List.hd hits in
  Alcotest.(check bool) "full" true h.Helpers.full;
  Alcotest.(check int) "whole length" (String.length secret) h.Helpers.matched_bytes

(* ---- core dumps ---- *)

let key = lazy (Rsa.generate (Prng.of_int 515) ~bits:256)

let setup_loaded mode =
  let k = Kernel.create ~config () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/key.pem" priv);
  let p = Kernel.spawn k ~name:"srv" in
  let rsa = Ssl.load_private_key k p ~path:"/key.pem" ~nocache:true mode in
  (k, priv, p, rsa)

let test_core_dump_exposes_vanilla () =
  let k, priv, p, _ = setup_loaded Ssl.Vanilla in
  let core = Core_dump.dump k p in
  Alcotest.(check bool) "key in core" true
    (Core_dump.count_copies core ~patterns:(Scanner.key_patterns priv) > 0)

let test_core_dump_exposes_even_aligned () =
  (* the paper's point: minimising copies does not help against a dump of
     the process's own address space — the one remaining copy is in it *)
  let k, priv, p, _ = setup_loaded Ssl.Hardened in
  let core = Core_dump.dump k p in
  Alcotest.(check int) "exactly the aligned copies" 3
    (Core_dump.count_copies core ~patterns:(Scanner.key_patterns priv))

let test_core_dump_after_clear_free_is_clean () =
  let k, priv, p, rsa = setup_loaded Ssl.Hardened in
  Memguard_ssl.Sim_rsa.clear_free k p rsa;
  let core = Core_dump.dump k p in
  Alcotest.(check int) "nothing left" 0
    (Core_dump.count_copies core ~patterns:(Scanner.key_patterns priv))

(* ---- crash teardown ---- *)

let test_crash_leaks_under_app_level_only () =
  (* application-level protection + vanilla kernel: a crash dumps the
     aligned page into the free lists uncleared *)
  let k = Kernel.create ~config () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/key.pem" priv);
  let srv =
    Memguard_apps.Sshd.start k ~key_path:"/key.pem"
      { Memguard_apps.Sshd.no_reexec = true; ssl_mode = Ssl.Hardened; nocache = true }
  in
  Helpers.sshd_crash k srv;
  let hits = Scanner.scan k ~patterns:(Scanner.key_patterns priv) in
  Alcotest.(check bool) "key copies in free memory after crash" true
    (List.exists (fun h -> not (Scanner.is_allocated h.Scanner.location)) hits)

let test_crash_safe_with_zero_on_free () =
  let k = Kernel.create ~config:{ config with zero_on_free = true } () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/key.pem" priv);
  let srv =
    Memguard_apps.Sshd.start k ~key_path:"/key.pem"
      { Memguard_apps.Sshd.no_reexec = true; ssl_mode = Ssl.Hardened; nocache = true }
  in
  Helpers.sshd_crash k srv;
  Alcotest.(check int) "nothing survives the crash" 0
    (List.length (Scanner.scan k ~patterns:(Scanner.key_patterns priv)))

let suite =
  [ ( "scanner_partial",
      [ Alcotest.test_case "partial reported" `Quick test_partial_match_reported;
        Alcotest.test_case "below min suppressed" `Quick test_partial_below_min_suppressed;
        Alcotest.test_case "full detailed" `Quick test_full_match_detailed
      ] );
    ( "core_dump",
      [ Alcotest.test_case "exposes vanilla" `Quick test_core_dump_exposes_vanilla;
        Alcotest.test_case "exposes even aligned" `Quick test_core_dump_exposes_even_aligned;
        Alcotest.test_case "clean after clear_free" `Quick test_core_dump_after_clear_free_is_clean
      ] );
    ( "crash",
      [ Alcotest.test_case "app-level leaks on crash" `Quick test_crash_leaks_under_app_level_only;
        Alcotest.test_case "zero_on_free saves the crash" `Quick test_crash_safe_with_zero_on_free
      ] )
  ]

(* a pattern that physically straddles a page boundary (planted directly in
   physical memory — process allocations never do this, but kernel buffers
   could): the hit is attributed to the page holding its first byte *)
let test_cross_page_hit_classification () =
  let k = Kernel.create ~config () in
  let mem = Kernel.mem k in
  let addr = (3 * 4096) - 8 in
  Memguard_vmm.Phys_mem.write mem ~addr "CROSS-PAGE-PATTERN";
  let hits = Scanner.scan k ~patterns:[ ("x", "CROSS-PAGE-PATTERN") ] in
  Alcotest.(check int) "found" 1 (List.length hits);
  let h = List.hd hits in
  Alcotest.(check int) "attributed to first page" 2 h.Scanner.pfn;
  Alcotest.(check bool) "free pages -> unallocated" false (Scanner.is_allocated h.Scanner.location)

let cross_suite =
  ("scanner_cross_page", [ Alcotest.test_case "cross-page hit" `Quick test_cross_page_hit_classification ])

let suite = suite @ [ cross_suite ]
