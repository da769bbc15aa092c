open Memguard_kernel
open Memguard_scan
open Memguard_util
module Rsa = Memguard_crypto.Rsa

let config = { Kernel.default_config with num_pages = 512 }

let test_scan_finds_planted_pattern () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"victim" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "NEEDLE-IN-HAYSTACK";
  let hits = Scanner.scan k ~patterns:[ ("needle", "NEEDLE-IN-HAYSTACK") ] in
  Alcotest.(check int) "one hit" 1 (List.length hits);
  let hit = List.hd hits in
  Alcotest.(check string) "label" "needle" hit.Scanner.label;
  (match hit.Scanner.location with
   | Scanner.Allocated_anon pids -> Alcotest.(check (list int)) "pid" [ p.Proc.pid ] pids
   | _ -> Alcotest.fail "expected anon location")

let test_scan_empty_memory () =
  let k = Kernel.create ~config () in
  Alcotest.(check int) "no hits" 0 (List.length (Scanner.scan k ~patterns:[ ("x", "NOPE") ]))

let test_scan_classifies_unallocated () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"victim" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "GHOST-PATTERN-42";
  Kernel.exit k p;
  let hits = Scanner.scan k ~patterns:[ ("ghost", "GHOST-PATTERN-42") ] in
  Alcotest.(check int) "one hit" 1 (List.length hits);
  Alcotest.(check bool) "unallocated" false
    (Scanner.is_allocated (List.hd hits).Scanner.location)

let test_scan_classifies_page_cache () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"reader" in
  let ino = Kernel.write_file k ~path:"/f" "FILE-CACHE-PATTERN" in
  ignore (Kernel.read_file k p ~path:"/f" ~nocache:false);
  let hits = Scanner.scan k ~patterns:[ ("f", "FILE-CACHE-PATTERN") ] in
  (* one page-cache copy + one user-buffer copy *)
  Alcotest.(check int) "two hits" 2 (List.length hits);
  let cache_hits =
    List.filter
      (fun h ->
        match h.Scanner.location with
        | Scanner.Allocated_page_cache { ino = i; _ } -> i = ino
        | _ -> false)
      hits
  in
  Alcotest.(check int) "one page-cache hit" 1 (List.length cache_hits)

let test_scan_shared_frame_lists_all_pids () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p 32 in
  Kernel.write_mem k p ~addr "SHARED-SECRET-XY";
  let c1 = Kernel.fork k p in
  let c2 = Kernel.fork k p in
  let hits = Scanner.scan k ~patterns:[ ("s", "SHARED-SECRET-XY") ] in
  Alcotest.(check int) "one physical copy" 1 (List.length hits);
  (match (List.hd hits).Scanner.location with
   | Scanner.Allocated_anon pids ->
     Alcotest.(check (list int)) "all three pids" [ p.Proc.pid; c1.Proc.pid; c2.Proc.pid ] pids
   | _ -> Alcotest.fail "expected anon")

let test_scan_multiple_patterns_sorted () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"a" in
  let a1 = Kernel.malloc k p 32 in
  Kernel.write_mem k p ~addr:a1 "PATTERN-ALPHA-00";
  let a2 = Kernel.malloc k p 32 in
  Kernel.write_mem k p ~addr:a2 "PATTERN-BETA-111";
  let hits =
    Scanner.scan k ~patterns:[ ("beta", "PATTERN-BETA-111"); ("alpha", "PATTERN-ALPHA-00") ]
  in
  Alcotest.(check (list string)) "sorted by address" [ "alpha"; "beta" ]
    (List.map (fun h -> h.Scanner.label) hits);
  let addrs = List.map (fun h -> h.Scanner.addr) hits in
  Alcotest.(check bool) "ascending" true (List.sort compare addrs = addrs)

let test_scan_empty_pattern_rejected () =
  let k = Kernel.create ~config () in
  Alcotest.check_raises "empty pattern" (Invalid_argument "Scanner.scan: empty pattern")
    (fun () -> ignore (Scanner.scan k ~patterns:[ ("x", "") ]));
  Alcotest.check_raises "offline count" (Invalid_argument "Scanner.count_copies: empty pattern")
    (fun () -> ignore (Scanner.count_copies ~patterns:[ ("x", "") ] (Bytes.of_string "abc")))

let test_key_patterns () =
  let priv = Rsa.generate (Prng.of_int 77) ~bits:128 in
  let ps = Scanner.key_patterns priv in
  Alcotest.(check (list string)) "labels" [ "d"; "p"; "q" ] (List.map fst ps);
  let ps = Scanner.key_patterns ~pem:"PEMPEM" priv in
  Alcotest.(check (list string)) "labels with pem" [ "d"; "p"; "q"; "pem" ] (List.map fst ps)

let test_scan_swap () =
  let k = Kernel.create ~config:{ config with num_pages = 32; swap_slots = 64 } () in
  let p = Kernel.spawn k ~name:"victim" in
  let a = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:a "SWAP-ME-PATTERN";
  let hog = Kernel.spawn k ~name:"hog" in
  (match Kernel.malloc k hog (40 * 4096) with
   | addr -> Kernel.write_mem k hog ~addr (String.make (40 * 4096) 'x')
   | exception Kernel.Out_of_memory -> ());
  let hits = Scanner.scan_swap k (Scanner.matcher [ ("s", "SWAP-ME-PATTERN") ]) in
  Alcotest.(check bool) "pattern found on swap" true (List.length hits >= 1)

(* ---- report ---- *)

let test_report_counts () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"a" in
  let a1 = Kernel.malloc k p 32 in
  Kernel.write_mem k p ~addr:a1 "REPORT-PATTERN-1";
  let dead = Kernel.spawn k ~name:"b" in
  let a2 = Kernel.malloc k dead 32 in
  Kernel.write_mem k dead ~addr:a2 "REPORT-PATTERN-1";
  Kernel.exit k dead;
  let hits = Scanner.scan k ~patterns:[ ("r", "REPORT-PATTERN-1") ] in
  let snap = Report.of_hits ~time:5 hits in
  Alcotest.(check int) "total" 2 snap.Report.total;
  Alcotest.(check int) "allocated" 1 snap.Report.allocated;
  Alcotest.(check int) "unallocated" 1 snap.Report.unallocated;
  Alcotest.(check int) "time" 5 snap.Report.time;
  Alcotest.(check (list (pair string int))) "by label" [ ("r", 2) ] (Report.by_label snap);
  Alcotest.(check int) "locations" 2 (List.length (Report.locations snap))

let test_report_series_render () =
  let s1 = Report.of_hits ~time:0 [] in
  let s2 = Report.of_hits ~time:1 [] in
  let out = Format.asprintf "%a" Report.pp_series [ s1; s2 ] in
  Alcotest.(check int) "three lines" 3 (List.length (String.split_on_char '\n' (String.trim out)))

let suite =
  [ ( "scanner",
      [ Alcotest.test_case "finds planted" `Quick test_scan_finds_planted_pattern;
        Alcotest.test_case "empty memory" `Quick test_scan_empty_memory;
        Alcotest.test_case "unallocated class" `Quick test_scan_classifies_unallocated;
        Alcotest.test_case "page cache class" `Quick test_scan_classifies_page_cache;
        Alcotest.test_case "shared frame rmap" `Quick test_scan_shared_frame_lists_all_pids;
        Alcotest.test_case "multi patterns sorted" `Quick test_scan_multiple_patterns_sorted;
        Alcotest.test_case "empty pattern" `Quick test_scan_empty_pattern_rejected;
        Alcotest.test_case "key patterns" `Quick test_key_patterns;
        Alcotest.test_case "swap scan" `Quick test_scan_swap
      ] );
    ( "report",
      [ Alcotest.test_case "counts" `Quick test_report_counts;
        Alcotest.test_case "series render" `Quick test_report_series_render
      ] )
  ]

(* ---- snapshot diffing (the Section 3.2 reading of the figures) ---- *)

let test_report_diff () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"srv" in
  let a1 = Kernel.malloc k p 32 in
  Kernel.write_mem k p ~addr:a1 "DIFF-PATTERN-ONE";
  let snap1 =
    Report.of_hits ~time:0 (Scanner.scan k ~patterns:[ ("x", "DIFF-PATTERN-ONE") ])
  in
  (* a second copy appears... *)
  let p2 = Kernel.spawn k ~name:"other" in
  let a2 = Kernel.malloc k p2 32 in
  Kernel.write_mem k p2 ~addr:a2 "DIFF-PATTERN-ONE";
  let snap2 =
    Report.of_hits ~time:1 (Scanner.scan k ~patterns:[ ("x", "DIFF-PATTERN-ONE") ])
  in
  let d = Helpers.diff ~before:snap1 ~after:snap2 in
  Alcotest.(check int) "one appeared" 1 (List.length d.Helpers.appeared);
  Alcotest.(check int) "none vanished" 0 (List.length d.Helpers.vanished);
  Alcotest.(check int) "none migrated" 0 (List.length d.Helpers.migrated);
  (* ...then its owner dies: same address, now unallocated = migrated *)
  Kernel.exit k p2;
  let snap3 =
    Report.of_hits ~time:2 (Scanner.scan k ~patterns:[ ("x", "DIFF-PATTERN-ONE") ])
  in
  let d = Helpers.diff ~before:snap2 ~after:snap3 in
  Alcotest.(check int) "copy migrated to unallocated" 1 (List.length d.Helpers.migrated);
  Alcotest.(check int) "nothing appeared" 0 (List.length d.Helpers.appeared)

let diff_suite = ("report_diff", [ Alcotest.test_case "diff" `Quick test_report_diff ])

let suite = suite @ [ diff_suite ]
