open Memguard_kernel
open Memguard_scan
open Memguard_util
open Memguard_vmm

let config = { Kernel.default_config with num_pages = 128 }
let ps = 4096

let patterns =
  [ ("alpha", "ALPHA-PATTERN-01");
    ("beta", "BETA-KEY-MATERIAL-PATTERN-LONGER");
    ("gamma", "GAM")
  ]

(* Reference for the single-pass engine: one Bytes_util.find_all sweep of
   RAM per pattern, as (addr, label) sorted like Scanner hits. *)
let per_pattern_hits k patterns =
  let raw = Phys_mem.raw (Kernel.mem k) in
  List.concat_map
    (fun (label, needle) ->
      List.map (fun addr -> (addr, label)) (Bytes_util.find_all ~needle raw))
    patterns
  |> List.sort compare

let check_matches_cold name k cache =
  let incremental = Scan_cache.scan cache in
  let cold = Scanner.scan k ~patterns:(Scan_cache.patterns cache) in
  let reference = per_pattern_hits k (Scan_cache.patterns cache) in
  Alcotest.(check int) (name ^ ": same hit count") (List.length cold) (List.length incremental);
  Alcotest.(check bool) (name ^ ": identical hits") true (incremental = cold);
  Alcotest.(check bool) (name ^ ": single pass = one pass per pattern") true
    (List.map (fun (h : Scanner.hit) -> (h.addr, h.label)) cold = reference)

(* ---- boundary overlap: the max_needle_len - 1 extension rule ---- *)

let straddle_addr = (3 * ps) - 8 (* 8 bytes in page 2, rest in page 3 *)

let test_straddle_appears () =
  let k = Kernel.create ~config () in
  let cache = Scan_cache.create k ~patterns:[ ("x", "CROSS-PAGE-PATTERN") ] in
  Alcotest.(check int) "cold scan: nothing" 0 (List.length (Scan_cache.scan cache));
  Phys_mem.write (Kernel.mem k) ~addr:straddle_addr "CROSS-PAGE-PATTERN";
  let hits = Scan_cache.scan cache in
  Alcotest.(check int) "straddling match found" 1 (List.length hits);
  Alcotest.(check int) "at the planted address" straddle_addr (List.hd hits).Scanner.addr;
  check_matches_cold "straddle" k cache

let test_straddle_vanishes_on_tail_write () =
  (* overwrite only the *tail* page of a straddling match: the match starts
     in a page that was not itself written, so only the backward extension
     of the dirty region can invalidate it *)
  let k = Kernel.create ~config () in
  let cache = Scan_cache.create k ~patterns:[ ("x", "CROSS-PAGE-PATTERN") ] in
  Phys_mem.write (Kernel.mem k) ~addr:straddle_addr "CROSS-PAGE-PATTERN";
  Alcotest.(check int) "planted" 1 (List.length (Scan_cache.scan cache));
  Phys_mem.write (Kernel.mem k) ~addr:(3 * ps) "XXXX" (* dirties page 3 only *);
  Alcotest.(check int) "gone after tail overwrite" 0 (List.length (Scan_cache.scan cache));
  check_matches_cold "tail overwrite" k cache

let test_straddle_vanishes_on_head_write () =
  let k = Kernel.create ~config () in
  let cache = Scan_cache.create k ~patterns:[ ("x", "CROSS-PAGE-PATTERN") ] in
  Phys_mem.write (Kernel.mem k) ~addr:straddle_addr "CROSS-PAGE-PATTERN";
  Alcotest.(check int) "planted" 1 (List.length (Scan_cache.scan cache));
  Phys_mem.set_byte (Kernel.mem k) straddle_addr 'Z' (* dirties page 2 only *);
  Alcotest.(check int) "gone after head overwrite" 0 (List.length (Scan_cache.scan cache));
  check_matches_cold "head overwrite" k cache

(* ---- dirty-page accounting ---- *)

let test_clean_rescan_sweeps_nothing () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"w" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "ALPHA-PATTERN-01";
  let cache = Scan_cache.create k ~patterns in
  let first = Scan_cache.scan cache in
  Alcotest.(check int) "first scan sweeps every page" config.Kernel.num_pages
    (Scan_cache.last_pages_scanned cache);
  let second = Scan_cache.scan cache in
  Alcotest.(check int) "clean re-scan sweeps nothing" 0 (Scan_cache.last_pages_scanned cache);
  Alcotest.(check bool) "results unchanged" true (first = second)

let test_small_write_rescans_few_pages () =
  let k = Kernel.create ~config () in
  let cache = Scan_cache.create k ~patterns in
  ignore (Scan_cache.scan cache);
  Phys_mem.write (Kernel.mem k) ~addr:(10 * ps) "ALPHA-PATTERN-01";
  ignore (Scan_cache.scan cache);
  (* one dirty page plus the backward-extension page *)
  Alcotest.(check bool) "few pages re-swept" true (Scan_cache.last_pages_scanned cache <= 2);
  check_matches_cold "small write" k cache

(* ---- location freshness: ownership changes without byte writes ---- *)

let test_location_updates_without_write () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"victim" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "ALPHA-PATTERN-01";
  let cache = Scan_cache.create k ~patterns in
  let before = Scan_cache.scan cache in
  Alcotest.(check bool) "allocated while live" true
    (List.for_all (fun h -> Scanner.is_allocated h.Scanner.location) before);
  Kernel.exit k p;
  (* exit frees the frame without writing it: the cached offsets are still
     valid but the location must flip to unallocated *)
  let after = Scan_cache.scan cache in
  Alcotest.(check int) "copy still present" (List.length before) (List.length after);
  Alcotest.(check bool) "now unallocated" true
    (List.for_all (fun h -> not (Scanner.is_allocated h.Scanner.location)) after);
  check_matches_cold "after exit" k cache

(* ---- randomized workloads: incremental == cold, always ---- *)

let prop_incremental_equals_cold =
  QCheck.Test.make ~name:"scan cache equals cold scan under random workloads" ~count:40
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let k = Kernel.create ~config () in
      let cache = Scan_cache.create k ~patterns in
      let procs = ref [] in
      let ok = ref true in
      let plant_string () =
        let pat = snd (List.nth patterns (Prng.int rng (List.length patterns))) in
        let cut = 1 + Prng.int rng (String.length pat) in
        String.sub pat 0 cut
      in
      for _batch = 0 to 5 do
        for _op = 0 to 15 do
          match Prng.int rng 7 with
          | 0 -> procs := Kernel.spawn k ~name:"w" :: !procs
          | 1 ->
            (match !procs with
             | p :: _ ->
               (try
                  let addr = Kernel.malloc k p (32 + Prng.int rng 64) in
                  Kernel.write_mem k p ~addr (plant_string ())
                with Kernel.Out_of_memory -> ())
             | [] -> ())
          | 2 ->
            (match !procs with
             | p :: rest ->
               Kernel.exit k p;
               procs := rest
             | [] -> ())
          | 3 ->
            (* physical write near a page boundary, often straddling it *)
            let mem = Kernel.mem k in
            let pfn = Prng.int rng (Phys_mem.num_pages mem - 1) in
            let off = ps - 1 - Prng.int rng 16 in
            Phys_mem.write mem ~addr:((pfn * ps) + off) (plant_string ())
          | 4 ->
            (* scribble random bytes over a random range (destroys matches) *)
            let mem = Kernel.mem k in
            let addr = Prng.int rng (Phys_mem.size_bytes mem - 64) in
            Phys_mem.write mem ~addr (Bytes.to_string (Prng.bytes rng (1 + Prng.int rng 48)))
          | 5 ->
            (match !procs with
             | p :: _ ->
               (try procs := Kernel.fork k p :: !procs with Kernel.Out_of_memory -> ())
             | [] -> ())
          | _ ->
            (match !procs with
             | p :: _ ->
               (* COW fault path: write through a possibly-shared mapping *)
               (try
                  let addr = Kernel.malloc k p 32 in
                  Kernel.write_mem k p ~addr (plant_string ())
                with Kernel.Out_of_memory -> ())
             | [] -> ())
        done;
        if Scan_cache.scan cache <> Scanner.scan k ~patterns then ok := false
      done;
      !ok)

(* ---- System-level wiring ---- *)

let test_system_scan_matches_cold () =
  let sys = Memguard.System.create ~num_pages:256 ~seed:42 ~level:Memguard.Protection.Unprotected () in
  let rng = Memguard.System.rng sys in
  let srv = Memguard.System.start_sshd sys in
  let conns = List.init 4 (fun _ -> Memguard_apps.Sshd.open_connection srv rng) in
  List.iter (Memguard_apps.Sshd.close_connection srv) conns;
  let snap = Memguard.System.scan sys ~time:0 in
  let cold = Scanner.scan (Memguard.System.kernel sys) ~patterns:(Memguard.System.patterns sys) in
  Alcotest.(check bool) "snapshot hits = cold scan" true (snap.Report.hits = cold);
  (* and again after more traffic, exercising the incremental path *)
  let c = Memguard_apps.Sshd.open_connection srv rng in
  Memguard_apps.Sshd.close_connection srv c;
  let snap2 = Memguard.System.scan sys ~time:1 in
  let cold2 = Scanner.scan (Memguard.System.kernel sys) ~patterns:(Memguard.System.patterns sys) in
  Alcotest.(check bool) "second snapshot hits = cold scan" true (snap2.Report.hits = cold2)

let test_timeline_incremental_equals_full () =
  let run scan_mode =
    let sys =
      Memguard.System.create ~num_pages:256 ~seed:3 ~scan_mode
        ~level:Memguard.Protection.Unprotected ()
    in
    Memguard.Timeline.run sys Memguard.Timeline.Ssh
    |> List.map (fun s -> (s.Report.time, s.Report.allocated, s.Report.unallocated, s.Report.total))
  in
  let incr = run Memguard.System.Incremental in
  Alcotest.(check bool) "timeline identical with and without the cache" true
    (incr = run Memguard.System.Full)

let suite =
  [ ( "scan_cache",
      [ Alcotest.test_case "straddle appears" `Quick test_straddle_appears;
        Alcotest.test_case "straddle vanishes (tail write)" `Quick
          test_straddle_vanishes_on_tail_write;
        Alcotest.test_case "straddle vanishes (head write)" `Quick
          test_straddle_vanishes_on_head_write;
        Alcotest.test_case "clean re-scan sweeps nothing" `Quick test_clean_rescan_sweeps_nothing;
        Alcotest.test_case "small write re-sweeps few pages" `Quick
          test_small_write_rescans_few_pages;
        Alcotest.test_case "location updates without write" `Quick
          test_location_updates_without_write;
        QCheck_alcotest.to_alcotest prop_incremental_equals_cold;
        Alcotest.test_case "System.scan matches cold" `Quick test_system_scan_matches_cold;
        Alcotest.test_case "timeline incremental = full" `Slow
          test_timeline_incremental_equals_full
      ] )
  ]
