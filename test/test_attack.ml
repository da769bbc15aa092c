open Memguard_kernel
open Memguard_attack
open Memguard_util

let config = { Kernel.default_config with num_pages = 256 }

let plant_and_kill k needle =
  let p = Kernel.spawn k ~name:"victim" in
  let addr = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:(addr + 64) needle;
  Kernel.exit k p

(* ---- ext2 ---- *)

let test_ext2_accumulates_device () =
  let k = Kernel.create ~config () in
  let atk = Ext2_leak.create () in
  Ext2_leak.mkdirs atk k ~n:10;
  Alcotest.(check int) "10 dirs" 10 atk.Ext2_leak.directories;
  Alcotest.(check int) "10 blocks" (10 * 4096) (Ext2_leak.bytes_disclosed atk)

let test_ext2_recovers_unallocated_secret () =
  let k = Kernel.create ~config () in
  plant_and_kill k "EXT2-TARGET-SECRET";
  let atk = Ext2_leak.create () in
  Ext2_leak.mkdirs atk k ~n:64;
  Alcotest.(check bool) "found" true
    (Ext2_leak.found_any atk ~patterns:[ ("s", "EXT2-TARGET-SECRET") ])

let test_ext2_cannot_see_allocated () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"live" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "LIVE-ONLY-SECRET";
  let atk = Ext2_leak.create () in
  Ext2_leak.mkdirs atk k ~n:64;
  (* the ext2 leak only recycles FREE pages; live data is out of reach *)
  Alcotest.(check bool) "not found" false
    (Ext2_leak.found_any atk ~patterns:[ ("s", "LIVE-ONLY-SECRET") ])

let test_ext2_defeated_by_zero_on_free () =
  let k = Kernel.create ~config:{ config with zero_on_free = true } () in
  plant_and_kill k "EXT2-TARGET-SECRET";
  let atk = Ext2_leak.create () in
  Ext2_leak.mkdirs atk k ~n:64;
  Alcotest.(check int) "zero copies" 0
    (Ext2_leak.count_copies atk ~patterns:[ ("s", "EXT2-TARGET-SECRET") ])

(* ---- tty ---- *)

let test_tty_window_shape () =
  let k = Kernel.create ~config () in
  let rng = Prng.of_int 5 in
  let size = 256 * 4096 in
  for _ = 1 to 20 do
    let d = Tty_dump.run rng k () in
    let len = Bytes.length d.Tty_dump.data in
    Alcotest.(check bool) "start within memory" true
      (d.Tty_dump.start >= 0 && d.Tty_dump.start < size);
    Alcotest.(check bool) "window no larger than memory" true (len <= size);
    Alcotest.(check bool) "roughly half" true
      (float_of_int len >= 0.39 *. float_of_int size
       && float_of_int len <= 0.61 *. float_of_int size)
  done

let test_tty_sees_allocated_and_free () =
  let k = Kernel.create ~config () in
  (* a live secret *)
  let p = Kernel.spawn k ~name:"live" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "TTY-LIVE-SECRET!";
  (* a dead one *)
  plant_and_kill k "TTY-DEAD-SECRET!";
  (* a full-memory window must see both *)
  let rng = Prng.of_int 9 in
  let d = Tty_dump.run rng k ~mean_fraction:1.0 ~jitter:0.0 () in
  Alcotest.(check bool) "live found" true
    (Tty_dump.found_any d ~patterns:[ ("l", "TTY-LIVE-SECRET!") ]);
  Alcotest.(check bool) "dead found" true
    (Tty_dump.found_any d ~patterns:[ ("d", "TTY-DEAD-SECRET!") ])

let test_tty_partial_window_probabilistic () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"live" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "TTY-PROBABILISTIC";
  let rng = Prng.of_int 1234 in
  let hits = ref 0 in
  let trials = 200 in
  for _ = 1 to trials do
    let d = Tty_dump.run rng k ~mean_fraction:0.5 ~jitter:0.1 () in
    if Tty_dump.found_any d ~patterns:[ ("x", "TTY-PROBABILISTIC") ] then incr hits
  done;
  (* a single copy is caught roughly half the time — the paper's ~50% *)
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "rate %.2f in [0.35,0.65]" rate) true
    (rate >= 0.35 && rate <= 0.65)

let test_tty_bad_fraction () =
  let k = Kernel.create ~config () in
  Alcotest.check_raises "bad fraction" (Invalid_argument "Tty_dump.run: bad fraction")
    (fun () -> ignore (Tty_dump.run (Prng.of_int 1) k ~mean_fraction:0.95 ~jitter:0.1 ()));
  (* a window whose low end is negative *)
  Alcotest.check_raises "negative window" (Invalid_argument "Tty_dump.run: bad fraction")
    (fun () -> ignore (Tty_dump.run (Prng.of_int 1) k ~mean_fraction:0.05 ~jitter:0.1 ()))

(* ---- the one offline counter ---- *)

(* the reference: one Bytes_util.count pass per needle, summed *)
let reference_count ~patterns data =
  List.fold_left (fun acc (_, needle) -> acc + Bytes_util.count ~needle data) 0 patterns

(* property: over a random low-entropy buffer with planted copies, the
   one-sweep count equals the per-needle sum.  The needles include a
   periodic one (its planted copies overlap), a prefix of it, an exact
   duplicate, and a copy is planted so that it ends at the last byte. *)
let prop_count_matches_reference =
  QCheck.Test.make ~name:"one-sweep count = sum of per-needle counts" ~count:400
    QCheck.(triple (int_range 0 1000000) (int_range 1 6) (int_range 16 600))
    (fun (seed, len, hlen) ->
      let rng = Prng.of_int seed in
      let gen_char () = Char.chr (Char.code 'a' + Prng.int rng 3) in
      let random n = String.init n (fun _ -> gen_char ()) in
      let unit = random (1 + Prng.int rng 2) in
      let periodic = String.concat "" (List.init (len + 2) (fun _ -> unit)) in
      let other = random (1 + Prng.int rng 8) in
      let needles =
        [ periodic;
          String.sub periodic 0 (1 + Prng.int rng (String.length periodic));
          periodic;
          other
        ]
      in
      let data = Bytes.of_string (random hlen) in
      let plant s pos =
        if pos >= 0 && pos + String.length s <= hlen then
          Bytes.blit_string s 0 data pos (String.length s)
      in
      for _ = 1 to 1 + Prng.int rng 4 do
        let pos = Prng.int rng hlen in
        (* two copies one period apart overlap *)
        plant periodic pos;
        plant periodic (pos + String.length unit)
      done;
      plant (List.nth needles (Prng.int rng 4)) (hlen - String.length other);
      plant other (hlen - String.length other);
      let patterns = List.map (fun n -> ("k", n)) needles in
      Memguard_scan.Scanner.count_copies ~patterns data = reference_count ~patterns data)

(* a dump that wraps past the end of RAM is the two pieces of memory, in
   order, and a copy split across the wrap point is counted in it *)
let test_tty_wrapping_dump () =
  let k = Kernel.create ~config () in
  let mem = Kernel.mem k in
  let size = Memguard_vmm.Phys_mem.size_bytes mem in
  let needle = "WRAPPED-KEY-COPY" in
  let half = String.length needle / 2 in
  Memguard_vmm.Phys_mem.write mem ~addr:(size - half) (String.sub needle 0 half);
  Memguard_vmm.Phys_mem.write mem ~addr:0 (String.sub needle half (String.length needle - half));
  Memguard_vmm.Phys_mem.write mem ~addr:(size - 4096) needle;
  Memguard_vmm.Phys_mem.write mem ~addr:64 (needle ^ needle);
  let rec wrapping seed =
    let d = Tty_dump.run (Prng.of_int seed) k () in
    if d.Tty_dump.start + Bytes.length d.Tty_dump.data > size
       && d.Tty_dump.start < size - 4096
    then d
    else wrapping (seed + 1)
  in
  let d = wrapping 1 in
  let len = Bytes.length d.Tty_dump.data and start = d.Tty_dump.start in
  let expected =
    Memguard_vmm.Phys_mem.read mem ~addr:start ~len:(size - start)
    ^ Memguard_vmm.Phys_mem.read mem ~addr:0 ~len:(len - (size - start))
  in
  Alcotest.(check bool) "dump = tail of RAM, then its head" true
    (Bytes.to_string d.Tty_dump.data = expected);
  let patterns = [ ("k", needle); ("p", String.sub needle 0 7); ("k2", needle) ] in
  let copies = Tty_dump.count_copies d ~patterns in
  Alcotest.(check int) "count = reference" (reference_count ~patterns d.Tty_dump.data) copies;
  (* four copies of [needle] (one across the wrap, two back to back), each
     counted twice, and its 7-byte prefix at each *)
  Alcotest.(check int) "copies across the wrap" 12 copies

(* ---- stats ---- *)

let test_stats_summarize () =
  let s =
    Attack_stats.summarize
      [ { Attack_stats.copies = 0 }; { copies = 4 }; { copies = 2 }; { copies = 0 } ]
  in
  Alcotest.(check int) "trials" 4 s.Attack_stats.trials;
  Alcotest.(check (float 0.001)) "mean" 1.5 s.Attack_stats.mean_copies;
  Alcotest.(check (float 0.001)) "success" 0.5 s.Attack_stats.success_rate

let test_stats_empty () =
  let s = Attack_stats.summarize [] in
  Alcotest.(check int) "no trials" 0 s.Attack_stats.trials;
  Alcotest.(check (float 0.001)) "mean 0" 0.0 s.Attack_stats.mean_copies

let test_stats_run_trials () =
  let s = Attack_stats.run_trials ~n:10 (fun i -> { Attack_stats.copies = i mod 2 }) in
  Alcotest.(check (float 0.001)) "success 0.5" 0.5 s.Attack_stats.success_rate

let suite =
  [ ( "ext2_attack",
      [ Alcotest.test_case "device accumulates" `Quick test_ext2_accumulates_device;
        Alcotest.test_case "recovers unallocated" `Quick test_ext2_recovers_unallocated_secret;
        Alcotest.test_case "blind to allocated" `Quick test_ext2_cannot_see_allocated;
        Alcotest.test_case "zero_on_free defeats" `Quick test_ext2_defeated_by_zero_on_free
      ] );
    ( "tty_attack",
      [ Alcotest.test_case "window shape" `Quick test_tty_window_shape;
        Alcotest.test_case "sees allocated and free" `Quick test_tty_sees_allocated_and_free;
        Alcotest.test_case "~50% catch rate" `Quick test_tty_partial_window_probabilistic;
        Alcotest.test_case "bad fraction" `Quick test_tty_bad_fraction;
        Alcotest.test_case "wrapping dump" `Quick test_tty_wrapping_dump
      ] );
    ("offline_count", [ QCheck_alcotest.to_alcotest prop_count_matches_reference ]);
    ( "attack_stats",
      [ Alcotest.test_case "summarize" `Quick test_stats_summarize;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "run_trials" `Quick test_stats_run_trials
      ] )
  ]
