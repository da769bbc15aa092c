open Memguard_kernel
open Memguard_vmm
open Memguard_bignum
open Memguard_util
open Memguard

(* ---- end-to-end determinism of the figure pipeline ---- *)

let test_sweep_determinism () =
  let run () =
    Experiment.tty_sweep ~trials:2 ~num_pages:1024 ~connections:[ 5; 15 ] Experiment.Ssh
  in
  Alcotest.(check bool) "bit-identical sweeps" true (run () = run ())

let test_timeline_determinism () =
  let run () =
    List.map
      (fun s -> (s.Memguard_scan.Report.allocated, s.Memguard_scan.Report.unallocated))
      (Experiment.timeline ~num_pages:1024 ~churn:1 Experiment.Ssh)
  in
  Alcotest.(check bool) "bit-identical timelines" true (run () = run ())

(* ---- small API corners ---- *)

let test_protection_describe_all () =
  List.iter
    (fun l -> Alcotest.(check bool) (Protection.name l) true (String.length (Protection.describe l) > 10))
    Protection.all

let test_workload_pp () =
  let open Memguard_apps.Workload in
  List.iter
    (fun (p, expect) -> Alcotest.(check string) expect expect (Format.asprintf "%a" Helpers.pp_workload p))
    [ (Steps [ (6, 8) ], "steps(6->8)") ]

let test_mont_accessors_and_errors () =
  let m = Bn.of_dec "170141183460469231731687303715884105727" in
  let ctx = Option.get (Bn.Mont.create m) in
  Alcotest.check_raises "to_mont out of range" (Invalid_argument "Bn.Mont.to_mont: out of range")
    (fun () -> ignore (Bn.Mont.to_mont ctx m))

let test_buddy_drain_hot () =
  let mem = Phys_mem.create ~num_pages:16 () in
  let b = Buddy.create mem in
  let pfns = List.init 16 (fun _ -> Option.get (Buddy.alloc_page b)) in
  List.iter (Buddy.free_page b) pfns;
  (* everything sits on the hot list; drain must coalesce back to one block *)
  Buddy.drain_hot b;
  (match Buddy.check_invariants b with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "16-page block allocatable" true (Buddy.alloc b ~order:4 <> None)

let test_pagecache_insert_replaces () =
  let mem = Phys_mem.create ~num_pages:64 () in
  let buddy = Buddy.create mem in
  let pc = Page_cache.create mem buddy in
  let pfn1 = Option.get (Page_cache.insert pc ~ino:5 ~index:0 "first") in
  let free_before = Buddy.free_pages buddy in
  let _pfn2 = Option.get (Page_cache.insert pc ~ino:5 ~index:0 "second") in
  Alcotest.(check int) "no frame leak on replace" free_before (Buddy.free_pages buddy);
  Alcotest.(check int) "one entry" 1 (Page_cache.cached_frames pc);
  ignore pfn1

let test_frame_owners_of_free_frame () =
  let k = Kernel.create ~config:{ Kernel.default_config with num_pages = 64 } () in
  Alcotest.(check (list int)) "no owners" [] (Helpers.owner_table k).(3)

let test_page_pp_owner () =
  List.iter
    (fun (owner, expect) ->
      Alcotest.(check string) expect expect (Format.asprintf "%a" Page.pp_owner owner))
    [ (Page.Free, "free"); (Page.Anon, "anon"); (Page.Kernel, "kernel");
      (Page.Page_cache { ino = 3; index = 1 }, "pagecache(ino=3,idx=1)")
    ]

let test_bn_pad_property () =
  let rng = Prng.of_int 909 in
  for _ = 1 to 50 do
    let v = Bn.random_bits rng 100 in
    let padded = Bn.to_bytes_be_pad v 20 in
    Alcotest.(check int) "width" 20 (String.length padded);
    Alcotest.(check bool) "value preserved" true (Bn.equal v (Bn.of_bytes_be padded))
  done

let suite =
  [ ( "final",
      [ Alcotest.test_case "sweep determinism" `Slow test_sweep_determinism;
        Alcotest.test_case "timeline determinism" `Slow test_timeline_determinism;
        Alcotest.test_case "protection describe" `Quick test_protection_describe_all;
        Alcotest.test_case "workload pp" `Quick test_workload_pp;
        Alcotest.test_case "mont accessors" `Quick test_mont_accessors_and_errors;
        Alcotest.test_case "buddy drain_hot" `Quick test_buddy_drain_hot;
        Alcotest.test_case "pagecache replace" `Quick test_pagecache_insert_replaces;
        Alcotest.test_case "owners of free frame" `Quick test_frame_owners_of_free_frame;
        Alcotest.test_case "page pp" `Quick test_page_pp_owner;
        Alcotest.test_case "bn pad property" `Quick test_bn_pad_property
      ] )
  ]
