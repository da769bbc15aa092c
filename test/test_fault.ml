open Memguard_kernel
open Memguard_vmm
module Obs = Memguard_obs.Obs
module Scanner = Memguard_scan.Scanner
module Audit = Memguard_fault.Audit
module Campaign = Memguard_fault.Campaign
open Memguard

(* ---- audit unit tests: a clean machine passes, a corrupted one fails ---- *)

let small_config = { Kernel.default_config with num_pages = 64; swap_slots = 16 }

let has_check check vs = List.exists (fun (v : Audit.violation) -> v.Audit.check = check) vs

let test_audit_clean_machine () =
  let k = Kernel.create ~config:small_config () in
  let p = Kernel.spawn k ~name:"p" in
  let a = Kernel.malloc k p 10000 in
  Kernel.write_mem k p ~addr:a (String.make 100 'x');
  ignore (Kernel.fork k p);
  Alcotest.(check (list string)) "no violations" []
    (List.map Audit.to_string (Audit.run k))

let test_audit_catches_stale_lock_flag () =
  let k = Kernel.create ~config:small_config () in
  let p = Kernel.spawn k ~name:"p" in
  let a = Kernel.malloc k p 4096 in
  let pfn = Option.get (Kernel.pfn_of_vaddr k p a) in
  (* corrupt: flag the frame locked although no PTE pins it *)
  (Phys_mem.page (Kernel.mem k) pfn).Page.locked <- true;
  Alcotest.(check bool) "locked_flag violation" true
    (has_check "locked_flag" (Audit.run k))

let test_audit_catches_missing_lock_flag () =
  let k = Kernel.create ~config:small_config () in
  let p = Kernel.spawn k ~name:"p" in
  let a = Kernel.malloc k p 4096 in
  Kernel.mlock k p ~addr:a ~len:4096;
  let pfn = Option.get (Kernel.pfn_of_vaddr k p a) in
  (* corrupt: drop the frame flag while the locked PTE remains *)
  (Phys_mem.page (Kernel.mem k) pfn).Page.locked <- false;
  Alcotest.(check bool) "locked_flag violation" true
    (has_check "locked_flag" (Audit.run k))

let test_audit_catches_dangling_swap_slot () =
  let k = Kernel.create ~config:small_config () in
  let p = Kernel.spawn k ~name:"p" in
  (* corrupt: a PTE referencing a slot the device never reserved *)
  Hashtbl.replace p.Proc.page_table 999 (Proc.Swapped 3);
  Alcotest.(check bool) "swap violation" true (has_check "swap" (Audit.run k))

let test_audit_catches_bad_provenance () =
  let obs = Obs.create () in
  let k = Kernel.create ~config:small_config ~obs () in
  let size = Phys_mem.size_bytes (Kernel.mem k) in
  (* corrupt: an interval reaching past the end of physical memory *)
  Obs.Provenance.register obs ~origin:Obs.Heap_copy ~pid:1 ~addr:(size - 16) ~len:64;
  Alcotest.(check bool) "provenance violation" true
    (has_check "provenance" (Audit.run k))

let test_confinement_judges_levels () =
  let k = Kernel.create ~config:small_config () in
  let free_hit =
    { Scanner.label = "d"; addr = 0; pfn = 0; location = Scanner.Unallocated }
  in
  Alcotest.(check int) "unprotected promises nothing" 0
    (List.length
       (Audit.confinement k ~level:Protection.Unprotected (Scanner.matcher []) ~hits:[ free_hit ]));
  Alcotest.(check bool) "kernel level forbids unallocated hits" true
    (has_check "confinement"
       (Audit.confinement k ~level:Protection.Kernel_level (Scanner.matcher []) ~hits:[ free_hit ]))

let test_confinement_integrated_oracle () =
  let k = Kernel.create ~config:small_config () in
  let p = Kernel.spawn k ~name:"server" in
  let blessed = Kernel.memalign k p ~bytes:4096 in
  Kernel.mlock k p ~addr:blessed ~len:4096;
  let locked_pfn = Option.get (Kernel.pfn_of_vaddr k p blessed) in
  let plain = Kernel.malloc k p 4096 in
  let plain_pfn = Option.get (Kernel.pfn_of_vaddr k p plain) in
  let hit pfn =
    { Scanner.label = "d";
      addr = pfn * 4096;
      pfn;
      location = Scanner.Allocated_anon [ p.Proc.pid ]
    }
  in
  Alcotest.(check int) "hit inside the mlocked region passes" 0
    (List.length
       (Audit.confinement k ~level:Protection.Integrated (Scanner.matcher [])
          ~hits:[ hit locked_pfn ]));
  Alcotest.(check bool) "hit outside the mlocked region fails" true
    (has_check "confinement"
       (Audit.confinement k ~level:Protection.Integrated (Scanner.matcher [])
          ~hits:[ hit plain_pfn ]))

(* ---- campaign properties ---- *)

let quick_config level seed ops =
  { Campaign.default_config with Campaign.seed; level; ops }

let test_campaign_replay_identical () =
  let cfg = quick_config Protection.Integrated 7 120 in
  let r1 = Campaign.run cfg in
  let r2 = Campaign.run cfg in
  Alcotest.(check bool) "passed" true (Campaign.passed r1);
  Alcotest.(check (list string)) "byte-identical op/audit log" r1.Campaign.log
    r2.Campaign.log;
  Alcotest.(check int) "same oom count" r1.Campaign.ooms r2.Campaign.ooms

let test_campaign_all_levels_clean () =
  List.iter
    (fun level ->
      let r = Campaign.run (quick_config level 11 150) in
      if not (Campaign.passed r) then
        Alcotest.fail (Format.asprintf "%a" Campaign.pp_failure r))
    [ Protection.Unprotected; Protection.Secure_dealloc; Protection.Kernel_level;
      Protection.Integrated ]

let test_campaign_log_names_every_op () =
  let r = Campaign.run (quick_config Protection.Kernel_level 3 60) in
  Alcotest.(check int) "ran everything" 60 r.Campaign.ops_run;
  Alcotest.(check bool) "one log line per op at least" true
    (List.length r.Campaign.log >= 60);
  Alcotest.(check bool) "replay hint mentions the seed" true
    (let hint = Campaign.replay_hint r in
     String.length hint > 0
     && (let sub = "--seed 3" in
         let rec find i =
           i + String.length sub <= String.length hint
           && (String.sub hint i (String.length sub) = sub || find (i + 1))
         in
         find 0))

let test_campaign_rejects_bad_config () =
  Alcotest.check_raises "bad pages"
    (Invalid_argument "Campaign.run: num_pages must be a power of two") (fun () ->
      ignore
        (Campaign.run { Campaign.default_config with Campaign.num_pages = 100; ops = 1 }));
  Alcotest.check_raises "bad ops" (Invalid_argument "Campaign.run: non-positive ops")
    (fun () -> ignore (Campaign.run { Campaign.default_config with Campaign.ops = 0 }))

(* the near-OOM stress property: random op interleavings on a small, busy
   machine keep every invariant green and never segfault on memory the
   campaign legitimately mapped — across random seeds, at the strictest
   level (whose audit also scans after every op) *)
let prop_campaign_random_seeds =
  QCheck.Test.make ~name:"chaos campaigns stay invariant-clean" ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r = Campaign.run (quick_config Protection.Integrated seed 80) in
      Campaign.passed r)

let suite =
  [ ( "fault_audit",
      [ Alcotest.test_case "clean machine" `Quick test_audit_clean_machine;
        Alcotest.test_case "stale lock flag" `Quick test_audit_catches_stale_lock_flag;
        Alcotest.test_case "missing lock flag" `Quick test_audit_catches_missing_lock_flag;
        Alcotest.test_case "dangling swap slot" `Quick test_audit_catches_dangling_swap_slot;
        Alcotest.test_case "bad provenance" `Quick test_audit_catches_bad_provenance;
        Alcotest.test_case "confinement by level" `Quick test_confinement_judges_levels;
        Alcotest.test_case "integrated oracle" `Quick test_confinement_integrated_oracle
      ] );
    ( "fault_campaign",
      [ Alcotest.test_case "replay identical" `Quick test_campaign_replay_identical;
        Alcotest.test_case "all levels clean" `Quick test_campaign_all_levels_clean;
        Alcotest.test_case "log covers ops" `Quick test_campaign_log_names_every_op;
        Alcotest.test_case "config validation" `Quick test_campaign_rejects_bad_config;
        QCheck_alcotest.to_alcotest prop_campaign_random_seeds
      ] )
  ]
