open Memguard
open Memguard_scan
module Ssl = Memguard_ssl.Ssl

(* ---- protection ---- *)

let test_protection_names_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check bool) (Protection.name l) true (Protection.of_name (Protection.name l) = Some l))
    Protection.all;
  Alcotest.(check bool) "unknown name" true (Protection.of_name "bogus" = None)

let test_protection_kernel_knobs () =
  Alcotest.(check bool) "kernel zero" true (Protection.kernel_zero_on_free Protection.Kernel_level);
  Alcotest.(check bool) "integrated zero" true (Protection.kernel_zero_on_free Protection.Integrated);
  Alcotest.(check bool) "app no zero" false (Protection.kernel_zero_on_free Protection.Application);
  Alcotest.(check bool) "dealloc" true (Protection.kernel_secure_dealloc Protection.Secure_dealloc);
  Alcotest.(check bool) "integrated no dealloc" false
    (Protection.kernel_secure_dealloc Protection.Integrated)

let test_protection_ssl_modes () =
  Alcotest.(check bool) "app patched hardened" true
    (Protection.ssl_mode_patched_app Protection.Application = Ssl.Hardened);
  Alcotest.(check bool) "app plain vanilla" true
    (Protection.ssl_mode_plain_app Protection.Application = Ssl.Vanilla);
  Alcotest.(check bool) "library plain hardened" true
    (Protection.ssl_mode_plain_app Protection.Library = Ssl.Hardened);
  Alcotest.(check bool) "kernel level vanilla apps" true
    (Protection.ssl_mode_patched_app Protection.Kernel_level = Ssl.Vanilla);
  Alcotest.(check bool) "nocache only integrated" true
    (Protection.nocache Protection.Integrated
     && not (Protection.nocache Protection.Library))

let test_protection_sshd_options () =
  let o = Protection.sshd_options Protection.Integrated in
  Alcotest.(check bool) "-r set" true o.Memguard_apps.Sshd.no_reexec;
  Alcotest.(check bool) "nocache" true o.Memguard_apps.Sshd.nocache;
  let o = Protection.sshd_options Protection.Unprotected in
  Alcotest.(check bool) "vanilla re-execs" false o.Memguard_apps.Sshd.no_reexec

(* ---- system ---- *)

let test_system_deterministic () =
  let run () =
    let sys = System.create ~num_pages:1024 ~seed:9 ~level:Protection.Unprotected () in
    let srv = System.start_sshd sys in
    ignore (Memguard_apps.Sshd.open_connection srv (System.rng sys));
    (System.scan sys ~time:0).Report.total
  in
  Alcotest.(check int) "identical runs" (run ()) (run ())

let test_system_key_on_disk_not_in_ram () =
  let sys = System.create ~num_pages:1024 ~seed:10 ~level:Protection.Unprotected () in
  (* before any server starts, the PEM exists only on the simulated disk *)
  let snap = System.scan sys ~time:0 in
  Alcotest.(check int) "no copies before start" 0 snap.Report.total

let test_system_patterns_shape () =
  let sys = System.create ~num_pages:1024 ~seed:11 ~level:Protection.Unprotected () in
  Alcotest.(check (list string)) "patterns" [ "d"; "p"; "q"; "pem" ]
    (List.map fst (System.patterns sys))

let test_system_boot_noise_disabled () =
  let sys = System.create ~num_pages:1024 ~seed:12 ~noise:false ~level:Protection.Unprotected () in
  let stats = Memguard_kernel.Kernel.stats (System.kernel sys) in
  Alcotest.(check int) "nothing held without noise" 0 stats.Memguard_kernel.Kernel.allocated_pages

(* ---- timeline ---- *)

(* [Experiment.machine ~stop_at:t] runs the same script and stops after
   tick t's snapshot: its snapshots are the first t+1 of the full run, a
   tick past the end clamps to the full run, and the machine it returns
   is live at that tick (a rescan finds what the last snapshot found) *)
let test_machine_stop_at_is_prefix () =
  let full = Experiment.timeline ~num_pages:1024 ~seed:3 Experiment.Ssh in
  List.iter
    (fun t ->
      let sys, part = Experiment.machine ~num_pages:1024 ~seed:3 ~stop_at:t Experiment.Ssh in
      let n = min (t + 1) (List.length full) in
      Alcotest.(check int) (Printf.sprintf "stop_at %d: snapshot count" t) n (List.length part);
      Alcotest.(check bool) (Printf.sprintf "stop_at %d: prefix of the full run" t) true
        (part = List.filteri (fun i _ -> i < n) full);
      let last = List.nth part (n - 1) in
      Alcotest.(check int) (Printf.sprintf "stop_at %d: machine live at the stop" t)
        last.Report.total (System.scan sys ~time:last.Report.time).Report.total)
    [ 0; 5; 11; 29; 40 ]

let test_timeline_concurrency_schedule () =
  let s = Timeline.default_schedule in
  let c = Timeline.concurrency_at s ~low:8 ~high:16 in
  Alcotest.(check int) "t=0" 0 (c 0);
  Alcotest.(check int) "t=6" 8 (c 6);
  Alcotest.(check int) "t=10" 16 (c 10);
  Alcotest.(check int) "t=14" 8 (c 14);
  Alcotest.(check int) "t=18" 0 (c 18);
  Alcotest.(check int) "t=25" 0 (c 25)

let test_timeline_unprotected_shape () =
  let snaps =
    Experiment.timeline ~level:Protection.Unprotected ~num_pages:2048 ~churn:1 Experiment.Ssh
  in
  Alcotest.(check int) "30 snapshots" 30 (List.length snaps);
  let at t = List.nth snaps t in
  Alcotest.(check int) "nothing before start" 0 (at 1).Report.total;
  Alcotest.(check bool) "copies at start" true ((at 3).Report.total > 0);
  Alcotest.(check bool) "flood under load" true ((at 8).Report.total > (at 3).Report.total);
  Alcotest.(check bool) "peak at high traffic" true ((at 12).Report.total >= (at 8).Report.total);
  Alcotest.(check bool) "unallocated copies appear after traffic stops" true
    ((at 20).Report.unallocated > 0);
  (* after server stop the PEM page-cache copy is the only allocated one *)
  Alcotest.(check int) "page-cache copy survives" 1 (at 25).Report.allocated;
  Alcotest.(check bool) "stale copies persist to the end" true ((at 29).Report.unallocated > 0)

let test_timeline_integrated_shape () =
  let snaps =
    Experiment.timeline ~level:Protection.Integrated ~num_pages:2048 ~churn:1 Experiment.Ssh
  in
  let at t = List.nth snaps t in
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "t=%d: exactly d,p,q once" t) 3 (at t).Report.total;
      Alcotest.(check int) (Printf.sprintf "t=%d: none unallocated" t) 0 (at t).Report.unallocated)
    [ 3; 8; 12; 16; 20 ];
  Alcotest.(check int) "nothing after stop" 0 (at 25).Report.total

let test_timeline_kernel_level_shape () =
  let snaps =
    Experiment.timeline ~level:Protection.Kernel_level ~num_pages:2048 ~churn:1 Experiment.Ssh
  in
  let at t = List.nth snaps t in
  (* kernel level: flooding in allocated memory, but NEVER unallocated *)
  Alcotest.(check bool) "flooding still happens" true ((at 12).Report.allocated > 10);
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "t=%d: none unallocated" t) 0
        (at t).Report.unallocated)
    [ 3; 8; 12; 16; 20; 25; 29 ]

let test_timeline_application_shape () =
  let snaps =
    Experiment.timeline ~level:Protection.Application ~num_pages:2048 ~churn:1 Experiment.Ssh
  in
  let at t = List.nth snaps t in
  (* constant small count: d,p,q in the aligned region + PEM in page cache *)
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "t=%d: constant 4" t) 4 (at t).Report.total;
      Alcotest.(check int) (Printf.sprintf "t=%d: none unallocated" t) 0
        (at t).Report.unallocated)
    [ 3; 8; 12; 16; 20 ];
  (* after stop only the PEM page-cache copy remains *)
  Alcotest.(check int) "pem cache remains" 1 (at 25).Report.allocated;
  Alcotest.(check int) "none unallocated after stop" 0 (at 25).Report.unallocated

let test_timeline_http_runs () =
  let snaps =
    Experiment.timeline ~level:Protection.Unprotected ~num_pages:2048 ~churn:1 Experiment.Http
  in
  let at t = List.nth snaps t in
  Alcotest.(check bool) "copies under load" true ((at 12).Report.total > (at 1).Report.total);
  Alcotest.(check bool) "unallocated after stop" true ((at 25).Report.unallocated > 0)

(* ---- experiments (small smoke versions) ---- *)

let test_ext2_sweep_monotone_in_dirs () =
  let pts =
    Experiment.ext2_sweep ~trials:2 ~num_pages:2048 ~connections:[ 50 ]
      ~directories:[ 100; 400 ] Experiment.Ssh
  in
  match pts with
  | [ small; large ] ->
    Alcotest.(check bool) "more dirs, more copies" true
      (large.Experiment.mean_copies >= small.Experiment.mean_copies);
    Alcotest.(check bool) "success" true (small.Experiment.success_rate > 0.9)
  | _ -> Alcotest.fail "expected two points"

let test_ext2_sweep_protected_zero () =
  let pts =
    Experiment.ext2_sweep ~level:Protection.Integrated ~trials:2 ~num_pages:2048
      ~connections:[ 50 ] ~directories:[ 400 ] Experiment.Ssh
  in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.001)) "zero copies" 0.0 p.Experiment.mean_copies;
      Alcotest.(check (float 0.001)) "zero success" 0.0 p.Experiment.success_rate)
    pts

let test_tty_sweep_grows () =
  let pts =
    Experiment.tty_sweep ~trials:3 ~num_pages:2048 ~connections:[ 5; 60 ] Experiment.Ssh
  in
  match pts with
  | [ low; high ] ->
    Alcotest.(check bool) "more connections, more copies" true
      (high.Experiment.mean_copies > low.Experiment.mean_copies)
  | _ -> Alcotest.fail "expected two points"

let test_before_after_ext2_dominance () =
  let results = Experiment.before_after_ext2 ~trials:2 ~num_pages:2048 ~directories:400 Experiment.Ssh in
  let success level =
    match List.assoc_opt level results with
    | Some [ p ] -> p.Experiment.success_rate
    | _ -> Alcotest.fail "missing level"
  in
  Alcotest.(check bool) "unprotected succeeds" true (success Protection.Unprotected > 0.5);
  Alcotest.(check (float 0.001)) "kernel level eliminates" 0.0 (success Protection.Kernel_level);
  Alcotest.(check (float 0.001)) "integrated eliminates" 0.0 (success Protection.Integrated)

let test_perf_runs () =
  let p = Experiment.perf_run ~transactions:50 ~concurrent:5 Experiment.Ssh in
  Alcotest.(check int) "transactions" 50 p.Experiment.transactions;
  Alcotest.(check bool) "rate positive" true (p.Experiment.transaction_rate > 0.);
  let p = Experiment.perf_run ~transactions:50 ~concurrent:5 Experiment.Http in
  Alcotest.(check bool) "http rate positive" true (p.Experiment.transaction_rate > 0.)

let test_ablation_swap () =
  match Experiment.ablation_swap () with
  | [ (_, vanilla_hits); (_, mlock_hits); (_, encrypted_hits) ] ->
    Alcotest.(check bool) "vanilla key reaches swap" true (vanilla_hits > 0);
    Alcotest.(check int) "mlocked key never on swap" 0 mlock_hits;
    Alcotest.(check int) "encrypted swap unreadable" 0 encrypted_hits
  | _ -> Alcotest.fail "expected three configurations"

let test_ablation_nocache () =
  match Experiment.ablation_nocache () with
  | [ (_, cached); (_, nocache) ] ->
    Alcotest.(check int) "cached copy present" 1 cached;
    Alcotest.(check int) "nocache removes it" 0 nocache
  | _ -> Alcotest.fail "expected two configurations"

let test_ablation_cow () =
  let rows = Experiment.ablation_cow ~workers_list:[ 1; 8 ] () in
  match rows with
  | [ (1, v1, h1); (8, v8, h8) ] ->
    Alcotest.(check bool) "vanilla grows with workers" true (v8 > v1);
    Alcotest.(check bool) "hardened flat" true (h8 = h1);
    Alcotest.(check bool) "hardened small" true (h1 <= 4)
  | _ -> Alcotest.fail "unexpected rows"

let test_ablation_dealloc_ordering () =
  let rows = Experiment.ablation_dealloc ~trials:4 () in
  let find name = List.find (fun (n, _, _) -> n = name) rows in
  let _, sd_ext2, sd_tty = find "secure-dealloc" in
  let _, k_ext2, k_tty = find "kernel" in
  let _, i_ext2, i_tty = find "integrated" in
  (* all three stop the unallocated-memory (ext2) attack outright *)
  Alcotest.(check (float 0.001)) "secure-dealloc stops ext2" 0.0 sd_ext2;
  Alcotest.(check (float 0.001)) "kernel stops ext2" 0.0 k_ext2;
  Alcotest.(check (float 0.001)) "integrated stops ext2" 0.0 i_ext2;
  (* ...but only integrated also starves the allocated-memory (tty) attack:
     secure-dealloc and kernel-level leave the flood of live copies *)
  Alcotest.(check (float 0.001)) "secure-dealloc tty still succeeds" 1.0 sd_tty;
  Alcotest.(check (float 0.001)) "kernel tty still succeeds" 1.0 k_tty;
  Alcotest.(check bool) "integrated tty reduced" true (i_tty < 1.0)

let test_ablation_encrypted_key () =
  match Experiment.ablation_encrypted_key () with
  | [ (_, vanilla_pass, vanilla_d); (_, hardened_pass, hardened_d) ] ->
    Alcotest.(check bool) "vanilla leaks the passphrase" true (vanilla_pass >= 1);
    Alcotest.(check bool) "vanilla has multiple d copies" true (vanilla_d >= 2);
    Alcotest.(check int) "hardened scrubs the passphrase" 0 hardened_pass;
    Alcotest.(check int) "hardened keeps a single d" 1 hardened_d
  | _ -> Alcotest.fail "expected two configurations"

let test_ablation_core_dump () =
  match Experiment.ablation_core_dump () with
  | [ (_, unprotected); (_, integrated) ] ->
    Alcotest.(check bool) "unprotected core leaks" true (unprotected > 3);
    (* alignment cannot hide the key from the process's own core dump *)
    Alcotest.(check int) "integrated core still holds d,p,q" 3 integrated
  | _ -> Alcotest.fail "expected two levels"

let test_ablation_tty_fraction_monotone () =
  let rows = Experiment.ablation_tty_fraction ~trials:10 ~fractions:[ 0.25; 0.75 ] () in
  match rows with
  | [ (_, low); (_, high) ] ->
    Alcotest.(check bool) "success grows with disclosed fraction" true (high > low);
    Alcotest.(check bool) "roughly matches the fraction" true
      (abs_float (high -. 0.75) <= 0.3)
  | _ -> Alcotest.fail "expected two fractions"

(* ---- machines pinned byte for byte ---- *)

(* A digest of all of physical RAM plus the snapshots a run took: any
   change in which calls drive a server, their order or their PRNG draws
   moves it.  The expected values predate [Timeline.start]: a refactor
   of how runs drive a server must keep them. *)
let machine_digest sys snaps =
  let b = Buffer.create 4096 in
  Buffer.add_bytes b
    (Memguard_vmm.Phys_mem.raw (Memguard_kernel.Kernel.mem (System.kernel sys)));
  List.iter
    (fun (s : Report.snapshot) ->
      Printf.bprintf b "%d %d %d %d\n" s.time s.total s.allocated s.unallocated;
      List.iter
        (fun (h : Scanner.hit) ->
          Printf.bprintf b " %s %d %d %b\n" h.label h.addr h.pfn (Scanner.is_allocated h.location))
        s.hits)
    snaps;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_machines_pinned () =
  List.iter
    (fun (name, server, expect) ->
      let sys, snaps = Experiment.machine ~num_pages:1024 ~seed:3 server in
      Alcotest.(check string) ("machine " ^ name) expect (machine_digest sys snaps))
    [ ("ssh", Experiment.Ssh, "c07fb5da8f8e64341c58f299c14d6b10");
      ("http", Experiment.Http, "6ea2368fef384972cd28f5bd6b4e639e")
    ];
  List.iter
    (fun (name, server, keep_open, expect) ->
      let sys =
        Experiment.primed_system ~level:Protection.Unprotected ~num_pages:1024 ~seed:3
          ~connections:120 ~keep_open server
      in
      Alcotest.(check string)
        (Printf.sprintf "primed %s keep_open=%b" name keep_open)
        expect
        (machine_digest sys [ System.scan sys ~time:0 ]))
    [ ("ssh", Experiment.Ssh, true, "98735dbb62870f6255c7d470cd638c1b");
      ("ssh", Experiment.Ssh, false, "cad1c764509aab51c60e16c0bf71f557");
      ("http", Experiment.Http, true, "b7df0b1e31bc4b890fe75b23a68ea906");
      ("http", Experiment.Http, false, "b965b0b5af73d12c33f379a56fe99503")
    ]

let suite =
  [ ( "protection",
      [ Alcotest.test_case "names roundtrip" `Quick test_protection_names_roundtrip;
        Alcotest.test_case "kernel knobs" `Quick test_protection_kernel_knobs;
        Alcotest.test_case "ssl modes" `Quick test_protection_ssl_modes;
        Alcotest.test_case "sshd options" `Quick test_protection_sshd_options
      ] );
    ( "system",
      [ Alcotest.test_case "deterministic" `Quick test_system_deterministic;
        Alcotest.test_case "key on disk only" `Quick test_system_key_on_disk_not_in_ram;
        Alcotest.test_case "patterns" `Quick test_system_patterns_shape;
        Alcotest.test_case "noise off" `Quick test_system_boot_noise_disabled
      ] );
    ( "timeline",
      [ Alcotest.test_case "schedule" `Quick test_timeline_concurrency_schedule;
        Alcotest.test_case "unprotected shape" `Slow test_timeline_unprotected_shape;
        Alcotest.test_case "integrated shape" `Slow test_timeline_integrated_shape;
        Alcotest.test_case "kernel shape" `Slow test_timeline_kernel_level_shape;
        Alcotest.test_case "application shape" `Slow test_timeline_application_shape;
        Alcotest.test_case "http runs" `Slow test_timeline_http_runs;
        Alcotest.test_case "machine stop_at is a prefix" `Quick test_machine_stop_at_is_prefix;
        Alcotest.test_case "machines pinned" `Quick test_machines_pinned
      ] );
    ( "experiment",
      [ Alcotest.test_case "ext2 monotone" `Slow test_ext2_sweep_monotone_in_dirs;
        Alcotest.test_case "ext2 protected zero" `Slow test_ext2_sweep_protected_zero;
        Alcotest.test_case "tty grows" `Slow test_tty_sweep_grows;
        Alcotest.test_case "before/after dominance" `Slow test_before_after_ext2_dominance;
        Alcotest.test_case "perf runs" `Slow test_perf_runs;
        Alcotest.test_case "ablation swap" `Quick test_ablation_swap;
        Alcotest.test_case "ablation nocache" `Quick test_ablation_nocache;
        Alcotest.test_case "ablation cow" `Slow test_ablation_cow;
        Alcotest.test_case "ablation dealloc" `Slow test_ablation_dealloc_ordering;
        Alcotest.test_case "ablation encrypted key" `Quick test_ablation_encrypted_key;
        Alcotest.test_case "ablation core dump" `Quick test_ablation_core_dump;
        Alcotest.test_case "ablation tty fraction" `Slow test_ablation_tty_fraction_monotone
      ] )
  ]

(* ---- apache (http) per-level timeline shapes: Figures 21-28 ---- *)

let http_timeline level = Experiment.timeline ~level ~num_pages:2048 ~churn:1 Experiment.Http

let test_timeline_http_application_shape () =
  let snaps = http_timeline Protection.Application in
  let at t = List.nth snaps t in
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "t=%d constant 4" t) 4 (at t).Report.total;
      Alcotest.(check int) (Printf.sprintf "t=%d none unallocated" t) 0 (at t).Report.unallocated)
    [ 3; 8; 12; 16; 20 ];
  Alcotest.(check int) "pem cache remains after stop" 1 (at 25).Report.allocated

let test_timeline_http_kernel_shape () =
  let snaps = http_timeline Protection.Kernel_level in
  let at t = List.nth snaps t in
  Alcotest.(check bool) "flooding in allocated memory" true ((at 12).Report.allocated > 10);
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "t=%d none unallocated" t) 0 (at t).Report.unallocated)
    [ 3; 8; 12; 16; 20; 25; 29 ]

let test_timeline_http_integrated_shape () =
  let snaps = http_timeline Protection.Integrated in
  let at t = List.nth snaps t in
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "t=%d exactly 3" t) 3 (at t).Report.total;
      Alcotest.(check int) (Printf.sprintf "t=%d none unallocated" t) 0 (at t).Report.unallocated)
    [ 3; 8; 12; 16; 20 ];
  Alcotest.(check int) "nothing after stop" 0 (at 25).Report.total

let http_suite =
  ( "timeline_http_levels",
    [ Alcotest.test_case "application (figs 21/22)" `Slow test_timeline_http_application_shape;
      Alcotest.test_case "kernel (figs 25/26)" `Slow test_timeline_http_kernel_shape;
      Alcotest.test_case "integrated (figs 27/28)" `Slow test_timeline_http_integrated_shape
    ] )

let suite = suite @ [ http_suite ]

(* ---- paper key size (1024-bit) end-to-end ---- *)

let test_paper_keysize_end_to_end () =
  (* the full pipeline at the paper's 1024-bit modulus: flood when
     unprotected, single mlocked copy when integrated *)
  let vanilla = System.create ~num_pages:2048 ~key_bits:1024 ~seed:99 ~level:Protection.Unprotected () in
  let sshd = System.start_sshd vanilla in
  let conns = List.init 4 (fun _ -> Memguard_apps.Sshd.open_connection sshd (System.rng vanilla)) in
  let snap = System.scan vanilla ~time:0 in
  Alcotest.(check bool) "vanilla floods at 1024 bits" true (snap.Report.total > 10);
  List.iter (Memguard_apps.Sshd.close_connection sshd) conns;
  System.settle vanilla;
  let stick = System.run_ext2_attack vanilla ~directories:1500 in
  Alcotest.(check bool) "ext2 recovers 1024-bit key material" true
    (Memguard_attack.Ext2_leak.count_copies stick ~patterns:(System.patterns vanilla) > 0);
  let protected_sys =
    System.create ~num_pages:2048 ~key_bits:1024 ~seed:99 ~level:Protection.Integrated ()
  in
  let sshd2 = System.start_sshd protected_sys in
  let conns2 = List.init 4 (fun _ -> Memguard_apps.Sshd.open_connection sshd2 (System.rng protected_sys)) in
  let snap2 = System.scan protected_sys ~time:0 in
  Alcotest.(check int) "exactly d,p,q once at 1024 bits" 3 snap2.Report.total;
  Alcotest.(check int) "none unallocated" 0 snap2.Report.unallocated;
  List.iter (Memguard_apps.Sshd.close_connection sshd2) conns2

let keysize_suite =
  ("paper_keysize", [ Alcotest.test_case "1024-bit end-to-end" `Slow test_paper_keysize_end_to_end ])

let suite = suite @ [ keysize_suite ]
