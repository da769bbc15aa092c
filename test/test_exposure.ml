(* The exposure observatory: ledger arithmetic, breach SLO, /proc-style
   introspection, the dashboard pipeline, and the two correctness
   anchors — a brute-force shadow ledger recomputed from raw machine
   state after random campaigns, and the byte-identical determinism
   guard for ledger-on runs. *)

open Memguard
module Kernel = Memguard_kernel.Kernel
module Introspect = Memguard_kernel.Introspect
module Obs = Memguard_obs.Obs
module Campaign = Memguard_fault.Campaign
module Phys_mem = Memguard_vmm.Phys_mem
module Page = Memguard_vmm.Page
module Report = Memguard_scan.Report

let contains ~needle hay =
  Memguard_util.Bytes_util.count ~needle (Bytes.of_string hay) >= 1

(* ---- metrics: the p99 column and empty-histogram guards ---- *)

let test_metrics_p99 () =
  let obs = Obs.create () in
  for i = 1 to 100 do
    Obs.Metrics.observe obs "scan.wall_s" (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "nearest-rank p99 of 1..100" 99.
    (Obs.Metrics.percentile (Obs.Metrics.samples obs "scan.wall_s") 99.);
  let text = Format.asprintf "%a" Obs.Metrics.dump obs in
  Alcotest.(check bool) "dump has a p99 column" true (contains ~needle:"p99" text);
  Alcotest.(check bool) "dump has the p99 value" true (contains ~needle:"99.000000" text);
  Alcotest.(check int) "every sample kept" 100
    (List.length (Obs.Metrics.samples obs "scan.wall_s"));
  Alcotest.(check bool) "dump never prints nan" false (contains ~needle:"nan" text)

(* ---- ledger arithmetic on a hand-built machine ---- *)

let test_exposure_advance_splits_on_frames () =
  let obs = Obs.create () in
  (* two 4 KiB frames: the low one unlocked, the high one locked *)
  Obs.Exposure.set_classifier obs ~page_size:4096 (fun ~addr ->
      if addr < 4096 then Obs.Plain_anon else Obs.Mlocked_anon);
  Obs.set_tick obs 0;
  Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:1 ~addr:4000 ~len:200;
  Obs.Exposure.advance obs 2;
  Alcotest.(check int) "unlocked chunk: 96 bytes x 2 ticks" 192
    (Obs.Exposure.total obs ~origin:Obs.Bn_limbs ~cls:Obs.Plain_anon);
  Alcotest.(check int) "locked chunk: 104 bytes x 2 ticks" 208
    (Obs.Exposure.total obs ~origin:Obs.Bn_limbs ~cls:Obs.Mlocked_anon);
  Obs.Exposure.advance obs 2;
  Alcotest.(check int) "same-tick advance is a no-op" 192
    (Obs.Exposure.total obs ~origin:Obs.Bn_limbs ~cls:Obs.Plain_anon);
  Obs.Exposure.advance obs 3;
  Alcotest.(check int) "one more tick" 288
    (Obs.Exposure.total obs ~origin:Obs.Bn_limbs ~cls:Obs.Plain_anon);
  Alcotest.(check int) "one snapshot per effective advance" 2
    (List.length (Obs.Exposure.series obs));
  (* the stashed swap image accrues under the swap class *)
  Obs.Provenance.stash obs ~slot:0 ~addr:4000 ~len:96;
  Obs.Exposure.advance obs 4;
  Alcotest.(check int) "stash accrues as swap" 96
    (Obs.Exposure.total obs ~origin:Obs.Bn_limbs ~cls:Obs.Swapped)

let test_breach_slo_fires_once () =
  let obs = Obs.create () in
  Obs.Exposure.set_classifier obs ~page_size:4096 (fun ~addr:_ -> Obs.Plain_anon);
  Obs.Exposure.set_breach_age obs (Some 2);
  Obs.set_tick obs 0;
  Obs.Provenance.register obs ~origin:Obs.Pem_buffer ~pid:1 ~addr:0 ~len:64;
  Obs.Provenance.register obs ~origin:Obs.Bn_temp ~pid:1 ~addr:128 ~len:64;
  let breaches () =
    List.filter
      (fun (r : Obs.record) ->
        match r.Obs.event with Obs.Exposure_breach _ -> true | _ -> false)
      (Obs.Trace.records obs)
  in
  Obs.Exposure.advance obs 1;
  Alcotest.(check int) "age 1 < limit 2: quiet" 0 (List.length (breaches ()));
  Obs.Exposure.advance obs 2;
  (match breaches () with
   | [ { Obs.event = Obs.Exposure_breach { origin; cls; age; len; _ }; _ } ] ->
     Alcotest.(check bool) "sensitive origin only" true (origin = Obs.Pem_buffer);
     Alcotest.(check bool) "class recorded" true (cls = Obs.Plain_anon);
     Alcotest.(check int) "age at the limit" 2 age;
     Alcotest.(check int) "whole chunk" 64 len
   | rs -> Alcotest.failf "expected exactly one breach, got %d" (List.length rs));
  Obs.Exposure.advance obs 5;
  Alcotest.(check int) "fires once per chunk, not per tick" 1 (List.length (breaches ()))

let test_breach_spares_mlocked () =
  let obs = Obs.create () in
  Obs.Exposure.set_classifier obs ~page_size:4096 (fun ~addr:_ -> Obs.Mlocked_anon);
  Obs.Exposure.set_breach_age obs (Some 1);
  Obs.set_tick obs 0;
  Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:1 ~addr:0 ~len:64;
  Obs.Exposure.advance obs 10;
  let breaches =
    List.filter
      (fun (r : Obs.record) ->
        match r.Obs.event with Obs.Exposure_breach _ -> true | _ -> false)
      (Obs.Trace.records obs)
  in
  Alcotest.(check int) "mlocked-anon never breaches" 0 (List.length breaches)

(* ---- shadow ledger: totals and leak budgets = brute-force recomputation ---- *)

(* Recompute, from raw machine state at every scan, exactly what the
   ledger is supposed to integrate: every live provenance interval split
   on frame boundaries and bucketed by [Kernel.classify_phys], plus every
   stashed swap image under [Swapped] — and, from the same chunks, each
   birth trace's leak budget (sensitive byte·ticks outside
   [Mlocked_anon]).  If the ledger and this recomputation ever diverge,
   one of them is lying. *)
let shadow_of_campaign cfg =
  let shadow : (Obs.origin * Obs.mem_class, int) Hashtbl.t = Hashtbl.create 32 in
  let shadow_leak : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let last = ref 0 in
  let bump tbl key n =
    Hashtbl.replace tbl key ((try Hashtbl.find tbl key with Not_found -> 0) + n)
  in
  let add (info : Obs.Provenance.info) cls n =
    bump shadow (info.Obs.Provenance.origin, cls) n;
    if Obs.origin_sensitive info.Obs.Provenance.origin && cls <> Obs.Mlocked_anon then
      bump shadow_leak info.Obs.Provenance.birth_trace n
  in
  let on_scan sys ~tick =
    if tick > !last then begin
      let dt = tick - !last in
      let k = System.kernel sys in
      let obs = System.obs sys in
      let ps = Kernel.page_size k in
      List.iter
        (fun (addr, len, (info : Obs.Provenance.info)) ->
          let rec go a remaining =
            if remaining > 0 then begin
              let chunk = min remaining (ps - (a mod ps)) in
              add info (Kernel.classify_phys k ~addr:a) (chunk * dt);
              go (a + chunk) (remaining - chunk)
            end
          in
          go addr len)
        (Obs.Provenance.intervals obs);
      List.iter
        (fun (_slot, entries) ->
          List.iter
            (fun (_off, len, info) -> add info Obs.Swapped (len * dt))
            entries)
        (Obs.Provenance.stashed obs);
      last := tick
    end
  in
  let r = Campaign.run ~on_scan cfg in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  ( (sorted shadow, Obs.Exposure.totals r.Campaign.obs),
    (sorted shadow_leak, Obs.Trace.leak_budget r.Campaign.obs) )

let campaign_levels =
  [ Protection.Unprotected; Protection.Secure_dealloc; Protection.Kernel_level;
    Protection.Integrated ]

(* Each trial runs the campaign twice: on the default machine, and on a
   32-page one where memory pressure swaps key pages out, so stashed
   images (class [Swapped]) feed the totals and the leak budgets too. *)
let prop_ledger_matches_shadow =
  QCheck.Test.make ~name:"exposure ledger = shadow recomputation (random campaigns)"
    ~count:12
    QCheck.(pair (int_bound 999) (int_bound 3))
    (fun (seed, li) ->
      let level = List.nth campaign_levels li in
      List.for_all
        (fun num_pages ->
          let cfg =
            { Campaign.default_config with Campaign.seed; level; ops = 120; num_pages }
          in
          let (shadow, ledger), (shadow_leak, ledger_leak) = shadow_of_campaign cfg in
          if shadow <> ledger then
            QCheck.Test.fail_reportf
              "seed=%d level=%s pages=%d: shadow %d buckets, ledger %d buckets" seed
              (Protection.name level) num_pages (List.length shadow) (List.length ledger)
          else if shadow_leak <> ledger_leak then
            QCheck.Test.fail_reportf
              "seed=%d level=%s pages=%d: shadow leak budgets %d traces, ledger %d traces"
              seed (Protection.name level) num_pages (List.length shadow_leak)
              (List.length ledger_leak)
          else true)
        [ Campaign.default_config.Campaign.num_pages; 32 ])

(* ---- determinism guard: the ledger reads, never writes ---- *)

let machine_fingerprint sys =
  let k = System.kernel sys in
  let mem = Kernel.mem k in
  let buf = Buffer.create (Phys_mem.size_bytes mem) in
  Buffer.add_string buf (Phys_mem.read mem ~addr:0 ~len:(Phys_mem.size_bytes mem));
  for pfn = 0 to Phys_mem.num_pages mem - 1 do
    let p = Phys_mem.page mem pfn in
    Buffer.add_string buf
      (Format.asprintf "|%d:%a:%d:%b" pfn Page.pp_owner p.Page.owner p.Page.refcount
         p.Page.locked)
  done;
  Buffer.contents buf

let test_ledger_on_run_is_byte_identical () =
  let run obs =
    let sys = System.create ~num_pages:1024 ~seed:5 ?obs ~level:Protection.Kernel_level () in
    let snaps = Timeline.run sys Timeline.Ssh in
    (sys, snaps)
  in
  let sys_off, snaps_off = run None in
  let obs = Obs.create () in
  Obs.Exposure.set_breach_age obs (Some 3);
  let sys_on, snaps_on = run (Some obs) in
  Alcotest.(check bool) "the ledger actually ran" true
    (Obs.Exposure.totals obs <> [] && Obs.Exposure.last_advance obs > 0);
  Alcotest.(check string) "snapshots byte-identical"
    (Format.asprintf "%a" Report.pp_series snaps_off)
    (Format.asprintf "%a" Report.pp_series snaps_on);
  Alcotest.(check bool) "RAM content and frame descriptors byte-identical" true
    (String.equal (machine_fingerprint sys_off) (machine_fingerprint sys_on))

(* ---- the paper's verdict, as ledger numbers ---- *)

let test_integrated_confines_unprotected_leaks () =
  let run level = Dashboard.run ~level ~num_pages:2048 ~seed:7 ~breach_age:3 () in
  let unprot = run Protection.Unprotected in
  let integ = run Protection.Integrated in
  Alcotest.(check int) "integrated: zero sensitive byte-ticks outside mlocked-anon" 0
    (Dashboard.sensitive_unsafe_total integ);
  Alcotest.(check bool) "integrated: no breaches" true (integ.Dashboard.breaches = []);
  Alcotest.(check bool) "integrated: the key is in the locked region" true
    (Dashboard.class_total integ Obs.Mlocked_anon > 0);
  Alcotest.(check bool) "unprotected: sensitive exposure accrues" true
    (Dashboard.sensitive_unsafe_total unprot > 0);
  Alcotest.(check bool) "unprotected: the SLO fires" true (unprot.Dashboard.breaches <> []);
  (* copies freed without zeroing keep accruing exposure in free RAM after
     the server has stopped (tick 22) — Figure 5's long tail *)
  let free_ram = Dashboard.class_series unprot Obs.Free_ram in
  let at t = try List.assoc t free_ram with Not_found -> 0 in
  Alcotest.(check bool) "free-RAM exposure is cumulative" true
    (List.for_all2
       (fun (_, a) (_, b) -> a <= b)
       (List.filteri (fun i _ -> i < List.length free_ram - 1) free_ram)
       (List.tl free_ram));
  Alcotest.(check bool) "free-RAM exposure grows after server stop" true
    (at 29 > at 22 && at 22 > 0)

(* ---- introspection ---- *)

let test_introspect_render () =
  let obs = Obs.create () in
  let sys = System.create ~num_pages:2048 ~seed:7 ~obs ~level:Protection.Integrated () in
  ignore (Timeline.run ~stop_at:11 sys Timeline.Ssh);
  let text = Introspect.render (System.kernel sys) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render has " ^ needle) true (contains ~needle text))
    [ "meminfo"; "buddyinfo"; "/maps"; "pagecache"; "exposure";
      "[mlocked_anon]"; "key: bn_limbs" ];
  (* Integrated locks the key pages: no sensitive annotation may sit on an
     unlocked anonymous line *)
  String.split_on_char '\n' (Introspect.maps (System.kernel sys))
  |> List.iter (fun line ->
         if contains ~needle:"[plain_anon]" line then
           List.iter
             (fun o ->
               if Obs.origin_sensitive o then
                 Alcotest.(check bool)
                   ("no sensitive key bytes on an unlocked line: " ^ line)
                   false
                   (contains ~needle:("key: " ^ Obs.origin_name o) line))
             Obs.all_origins)

(* ---- the dashboard files ---- *)

let test_dashboard_exports () =
  let obs = Obs.create () in
  let d =
    Dashboard.run ~obs ~level:Protection.Unprotected ~num_pages:2048 ~seed:7 ~breach_age:3 ()
  in
  (* the run's one JSON form: its flight archive, as observe --flight
     writes it and diff reads it back *)
  let a = d.Dashboard.archive in
  (match Obs.Snapshot.of_json (Obs.Snapshot.to_json a) with
   | Ok back ->
     Alcotest.(check string) "archive reads back" (Obs.Snapshot.to_json a)
       (Obs.Snapshot.to_json back)
   | Error e -> Alcotest.failf "archive does not read back: %s" e);
  Alcotest.(check (list (pair string string))) "meta names the configuration"
    [ ("breach_age", "3"); ("churn", "3"); ("level", "unprotected"); ("num_pages", "2048");
      ("scan_mode", "incremental"); ("seed", "7"); ("server", "ssh") ]
    a.Obs.Snapshot.ar_meta;
  let scalar k = List.assoc_opt k a.Obs.Snapshot.ar_scalars in
  Alcotest.(check (option (float 0.))) "ticks"
    (Some (float_of_int (List.length d.Dashboard.snapshots)))
    (scalar "timeline.snapshots");
  Alcotest.(check (option (float 0.))) "headline is Dashboard.sensitive_unsafe_total"
    (Some (float_of_int (Dashboard.sensitive_unsafe_total d)))
    (scalar "exposure.sensitive_unsafe_total");
  Alcotest.(check (list (triple string string int))) "exposure is the dashboard's totals"
    (List.sort compare
       (List.map
          (fun ((o, c), v) -> (Obs.origin_name o, Obs.class_name c, v))
          d.Dashboard.totals))
    a.Obs.Snapshot.ar_exposure;
  Alcotest.(check (list (pair string int))) "counters are the run's"
    (Obs.Metrics.counters obs) a.Obs.Snapshot.ar_counters;
  Alcotest.(check (list (pair string int))) "cycles are the run's"
    (Obs.Cost.by_subsystem obs) a.Obs.Snapshot.ar_cost_subsystem;
  Alcotest.(check int) "subsystem cycles sum to the run's total"
    (Obs.Cost.total_cycles obs) (Dashboard.cycles d);
  let html = Dashboard.to_html d in
  Alcotest.(check bool) "html document" true (contains ~needle:"<!DOCTYPE html>" html);
  Alcotest.(check bool) "inline svg charts" true (contains ~needle:"<svg" html);
  Alcotest.(check bool) "self-contained: no scripts" false (contains ~needle:"<script" html);
  Alcotest.(check bool) "breach table present" true (contains ~needle:"SLO breaches" html)

let suite =
  [ ( "exposure",
      [ Alcotest.test_case "metrics p99" `Quick test_metrics_p99;
        Alcotest.test_case "ledger splits on frame boundaries" `Quick
          test_exposure_advance_splits_on_frames;
        Alcotest.test_case "breach SLO fires once" `Quick test_breach_slo_fires_once;
        Alcotest.test_case "breach spares mlocked" `Quick test_breach_spares_mlocked;
        QCheck_alcotest.to_alcotest prop_ledger_matches_shadow;
        Alcotest.test_case "ledger-on run is byte-identical" `Slow
          test_ledger_on_run_is_byte_identical;
        Alcotest.test_case "integrated confines, unprotected leaks" `Slow
          test_integrated_confines_unprotected_leaks;
        Alcotest.test_case "introspect render" `Quick test_introspect_render;
        Alcotest.test_case "dashboard exports" `Quick test_dashboard_exports
      ] )
  ]
