(* The observability layer: trace ring, metrics, provenance registry,
   end-to-end key-load attribution, origin coverage over the Figure-5
   timeline, and the determinism guard (tracing must not change the
   simulation). *)

open Memguard
open Memguard_kernel
open Memguard_scan
module Obs = Memguard_obs.Obs
module Rsa = Memguard_crypto.Rsa
module Ssl = Memguard_ssl.Ssl
module Prng = Memguard_util.Prng

(* ---- trace ring ---- *)

let test_null_records_nothing () =
  Obs.Trace.emit Obs.null (Obs.Scan_started { mode = "full" });
  Obs.Metrics.incr Obs.null "x";
  Obs.Provenance.register Obs.null ~origin:Obs.Pem_buffer ~pid:1 ~addr:0 ~len:16;
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.null);
  Alcotest.(check int) "no records" 0 (List.length (Obs.Trace.records Obs.null));
  Alcotest.(check int) "no counter" 0 (Obs.Metrics.counter Obs.null "x");
  Alcotest.(check int) "no intervals" 0 (Obs.Provenance.count Obs.null)

let test_ring_overflow_drops_oldest () =
  let obs = Obs.create ~ring_capacity:4 () in
  for i = 0 to 9 do
    Obs.set_tick obs i;
    Obs.Trace.emit obs (Obs.Scan_started { mode = "full" })
  done;
  let records = Obs.Trace.records obs in
  Alcotest.(check int) "capacity retained" 4 (List.length records);
  Alcotest.(check int) "emitted counts everything" 10 (Obs.Trace.emitted obs);
  Alcotest.(check int) "dropped = overflow" 6 (Obs.Trace.dropped obs);
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 6; 7; 8; 9 ]
    (List.map (fun r -> r.Obs.seq) records);
  Alcotest.(check (list int)) "ticks follow" [ 6; 7; 8; 9 ]
    (List.map (fun r -> r.Obs.tick) records)

let test_jsonl_shape () =
  let obs = Obs.create () in
  Obs.Trace.emit obs (Obs.Copy_created { origin = Obs.Der_temp; pid = 3; addr = 64; len = 16 });
  Obs.Trace.emit obs (Obs.Swap_out { pid = 1; slot = 2; pfn = 9 });
  let lines = String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl obs)) in
  Alcotest.(check int) "one line per record" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "has seq" true
        (Memguard_util.Bytes_util.count ~needle:"\"seq\":" (Bytes.of_string l) = 1);
      Alcotest.(check bool) "has event" true
        (Memguard_util.Bytes_util.count ~needle:"\"event\":" (Bytes.of_string l) = 1))
    lines;
  Alcotest.(check bool) "origin serialised" true
    (Memguard_util.Bytes_util.count ~needle:"\"origin\":\"der_temp\""
       (Bytes.of_string (Obs.Trace.to_jsonl obs))
    = 1)

(* ---- metrics ---- *)

let test_metrics_counters () =
  let obs = Obs.create () in
  Obs.Metrics.incr obs "a";
  Obs.Metrics.incr ~by:41 obs "a";
  Obs.Metrics.incr obs "b";
  Alcotest.(check int) "accumulates" 42 (Obs.Metrics.counter obs "a");
  Alcotest.(check int) "absent is 0" 0 (Obs.Metrics.counter obs "zzz");
  Alcotest.(check (list (pair string int))) "name-sorted" [ ("a", 42); ("b", 1) ]
    (Obs.Metrics.counters obs);
  Obs.Metrics.reset obs;
  Alcotest.(check int) "reset" 0 (Obs.Metrics.counter obs "a")

let test_metrics_percentile () =
  let samples = [ 30.; 10.; 40.; 20. ] in
  Alcotest.(check (float 1e-9)) "p50 nearest rank" 20. (Obs.Metrics.percentile samples 50.);
  Alcotest.(check (float 1e-9)) "p100 = max" 40. (Obs.Metrics.percentile samples 100.);
  Alcotest.(check (float 1e-9)) "p1 = min" 10. (Obs.Metrics.percentile samples 1.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Obs.Metrics.percentile [] 50.))

let test_metrics_json () =
  let obs = Obs.create () in
  Obs.Metrics.incr ~by:7 obs "scan.runs";
  Obs.Metrics.observe obs "scan.wall_s" 0.5;
  let json = Obs.Metrics.to_json obs in
  let has needle = Memguard_util.Bytes_util.count ~needle (Bytes.of_string json) >= 1 in
  Alcotest.(check bool) "counter present" true (has "\"scan.runs\": 7");
  Alcotest.(check bool) "histogram present" true (has "\"scan.wall_s\"")

(* ---- provenance registry ---- *)

let test_provenance_register_lookup_clear () =
  let obs = Obs.create () in
  Obs.set_tick obs 5;
  Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:2 ~addr:1000 ~len:100;
  (match Obs.Provenance.lookup obs ~addr:1050 with
   | Some i ->
     Alcotest.(check bool) "origin" true (i.Obs.Provenance.origin = Obs.Bn_limbs);
     Alcotest.(check int) "pid" 2 i.Obs.Provenance.pid;
     Alcotest.(check int) "birth tick" 5 i.Obs.Provenance.birth_tick
   | None -> Alcotest.fail "interval not found");
  Alcotest.(check bool) "outside misses" true (Obs.Provenance.lookup obs ~addr:1100 = None);
  (* clearing the middle splits the interval *)
  Obs.Provenance.clear obs ~addr:1040 ~len:20;
  Alcotest.(check bool) "head kept" true (Obs.Provenance.lookup obs ~addr:1039 <> None);
  Alcotest.(check bool) "middle gone" true (Obs.Provenance.lookup obs ~addr:1050 = None);
  Alcotest.(check bool) "tail kept" true (Obs.Provenance.lookup obs ~addr:1060 <> None);
  Alcotest.(check int) "split into two" 2 (Obs.Provenance.count obs)

let test_provenance_register_supersedes () =
  let obs = Obs.create () in
  Obs.Provenance.register obs ~origin:Obs.Pem_buffer ~pid:1 ~addr:0 ~len:64;
  Obs.Provenance.register obs ~origin:Obs.Der_temp ~pid:1 ~addr:32 ~len:64;
  (match Obs.Provenance.lookup obs ~addr:40 with
   | Some i -> Alcotest.(check bool) "newest wins" true (i.Obs.Provenance.origin = Obs.Der_temp)
   | None -> Alcotest.fail "overlap lost");
  match Obs.Provenance.lookup obs ~addr:10 with
  | Some i -> Alcotest.(check bool) "older survives outside" true (i.Obs.Provenance.origin = Obs.Pem_buffer)
  | None -> Alcotest.fail "trimmed head lost"

let test_provenance_blit () =
  let obs = Obs.create () in
  Obs.set_tick obs 3;
  Obs.Provenance.register obs ~origin:Obs.Mont_cache ~pid:4 ~addr:100 ~len:16;
  (* COW-style frame copy: [96, 160) -> [4096, 4160) *)
  Obs.Provenance.blit obs ~src:96 ~dst:4096 ~len:64;
  (match Obs.Provenance.lookup obs ~addr:4104 with
   | Some i ->
     Alcotest.(check bool) "origin cloned" true (i.Obs.Provenance.origin = Obs.Mont_cache);
     Alcotest.(check int) "birth preserved" 3 i.Obs.Provenance.birth_tick
   | None -> Alcotest.fail "blit lost the interval");
  Alcotest.(check bool) "source untouched" true (Obs.Provenance.lookup obs ~addr:100 <> None)

let test_provenance_stash_restore () =
  let obs = Obs.create () in
  Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:7 ~addr:8192 ~len:32;
  Obs.Provenance.stash obs ~slot:3 ~addr:8192 ~len:4096;
  (* the frame is recycled for something else... *)
  Obs.Provenance.clear obs ~addr:8192 ~len:4096;
  Alcotest.(check bool) "gone from RAM" true (Obs.Provenance.lookup obs ~addr:8200 = None);
  (* ...then the page swaps back in at a different frame *)
  Obs.Provenance.restore obs ~slot:3 ~addr:40960 ~len:4096;
  match Obs.Provenance.lookup obs ~addr:40970 with
  | Some i ->
    Alcotest.(check bool) "identity survives the round-trip" true
      (i.Obs.Provenance.origin = Obs.Bn_limbs);
    Alcotest.(check int) "pid survives" 7 i.Obs.Provenance.pid
  | None -> Alcotest.fail "restore lost the interval"

(* ---- end-to-end: key load attribution ---- *)

let test_key_load_attribution () =
  let obs = Obs.create () in
  let config = { Kernel.default_config with num_pages = 512 } in
  let k = Kernel.create ~config ~obs () in
  let rng = Prng.of_int 77 in
  let priv = Rsa.generate rng ~bits:256 in
  ignore (Ssl.write_key_file k ~path:"/key.pem" priv);
  let p = Kernel.spawn k ~name:"app" in
  let rsa = Ssl.load_private_key k p ~path:"/key.pem" Ssl.Vanilla in
  Obs.set_tick obs 1;
  let hits = Scanner.scan k ~patterns:(Scanner.key_patterns ~pem:(Rsa.pem_of_priv priv) priv) in
  let snap = Report.of_hits ~obs ~time:1 hits in
  Alcotest.(check bool) "found copies" true (snap.Report.total > 0);
  Alcotest.(check int) "every hit annotated" snap.Report.total
    (List.length snap.Report.annotated);
  let origins = Report.by_origin snap in
  Alcotest.(check bool) "no unattributed hit" true (List.assoc_opt "unknown" origins = None);
  List.iter
    (fun o ->
      Alcotest.(check bool) (o ^ " attributed") true (List.mem_assoc o origins))
    [ "pem_buffer"; "der_temp"; "bn_limbs"; "page_cache" ];
  ignore rsa

(* ---- origin coverage over the Figure-5 timeline ---- *)

let test_timeline_origin_coverage () =
  let obs = Obs.create () in
  let snaps = Experiment.timeline ~num_pages:2048 ~obs Experiment.Ssh in
  let created =
    List.filter_map
      (fun (r : Obs.record) ->
        match r.Obs.event with
        | Obs.Copy_created { origin; _ } -> Some (Obs.origin_name origin)
        | _ -> None)
      (Obs.Trace.records obs)
  in
  List.iter
    (fun o -> Alcotest.(check bool) ("Copy_created covers " ^ o) true (List.mem o created))
    [ "pem_buffer"; "der_temp"; "bn_limbs"; "mont_cache"; "page_cache" ];
  (* the provenance join holds on every tick: each hit is annotated, and
     the annotation list mirrors the hit list *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "t=%d fully annotated" s.Report.time)
        s.Report.total
        (List.length s.Report.annotated);
      List.iter2
        (fun h (a : Report.annotated) ->
          Alcotest.(check bool) "annotation matches its hit" true (a.Report.hit == h))
        s.Report.hits s.Report.annotated;
      Alcotest.(check bool)
        (Printf.sprintf "t=%d no unattributed hit" s.Report.time)
        true
        (List.assoc_opt "unknown" (Report.by_origin s) = None))
    snaps;
  Alcotest.(check int) "one scan per tick" 30 (Obs.Metrics.counter obs "scan.runs")

(* ---- determinism guard ---- *)

let test_tracing_is_side_effect_free () =
  let run obs = Experiment.timeline ~num_pages:1024 ~seed:9 ?obs Experiment.Ssh in
  let plain = run None in
  let obs = Obs.create () in
  let traced = run (Some obs) in
  Alcotest.(check bool) "tracing actually happened" true (Obs.Trace.emitted obs > 0);
  let series snaps = Format.asprintf "%a" Report.pp_series snaps in
  Alcotest.(check string) "pp_series byte-identical" (series plain) (series traced);
  List.iter2
    (fun (a : Report.snapshot) (b : Report.snapshot) ->
      Alcotest.(check bool)
        (Printf.sprintf "t=%d identical hits" a.Report.time)
        true
        (a.Report.hits = b.Report.hits))
    plain traced

(* ---- JSON string encoding of every export ---- *)

let contains ~needle hay =
  Memguard_util.Bytes_util.count ~needle (Bytes.of_string hay) >= 1

(* a control byte, tab, quote, backslash and a UTF-8 e-acute *)
let awkward = "a\001b\tq\"x\\\xc3\xa9"

(* Printf's %S renders "\001" and every non-ASCII byte as a decimal
   \ddd escape, which JSON parsers reject. *)
let has_decimal_escape s =
  let n = String.length s in
  let rec go i =
    i + 1 < n
    && ((s.[i] = '\\' && (match s.[i + 1] with '0' .. '9' -> true | _ -> false))
       || go (if s.[i] = '\\' then i + 2 else i + 1))
  in
  go 0

let test_exports_escape_as_json () =
  let obs = Obs.create () in
  Obs.set_tick obs 1;
  Obs.Metrics.incr obs awkward;
  Obs.Metrics.observe obs awkward 1.0;
  Obs.Trace.emit obs (Obs.Audit_violation { check = awkward; detail = awkward });
  Obs.Trace.with_span obs awkward (fun () -> ());
  Obs.Timeseries.record obs awkward 1.0;
  Obs.Alert.install obs ~name:awkward ~series:awkward
    (Obs.Alert.Threshold { cmp = Obs.Alert.Gt; value = 0.; for_ticks = 1 });
  Obs.Alert.eval obs ~tick:1;
  Alcotest.(check int) "alert fired" 1 (Obs.Alert.fired obs awkward);
  List.iter
    (fun (what, json) ->
      Alcotest.(check bool) (what ^ ": \\u0001") true (contains ~needle:"\\u0001" json);
      Alcotest.(check bool) (what ^ ": no decimal escape") false (has_decimal_escape json);
      Alcotest.(check bool) (what ^ ": UTF-8 kept") true (contains ~needle:"\xc3\xa9" json))
    [ ("Metrics.to_json", Obs.Metrics.to_json obs);
      ("Trace.to_jsonl", Obs.Trace.to_jsonl obs);
      ("Trace.spans_to_json", Obs.Trace.spans_to_json obs);
      ("Timeseries.to_json", Obs.Timeseries.to_json obs);
      ("Alert.to_json", Obs.Alert.to_json obs)
    ];
  let snap = Obs.Snapshot.of_scalars ~meta:[ ("name", awkward) ] [ ("x", 1.) ] in
  match Obs.Snapshot.of_json (Obs.Snapshot.to_json snap) with
  | Error e -> Alcotest.failf "snapshot round-trip: %s" e
  | Ok back ->
    Alcotest.(check (list (pair string string))) "meta read back unchanged"
      [ ("name", awkward) ] back.Obs.Snapshot.ar_meta

let suite =
  [ ( "obs",
      [ Alcotest.test_case "null ctx records nothing" `Quick test_null_records_nothing;
        Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow_drops_oldest;
        Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        Alcotest.test_case "metrics percentile" `Quick test_metrics_percentile;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "exports escape strings as JSON" `Quick test_exports_escape_as_json;
        Alcotest.test_case "provenance register/lookup/clear" `Quick
          test_provenance_register_lookup_clear;
        Alcotest.test_case "provenance register supersedes" `Quick
          test_provenance_register_supersedes;
        Alcotest.test_case "provenance blit" `Quick test_provenance_blit;
        Alcotest.test_case "provenance stash/restore" `Quick test_provenance_stash_restore;
        Alcotest.test_case "key load attribution" `Quick test_key_load_attribution;
        Alcotest.test_case "timeline origin coverage" `Slow test_timeline_origin_coverage;
        Alcotest.test_case "tracing is side-effect free" `Slow test_tracing_is_side_effect_free
      ] )
  ]
