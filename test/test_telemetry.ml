(* The telemetry layer: time-series registry (downsampling, counters,
   derived rates, Prometheus/JSON exports), the declarative alert engine
   (edge triggering, thresholds, rates, window spreads), the constant-time
   leakage sentinel over the Montgomery word-mul cost, the watch/observe
   integration, the fleet-level series merge, and the pinned /proc-style
   introspection goldens. *)

open Memguard
module Obs = Memguard_obs.Obs
module Kernel = Memguard_kernel.Kernel
module Introspect = Memguard_kernel.Introspect
module Bn = Memguard_bignum.Bn
module Rsa = Memguard_crypto.Rsa
module Prng = Memguard_util.Prng
module Fleet = Memguard_fleet.Fleet

let contains ~needle hay =
  Memguard_util.Bytes_util.count ~needle (Bytes.of_string hay) >= 1

let record_at obs tick name v =
  Obs.set_tick obs tick;
  Obs.Timeseries.record obs name v

(* ---- time-series registry ---- *)

let test_gauge_and_counter () =
  let obs = Obs.create () in
  for t = 1 to 5 do
    record_at obs t "g" (float_of_int (10 * t))
  done;
  Alcotest.(check (list (pair int (float 0.0))))
    "gauge points" [ (1, 10.); (2, 20.); (3, 30.); (4, 40.); (5, 50.) ]
    (Obs.Timeseries.points obs "g");
  Alcotest.(check string) "auto-defined as gauge" "gauge"
    (match Obs.Timeseries.kind obs "g" with
     | Some k -> Obs.Timeseries.kind_name k
     | None -> "?");
  Obs.Timeseries.define obs ~kind:Obs.Timeseries.Counter "c";
  record_at obs 6 "c" 100.;
  Alcotest.(check string) "explicit counter kind" "counter"
    (match Obs.Timeseries.kind obs "c" with
     | Some k -> Obs.Timeseries.kind_name k
     | None -> "?");
  Alcotest.(check (list string)) "names sorted" [ "c"; "g" ] (Obs.Timeseries.names obs);
  Alcotest.(check (option (pair int (float 0.0)))) "last sample" (Some (5, 50.))
    (Obs.Timeseries.last obs "g")

let test_derived_rate () =
  let obs = Obs.create () in
  Obs.Timeseries.define obs ~kind:Obs.Timeseries.Counter "c";
  Obs.Timeseries.define_rate obs ~source:"c" "r";
  record_at obs 1 "c" 0.;
  record_at obs 2 "c" 10.;
  record_at obs 4 "c" 40.;
  (* rate = delta / tick-gap; the first source sample contributes a zero
     point so the derived series spans the same tick range *)
  Alcotest.(check (list (pair int (float 0.0))))
    "per-tick rate" [ (1, 0.); (2, 10.); (4, 15.) ]
    (Obs.Timeseries.points obs "r");
  Alcotest.(check (option string)) "rate remembers its source" (Some "c")
    (Obs.Timeseries.source obs "r");
  Alcotest.(check bool) "json tags it as a rate" true
    (contains ~needle:"\"name\":\"r\",\"kind\":\"rate\"" (Obs.Timeseries.to_json obs))

let test_downsampling_keeps_envelope () =
  let obs = Obs.create () in
  Obs.Timeseries.define obs ~capacity:8 "d";
  for t = 1 to 100 do
    record_at obs t "d" (float_of_int t)
  done;
  Alcotest.(check int) "all offers counted" 100 (Obs.Timeseries.sample_count obs "d");
  Alcotest.(check bool) "bounded retention" true (Obs.Timeseries.retained obs "d" <= 8);
  let stride = Obs.Timeseries.stride obs "d" in
  Alcotest.(check bool) "stride grew to a power of two" true
    (stride >= 16 && stride land (stride - 1) = 0);
  let pts = Obs.Timeseries.points obs "d" in
  Alcotest.(check bool) "points stay chronological" true
    (List.for_all2
       (fun (a, _) (b, _) -> a < b)
       (List.filteri (fun i _ -> i < List.length pts - 1) pts)
       (List.tl pts));
  (* the min/max envelope is tracked at full resolution, so the spread
     survives any amount of downsampling *)
  Alcotest.(check (float 0.0)) "spread is lossless" 99. (Obs.Timeseries.spread obs "d");
  Alcotest.(check (option (pair int (float 0.0)))) "last is lossless" (Some (100, 100.))
    (Obs.Timeseries.last obs "d")

(* Downsampling edges: the all-time envelope must stay exact at the
   degenerate ends of the parameter space, because the flight recorder
   archives it and the differ treats any envelope drift as a regression. *)
let test_downsampling_single_point () =
  let obs = Obs.create () in
  record_at obs 5 "solo" 42.;
  Alcotest.(check int) "one offer" 1 (Obs.Timeseries.sample_count obs "solo");
  Alcotest.(check (float 0.0)) "spread of one sample is 0" 0.
    (Obs.Timeseries.spread obs "solo");
  match Obs.Timeseries.envelope obs "solo" with
  | None -> Alcotest.fail "envelope must exist after one offer"
  | Some (last, prev, mn, mx) ->
    Alcotest.(check (pair int (float 0.0))) "last" (5, 42.) last;
    (* the first sample seeds prev = last, so rate predicates read 0 *)
    Alcotest.(check (pair int (float 0.0))) "prev seeded to last" (5, 42.) prev;
    Alcotest.(check (float 0.0)) "min" 42. mn;
    Alcotest.(check (float 0.0)) "max" 42. mx

let test_downsampling_constant_series () =
  let obs = Obs.create () in
  Obs.Timeseries.define obs ~capacity:8 "flat";
  for t = 1 to 50 do
    record_at obs t "flat" 7.
  done;
  Alcotest.(check (float 0.0)) "constant series has spread 0" 0.
    (Obs.Timeseries.spread obs "flat");
  match Obs.Timeseries.envelope obs "flat" with
  | None -> Alcotest.fail "envelope must exist"
  | Some ((lt, lv), _, mn, mx) ->
    Alcotest.(check (pair int (float 0.0))) "last" (50, 7.) (lt, lv);
    Alcotest.(check (float 0.0)) "min = max" mn mx

let test_stride_doubles_exactly_at_capacity () =
  let obs = Obs.create () in
  Obs.Timeseries.define obs ~capacity:8 "edge";
  for t = 1 to 8 do
    record_at obs t "edge" (float_of_int (10 * t))
  done;
  Alcotest.(check int) "full ring, stride still 1" 1 (Obs.Timeseries.stride obs "edge");
  Alcotest.(check int) "all 8 retained" 8 (Obs.Timeseries.retained obs "edge");
  (* the 9th offer lands on a full ring: resolution halves in place
     (keep every other point, oldest first) and the stride doubles *)
  record_at obs 9 "edge" 90.;
  Alcotest.(check int) "stride doubled" 2 (Obs.Timeseries.stride obs "edge");
  Alcotest.(check int) "4 survivors + the new point" 5
    (Obs.Timeseries.retained obs "edge");
  Alcotest.(check (list (pair int (float 0.0)))) "every other point kept"
    [ (1, 10.); (3, 30.); (5, 50.); (7, 70.); (9, 90.) ]
    (Obs.Timeseries.points obs "edge");
  (* the envelope never coarsens: min/max/last reflect all 9 offers even
     though points 2/4/6/8 are gone *)
  match Obs.Timeseries.envelope obs "edge" with
  | None -> Alcotest.fail "envelope must exist"
  | Some (last, prev, mn, mx) ->
    Alcotest.(check (pair int (float 0.0))) "last exact" (9, 90.) last;
    Alcotest.(check (pair int (float 0.0))) "prev exact (a dropped point)" (8, 80.) prev;
    Alcotest.(check (float 0.0)) "min exact" 10. mn;
    Alcotest.(check (float 0.0)) "max exact" 90. mx

let test_exports () =
  let obs = Obs.create () in
  Obs.Timeseries.define obs ~kind:Obs.Timeseries.Counter "a.b-c";
  record_at obs 3 "a.b-c" 7.;
  let prom = Obs.Timeseries.to_prometheus obs in
  (* counters carry the conventional _total suffix, and the raw dotted
     name rides along as an escaped label *)
  Alcotest.(check bool) "prom type line" true
    (contains ~needle:"# TYPE memguard_a_b_c_total counter" prom);
  Alcotest.(check bool) "prom sample line" true
    (contains ~needle:"memguard_a_b_c_total{series=\"a.b-c\"} 7 3" prom);
  (* gauges keep their bare name; label values are escaped per the
     exposition format *)
  Obs.Timeseries.define obs "g\"x\\y";
  record_at obs 4 "g\"x\\y" 1.;
  let prom = Obs.Timeseries.to_prometheus obs in
  Alcotest.(check bool) "gauge keeps bare name" true
    (contains ~needle:"# TYPE memguard_g_x_y gauge" prom);
  Alcotest.(check bool) "label value escaped" true
    (contains ~needle:"memguard_g_x_y{series=\"g\\\"x\\\\y\"} 1 4" prom);
  let json = Obs.Timeseries.to_json obs in
  Alcotest.(check bool) "json name" true (contains ~needle:"\"name\":\"a.b-c\"" json);
  Alcotest.(check bool) "json points" true (contains ~needle:"[3,7]" json);
  (* disabled context: recording is a no-op, never an error *)
  Obs.Timeseries.record Obs.null "x" 1.;
  Alcotest.(check (list string)) "null records nothing" [] (Obs.Timeseries.names Obs.null)

(* Extra labels (watch --prom tags every series with the protection
   level) render ahead of the series label on every sample line, on both
   the series and the metrics/histogram exporters. *)
let test_prometheus_extra_labels () =
  let obs = Obs.create () in
  Obs.Timeseries.define obs ~kind:Obs.Timeseries.Counter "a.b";
  record_at obs 3 "a.b" 7.;
  let prom = Obs.Timeseries.to_prometheus ~labels:[ ("level", "integrated") ] obs in
  Alcotest.(check bool) "level label leads the sample" true
    (contains ~needle:"memguard_a_b_total{level=\"integrated\",series=\"a.b\"} 7 3" prom);
  Obs.Metrics.observe obs "h.e" 5.;
  let prom = Obs.Metrics.to_prometheus ~labels:[ ("level", "un\"safe") ] obs in
  Alcotest.(check bool) "histogram buckets carry the escaped label" true
    (contains ~needle:"memguard_h_e_bucket{level=\"un\\\"safe\",series=\"h.e\",le=" prom);
  Alcotest.(check bool) "histogram _count carries it too" true
    (contains ~needle:"memguard_h_e_count{level=\"un\\\"safe\",series=\"h.e\"} 1" prom);
  (* no labels: the page is exactly the unlabeled golden shape *)
  let bare = Obs.Timeseries.to_prometheus obs in
  Alcotest.(check bool) "unlabeled page unchanged" true
    (contains ~needle:"memguard_a_b_total{series=\"a.b\"} 7 3" bare)

(* ---- alert engine ---- *)

let test_threshold_edge_triggering () =
  let obs = Obs.create () in
  Obs.Alert.install obs ~name:"hot" ~series:"s"
    (Obs.Alert.Threshold { cmp = Obs.Alert.Gt; value = 0.; for_ticks = 2 });
  (* idempotent per name *)
  Obs.Alert.install obs ~name:"hot" ~series:"s"
    (Obs.Alert.Threshold { cmp = Obs.Alert.Gt; value = 0.; for_ticks = 2 });
  Alcotest.(check int) "one rule" 1 (List.length (Obs.Alert.rules obs));
  let feed tick v =
    record_at obs tick "s" v;
    Obs.Alert.eval obs ~tick
  in
  feed 1 0.;
  feed 2 5.;
  Alcotest.(check int) "one true eval: armed, not fired" 0 (Obs.Alert.fired obs "hot");
  feed 3 5.;
  Alcotest.(check int) "two consecutive: fired" 1 (Obs.Alert.fired obs "hot");
  feed 4 5.;
  Alcotest.(check int) "still true: edge-triggered, no refire" 1 (Obs.Alert.fired obs "hot");
  feed 5 0.;
  feed 6 7.;
  feed 7 7.;
  Alcotest.(check int) "re-armed after false: second firing" 2 (Obs.Alert.fired obs "hot");
  (match Obs.Alert.firings obs with
   | [ (t1, "hot", "s", v1); (t2, "hot", "s", _) ] ->
     Alcotest.(check int) "first firing tick" 3 t1;
     Alcotest.(check (float 0.0)) "firing carries the sample" 5. v1;
     Alcotest.(check int) "second firing tick" 7 t2
   | fs -> Alcotest.failf "unexpected firing log (%d entries)" (List.length fs));
  (* firings are real trace events *)
  let alert_events =
    List.filter
      (fun (r : Obs.record) ->
        match r.Obs.event with Obs.Alert_fired _ -> true | _ -> false)
      (Obs.Trace.records obs)
  in
  Alcotest.(check int) "Alert_fired events in the ring" 2 (List.length alert_events)

let test_rate_and_spread_rules () =
  let obs = Obs.create () in
  Obs.Alert.install obs ~name:"spike" ~series:"s"
    (Obs.Alert.Rate { cmp = Obs.Alert.Ge; per_tick = 100. });
  Obs.Alert.install obs ~name:"wobble" ~series:"s"
    (Obs.Alert.Window_spread { window = 0; min_spread = 1. });
  let feed tick v =
    record_at obs tick "s" v;
    Obs.Alert.eval obs ~tick
  in
  feed 1 0.;
  Alcotest.(check int) "single sample: no rate yet" 0 (Obs.Alert.fired obs "spike");
  Alcotest.(check int) "zero spread: sentinel quiet" 0 (Obs.Alert.fired obs "wobble");
  feed 2 10.;
  Alcotest.(check int) "slow growth: no spike" 0 (Obs.Alert.fired obs "spike");
  Alcotest.(check int) "any variance: sentinel fires" 1 (Obs.Alert.fired obs "wobble");
  feed 3 250.;
  Alcotest.(check int) "fast growth: spike fires" 1 (Obs.Alert.fired obs "spike");
  Alcotest.(check int) "sentinel is edge-triggered" 1 (Obs.Alert.fired obs "wobble");
  Alcotest.(check string) "conditions self-describe" "spread >= 1 all-time"
    (Obs.Alert.describe_condition
       (Obs.Alert.Window_spread { window = 0; min_spread = 1. }))

(* ---- the constant-time leakage sentinel ---- *)

(* Word-mul cost of one CRT private operation, as Sim_rsa charges it. *)
let crt_word_muls (priv : Rsa.priv) c =
  let before = Bn.Mont.word_muls () in
  let m1 = Bn.mod_pow ~base:(Bn.rem c priv.Rsa.p) ~exp:priv.Rsa.dp ~modulus:priv.Rsa.p in
  let m2 = Bn.mod_pow ~base:(Bn.rem c priv.Rsa.q) ~exp:priv.Rsa.dq ~modulus:priv.Rsa.q in
  ignore (m1, m2);
  Bn.Mont.word_muls () - before

let test_sentinel_constant_across_keys () =
  (* two distinct same-size keys, several ciphertexts each: the fixed-window
     Montgomery path must charge the exact same word-mul count for every
     operation, so the sentinel stays silent *)
  let k1 = Rsa.generate (Prng.of_int 41) ~bits:256 in
  let k2 = Rsa.generate (Prng.of_int 42) ~bits:256 in
  Alcotest.(check bool) "keys are distinct" false (Bn.compare k1.Rsa.n k2.Rsa.n = 0);
  let obs = Obs.create () in
  Obs.Alert.install obs ~name:"ct-leakage" ~series:"rsa.private_op.word_muls"
    (Obs.Alert.Window_spread { window = 0; min_spread = 1. });
  let tick = ref 0 in
  List.iter
    (fun key ->
      List.iter
        (fun c ->
          incr tick;
          record_at obs !tick "rsa.private_op.word_muls"
            (float_of_int (crt_word_muls key (Bn.of_int c)));
          Obs.Alert.eval obs ~tick:!tick)
        [ 2; 3; 65537; 123456789 ])
    [ k1; k2 ];
  Alcotest.(check (float 0.0)) "zero cycle variance across keys and inputs" 0.
    (Obs.Timeseries.spread obs "rsa.private_op.word_muls");
  Alcotest.(check int) "sentinel stays silent" 0 (Obs.Alert.fired obs "ct-leakage")

let test_sentinel_fires_on_leaky_cost () =
  (* inject the classic square-and-multiply leak: cost = squarings for every
     exponent bit plus one multiply per set bit.  Distinct dp patterns then
     charge distinct costs and the sentinel must fire. *)
  let leaky_cost (e : Bn.t) =
    let bits = Bn.bit_length e in
    let pops = ref 0 in
    for i = 0 to bits - 1 do
      if Bn.test_bit e i then incr pops
    done;
    float_of_int ((36 * bits) + (72 * !pops))
  in
  let k1 = Rsa.generate (Prng.of_int 41) ~bits:256 in
  let k2 = Rsa.generate (Prng.of_int 42) ~bits:256 in
  let obs = Obs.create () in
  Obs.Alert.install obs ~name:"ct-leakage" ~series:"rsa.private_op.word_muls"
    (Obs.Alert.Window_spread { window = 0; min_spread = 1. });
  record_at obs 1 "rsa.private_op.word_muls" (leaky_cost k1.Rsa.dp);
  Obs.Alert.eval obs ~tick:1;
  record_at obs 2 "rsa.private_op.word_muls" (leaky_cost k2.Rsa.dp);
  Obs.Alert.eval obs ~tick:2;
  Alcotest.(check bool) "injected leak creates variance" true
    (Obs.Timeseries.spread obs "rsa.private_op.word_muls" >= 1.);
  Alcotest.(check int) "sentinel fires on secret-dependent cost" 1
    (Obs.Alert.fired obs "ct-leakage")

(* ---- system sampling + dashboard integration ---- *)

let test_dashboard_telemetry_unprotected () =
  let d = Dashboard.run ~level:Protection.Unprotected ~num_pages:2048 ~seed:7 () in
  let series name =
    match List.find_opt (fun m -> m.Dashboard.ms_name = name) d.Dashboard.metrics with
    | Some m -> m
    | None -> Alcotest.failf "series %s not sampled" name
  in
  List.iter
    (fun name -> ignore (series name))
    [ "kernel.free_pages"; "kernel.swap_slots_used"; "kernel.page_cache_frames";
      "kernel.locked_frames"; "exposure.sensitive_unsafe_byte_ticks";
      "exposure.sensitive_unsafe"; "scan.sweep_cycles"; "scan.pages_swept"; "scan.hits";
      "scan.cache_hit_rate"; "cost.total_cycles"; "cost.cycles_per_tick";
      "cost.cycles.bignum"; "rsa.private_op.word_muls"; "rsa.private_op.limb_traffic" ];
  Alcotest.(check string) "cumulative exposure is a counter" "counter"
    (series "exposure.sensitive_unsafe_byte_ticks").Dashboard.ms_kind;
  Alcotest.(check string) "its derivative is a rate" "rate"
    (series "exposure.sensitive_unsafe").Dashboard.ms_kind;
  Alcotest.(check int) "one kernel sample per tick" 30
    (series "kernel.free_pages").Dashboard.ms_samples;
  Alcotest.(check bool) "exposure-slo fired at unprotected" true
    (List.exists (fun a -> a.Dashboard.rule = "exposure-slo") d.Dashboard.alerts);
  Alcotest.(check bool) "constant-time sentinel stayed silent" false
    (List.exists (fun a -> a.Dashboard.rule = "ct-leakage") d.Dashboard.alerts);
  Alcotest.(check bool) "limb-traffic sentinel stayed silent" false
    (List.exists (fun a -> a.Dashboard.rule = "ct-leakage-limbs") d.Dashboard.alerts);
  let json = Dashboard.to_json d in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json has " ^ key) true (contains ~needle:("\"" ^ key ^ "\"") json))
    [ "timeseries"; "alert_rules"; "alerts" ];
  let html = Dashboard.to_html d in
  Alcotest.(check bool) "telemetry panel" true (contains ~needle:"Telemetry" html);
  Alcotest.(check bool) "sparklines" true (contains ~needle:"class=\"spark\"" html);
  Alcotest.(check bool) "alert table" true (contains ~needle:"exposure-slo" html)

let test_dashboard_telemetry_integrated () =
  let d = Dashboard.run ~level:Protection.Integrated ~num_pages:2048 ~seed:7 () in
  Alcotest.(check (list string)) "no alerts at integrated" []
    (List.map (fun a -> a.Dashboard.rule) d.Dashboard.alerts);
  let unsafe =
    List.find_opt
      (fun m -> m.Dashboard.ms_name = "exposure.sensitive_unsafe")
      d.Dashboard.metrics
  in
  (match unsafe with
   | Some m ->
     Alcotest.(check bool) "sensitive-unsafe rate pinned at zero" true
       (List.for_all (fun (_, v) -> v = 0.) m.Dashboard.ms_points)
   | None -> Alcotest.fail "exposure.sensitive_unsafe not sampled");
  Alcotest.(check int) "four standing rules" 4 (List.length d.Dashboard.alert_rules);
  (* the limb engine's per-op traffic was sampled and showed zero spread *)
  (match
     List.find_opt
       (fun m -> m.Dashboard.ms_name = "rsa.private_op.limb_traffic")
       d.Dashboard.metrics
   with
   | Some m ->
     (match m.Dashboard.ms_points with
      | (_, v0) :: rest ->
        Alcotest.(check bool) "limb traffic positive" true (v0 > 0.);
        Alcotest.(check bool) "limb traffic constant across ops" true
          (List.for_all (fun (_, v) -> v = v0) rest)
      | [] -> Alcotest.fail "limb_traffic sampled but empty")
   | None -> Alcotest.fail "rsa.private_op.limb_traffic not sampled")

let test_html_escaping () =
  Alcotest.(check string) "html_escape" "&lt;b&gt;x&amp;y&lt;/b&gt;"
    (Dashboard.html_escape "<b>x&y</b>");
  let spark = Dashboard.svg_sparkline [ (1, 0.); (2, 5.); (3, 2.) ] in
  Alcotest.(check bool) "sparkline is svg" true (contains ~needle:"<svg" spark);
  Alcotest.(check bool) "sparkline has a polyline" true (contains ~needle:"<polyline" spark)

(* ---- fleet merge ---- *)

let test_fleet_telemetry () =
  let cfg = { Fleet.default with shards = 2; domains = 1; num_pages = 1024 } in
  let r = Fleet.run cfg in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d sampled series" s.Fleet.shard_id)
        true
        (List.length s.Fleet.dash.Dashboard.metrics > 0))
    r.Fleet.shard_results;
  let json = Fleet.to_json r in
  Alcotest.(check bool) "fleet json has timeseries" true (contains ~needle:"\"timeseries\"" json);
  Alcotest.(check bool) "fleet json has alerts" true (contains ~needle:"\"alerts\"" json);
  (* the merged free-page gauge is the shard-wise sum at equal ticks *)
  let d = Fleet.dashboard r in
  let merged =
    match
      List.find_opt (fun m -> m.Dashboard.ms_name = "kernel.free_pages") d.Dashboard.metrics
    with
    | Some m -> m
    | None -> Alcotest.fail "merged kernel.free_pages missing"
  in
  let shard_sum tick =
    List.fold_left
      (fun acc s ->
        match
          List.find_opt
            (fun m -> m.Dashboard.ms_name = "kernel.free_pages")
            s.Fleet.dash.Dashboard.metrics
        with
        | Some m -> acc +. (try List.assoc tick m.Dashboard.ms_points with Not_found -> 0.)
        | None -> acc)
      0. r.Fleet.shard_results
  in
  List.iter
    (fun (tick, v) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "merged = sum at tick %d" tick)
        (shard_sum tick) v)
    merged.Dashboard.ms_points;
  (* unprotected fleet trips the SLO; integrated fleet stays silent *)
  Alcotest.(check bool) "fleet exposure-slo fired" true
    (List.exists (fun a -> a.Dashboard.rule = "exposure-slo") d.Dashboard.alerts);
  let ri = Fleet.run { cfg with level = Protection.Integrated } in
  Alcotest.(check int) "integrated fleet: no firings" 0
    (List.length (Fleet.dashboard ri).Dashboard.alerts);
  (* determinism: telemetry and alerts are in the fingerprinted bytes *)
  let r2 = Fleet.run { cfg with domains = 2 } in
  Alcotest.(check string) "fingerprint invariant across domains with series"
    (Fleet.fingerprint r) (Fleet.fingerprint r2)

(* ---- pinned introspection goldens (satellite: golden renderer tests) ---- *)

(* A tiny fully-hand-built machine so the golden text is stable: 64 frames,
   one sshd process holding an mlocked key page and a plain heap buffer,
   one cached file page, frozen at tick 3. *)
let golden_kernel () =
  let obs = Obs.create () in
  let config = { Kernel.default_config with num_pages = 64 } in
  let k = Kernel.create ~config ~obs () in
  let p = Kernel.spawn k ~name:"sshd" in
  let heap = Kernel.malloc k p 6000 in
  Kernel.write_mem k p ~addr:heap (String.make 32 'K');
  Kernel.note_copy k p ~origin:Obs.Bn_limbs ~addr:heap ~len:32;
  let locked = Kernel.memalign k p ~bytes:4096 in
  Kernel.mlock k p ~addr:locked ~len:4096;
  Kernel.write_mem k p ~addr:locked (String.make 16 'S');
  Kernel.note_copy k p ~origin:Obs.Heap_copy ~addr:locked ~len:16;
  ignore (Kernel.write_file k ~path:"/etc/motd" "hello memguard\n");
  let reader = Kernel.spawn k ~name:"cat" in
  ignore (Kernel.read_file k reader ~path:"/etc/motd" ~nocache:false);
  Obs.set_tick obs 3;
  Obs.Exposure.advance obs 3;
  k

let check_golden name actual expected =
  if String.equal actual expected then []
  else begin
    (* print both in full: alcotest's diff is unreadable for multi-line text *)
    Format.printf "---- %s: expected ----@.%s@.---- actual ----@.%s@." name expected actual;
    [ name ]
  end

let golden_maps =
  String.concat "\n"
    [ "==> /proc/1/maps (sshd) <==";
      "00010000-00011000 rw-- pfn 00000-00000 [plain_anon]  key: bn_limbs(32)";
      "00011000-00012000 rw-- pfn 00001-00001 [plain_anon]";
      "00012000-00013000 rwl- pfn 00002-00002 [mlocked_anon]  key: heap_copy(16)";
      "==> /proc/2/maps (cat) <==";
      "00010000-00011000 rw-- pfn 00004-00004 [plain_anon]";
      ""
    ]

let golden_buddyinfo =
  String.concat "\n"
    [ "==> buddyinfo <==";
      "free=59 allocated=5 hot=0";
      "order:      0     1     2     3     4     5     6     7     8     9    10";
      "blocks:     1     1     0     1     1     1     0     0     0     0     0";
      ""
    ]

let golden_meminfo =
  String.concat "\n"
    [ "==> meminfo <==";
      "free=59 allocated=5 cached=1 procs=2 swap_used=0";
      "key copies: 3 intervals, 63 bytes";
      "exposure (byte-ticks through tick 3):";
      "  bn_limbs     plain_anon             96";
      "  page_cache   page_cache             45";
      "  heap_copy    mlocked_anon           48";
      ""
    ]

let test_introspect_goldens () =
  let k = golden_kernel () in
  let drifted =
    check_golden "maps" (Introspect.maps k) golden_maps
    @ check_golden "buddyinfo" (Introspect.buddyinfo k) golden_buddyinfo
    @ check_golden "meminfo" (Introspect.meminfo k) golden_meminfo
  in
  if drifted <> [] then
    Alcotest.failf "renderers drifted from the pinned goldens: %s"
      (String.concat ", " drifted)

let suite =
  [ ( "telemetry",
      [ Alcotest.test_case "gauge and counter" `Quick test_gauge_and_counter;
        Alcotest.test_case "derived rate" `Quick test_derived_rate;
        Alcotest.test_case "downsampling envelope" `Quick test_downsampling_keeps_envelope;
        Alcotest.test_case "downsampling single point" `Quick test_downsampling_single_point;
        Alcotest.test_case "downsampling constant series" `Quick
          test_downsampling_constant_series;
        Alcotest.test_case "stride doubles exactly at capacity" `Quick
          test_stride_doubles_exactly_at_capacity;
        Alcotest.test_case "prometheus and json exports" `Quick test_exports;
        Alcotest.test_case "prometheus extra labels" `Quick test_prometheus_extra_labels;
        Alcotest.test_case "threshold edge triggering" `Quick test_threshold_edge_triggering;
        Alcotest.test_case "rate and spread rules" `Quick test_rate_and_spread_rules;
        Alcotest.test_case "sentinel constant across keys" `Quick
          test_sentinel_constant_across_keys;
        Alcotest.test_case "sentinel fires on leaky cost" `Quick
          test_sentinel_fires_on_leaky_cost;
        Alcotest.test_case "dashboard telemetry unprotected" `Quick
          test_dashboard_telemetry_unprotected;
        Alcotest.test_case "dashboard telemetry integrated" `Quick
          test_dashboard_telemetry_integrated;
        Alcotest.test_case "html escaping" `Quick test_html_escaping;
        Alcotest.test_case "fleet telemetry merge" `Quick test_fleet_telemetry;
        Alcotest.test_case "introspect goldens" `Quick test_introspect_goldens
      ] )
  ]
