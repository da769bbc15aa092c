module Obs = Memguard_obs.Obs
module Report = Memguard_scan.Report

type breach = {
  tick : int;
  origin : Obs.origin;
  cls : Obs.mem_class;
  pid : int;
  addr : int;
  len : int;
  age : int;
}

type metric_series = {
  ms_name : string;
  ms_kind : string;
  ms_stride : int;
  ms_samples : int;
  ms_points : (int * float) list;
}

type alert_firing = {
  fired_tick : int;
  rule : string;
  rule_series : string;
  value : float;
}

type t = {
  level : Protection.level;
  server : Timeline.server;
  seed : int;
  num_pages : int;
  breach_age : int option;
  snapshots : Report.snapshot list;
  series : (int * ((Obs.origin * Obs.mem_class) * int) list) list;
  totals : ((Obs.origin * Obs.mem_class) * int) list;
  lifetimes : (Obs.origin * int list) list;
  breaches : breach list;
  counters : (string * int) list;
  cycles : int;
  cycles_by_subsystem : (string * int) list;
  metrics : metric_series list;
  alert_rules : (string * string * Obs.Alert.condition) list;
  alerts : alert_firing list;
  budgets : Forensics.budget_row list;
}

(* The standing SLO pack every observed run arms:
   - exposure-slo: sensitive bytes sat outside mlocked-anon for 3
     consecutive ticks (the per-tick twin of the byte·tick breach SLO);
   - swap-pressure: any key-era page reached the swap device;
   - ct-leakage: the constant-time sentinel — the word-mul cost of
     [rsa.private_op] showed any variance across samples, i.e. the
     modular exponentiation leaked secret-dependent work;
   - ct-leakage-limbs: the same sentinel one layer lower — the limb
     traffic of the branchless [Bn.Ct] engine varied across operations,
     i.e. some add/sub/select/reduce sweep became value-dependent. *)
let install_default_alerts obs =
  Obs.Alert.install obs ~name:"exposure-slo" ~series:"exposure.sensitive_unsafe"
    (Obs.Alert.Threshold { value = 0.; for_ticks = 3 });
  Obs.Alert.install obs ~name:"swap-pressure" ~series:"kernel.swap_slots_used"
    (Obs.Alert.Threshold { value = 0.; for_ticks = 1 });
  Obs.Alert.install obs ~name:"ct-leakage" ~series:"rsa.private_op.word_muls"
    (Obs.Alert.Spread { min_spread = 1. });
  Obs.Alert.install obs ~name:"ct-leakage-limbs" ~series:"rsa.private_op.limb_traffic"
    (Obs.Alert.Spread { min_spread = 1. })

let collect_metrics obs =
  List.map
    (fun name ->
      { ms_name = name;
        ms_kind =
          (if Obs.Timeseries.source obs name <> None then "rate"
           else
             match Obs.Timeseries.kind obs name with
             | Some k -> Obs.Timeseries.kind_name k
             | None -> "gauge");
        ms_stride = Obs.Timeseries.stride obs name;
        ms_samples = Obs.Timeseries.sample_count obs name;
        ms_points = Obs.Timeseries.points obs name
      })
    (Obs.Timeseries.names obs)

let collect_alerts obs =
  List.map
    (fun (tick, rule, series, value) ->
      { fired_tick = tick; rule; rule_series = series; value })
    (Obs.Alert.firings obs)

let run ?(level = Protection.Unprotected) ?(num_pages = 8192) ?(seed = 1) ?rng
    ?(churn = 3) ?low ?high ?breach_age ?(server = Timeline.Ssh) ?(obs = Obs.create ())
    ?recorder () =
  Obs.Exposure.set_breach_age obs breach_age;
  install_default_alerts obs;
  let snapshots =
    Experiment.timeline ~level ~num_pages ~seed ?rng ~churn ?low ?high ~obs ?recorder server
  in
  let breaches =
    List.filter_map
      (fun (r : Obs.record) ->
        match r.Obs.event with
        | Obs.Exposure_breach { origin; cls; pid; addr; len; age } ->
          Some { tick = r.Obs.tick; origin; cls; pid; addr; len; age }
        | _ -> None)
      (Obs.Trace.records obs)
  in
  { level;
    server;
    seed;
    num_pages;
    breach_age;
    snapshots;
    series = Obs.Exposure.series obs;
    totals = Obs.Exposure.totals obs;
    lifetimes =
      List.filter_map
        (fun o ->
          match Obs.Exposure.lifetimes obs o with [] -> None | ls -> Some (o, ls))
        Obs.all_origins;
    breaches;
    counters = Obs.Metrics.counters obs;
    cycles = Obs.Cost.total_cycles obs;
    cycles_by_subsystem = Obs.Cost.by_subsystem obs;
    metrics = collect_metrics obs;
    alert_rules = Obs.Alert.rules obs;
    alerts = collect_alerts obs;
    budgets = Forensics.budget_table obs
  }

(* ---- derived views ---- *)

let bucket_sum pred buckets =
  List.fold_left (fun acc (k, v) -> if pred k then acc + v else acc) 0 buckets

(* acceptance view: byte-ticks of *sensitive* origins outside the mlocked
   class — zero at Integrated, growing at Unprotected *)
let sensitive_unsafe_total t =
  bucket_sum
    (fun (o, c) -> Obs.origin_sensitive o && c <> Obs.Mlocked_anon)
    t.totals

let class_total t cls = bucket_sum (fun (_, c) -> c = cls) t.totals

let origins_present t =
  List.filter (fun o -> List.exists (fun ((o', _), _) -> o' = o) t.totals) Obs.all_origins

let classes_present t =
  List.filter (fun c -> List.exists (fun ((_, c'), _) -> c' = c) t.totals) Obs.all_classes

(* per-origin (summed over classes) cumulative series, one point per tick,
   prefixed with an implicit (0, 0) start *)
let origin_series t o =
  (0, 0)
  :: List.map (fun (tick, buckets) -> (tick, bucket_sum (fun (o', _) -> o' = o) buckets)) t.series

let class_series t c =
  (0, 0)
  :: List.map
       (fun (tick, buckets) ->
         (tick, bucket_sum (fun (o, c') -> c' = c && Obs.origin_sensitive o) buckets))
       t.series

(* ---- self-contained HTML report (inline CSS + SVG, no scripts) ---- *)

let palette =
  [| "#2563eb"; "#dc2626"; "#16a34a"; "#d97706"; "#9333ea"; "#0891b2"; "#db2777";
     "#65a30d" |]

let html_escape = Forensics.html_escape

let short_num v =
  if v >= 1_000_000. then Printf.sprintf "%.1fM" (v /. 1_000_000.)
  else if v >= 1_000. then Printf.sprintf "%.1fk" (v /. 1_000.)
  else Printf.sprintf "%g" v

(* a simple multi-series line chart; series = (name, (x, y) list) list *)
let svg_line_chart ~title ~y_label series =
  let width = 720 and height = 300 in
  let ml = 64 and mr = 170 and mt = 34 and mb = 36 in
  let pw = width - ml - mr and ph = height - mt - mb in
  let xs = List.concat_map (fun (_, pts) -> List.map fst pts) series in
  let ys = List.concat_map (fun (_, pts) -> List.map snd pts) series in
  let xmax = float_of_int (max 1 (List.fold_left max 0 xs)) in
  let ymax = float_of_int (max 1 (List.fold_left max 0 ys)) in
  let px x = float_of_int ml +. (float_of_int x /. xmax *. float_of_int pw) in
  let py y = float_of_int (mt + ph) -. (float_of_int y /. ymax *. float_of_int ph) in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<svg viewBox=\"0 0 %d %d\" class=\"chart\" role=\"img\">" width height;
  add "<text x=\"%d\" y=\"20\" class=\"ctitle\">%s</text>" ml (html_escape title);
  (* y grid: 4 divisions *)
  for i = 0 to 4 do
    let frac = float_of_int i /. 4. in
    let y = float_of_int (mt + ph) -. (frac *. float_of_int ph) in
    add "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" class=\"grid\"/>" ml y (ml + pw) y;
    add "<text x=\"%d\" y=\"%.1f\" class=\"ylab\">%s</text>" (ml - 6) (y +. 4.)
      (short_num (frac *. ymax))
  done;
  (* x ticks: at most 10 *)
  let xstep = max 1 (int_of_float xmax / 10) in
  let xi = ref 0 in
  while !xi <= int_of_float xmax do
    add "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" class=\"grid\"/>" (px !xi)
      (mt + ph) (px !xi) (mt + ph + 4);
    add "<text x=\"%.1f\" y=\"%d\" class=\"xlab\">%d</text>" (px !xi) (mt + ph + 16) !xi;
    xi := !xi + xstep
  done;
  add "<text x=\"%d\" y=\"%d\" class=\"xlab\">tick</text>" (ml + (pw / 2)) (height - 4);
  add
    "<text x=\"14\" y=\"%d\" class=\"ylab\" transform=\"rotate(-90 14 %d)\" text-anchor=\"middle\">%s</text>"
    (mt + (ph / 2)) (mt + (ph / 2)) (html_escape y_label);
  (* series *)
  List.iteri
    (fun i (name, pts) ->
      let color = palette.(i mod Array.length palette) in
      let points =
        String.concat " " (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) pts)
      in
      add "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\"/>" points
        color;
      let ly = mt + 8 + (i * 18) in
      add "<rect x=\"%d\" y=\"%d\" width=\"12\" height=\"12\" fill=\"%s\"/>" (ml + pw + 14)
        ly color;
      add "<text x=\"%d\" y=\"%d\" class=\"legend\">%s</text>" (ml + pw + 31) (ly + 10)
        (html_escape name))
    series;
  add "</svg>";
  Buffer.contents buf

(* inline sparkline for one telemetry series: fixed 160x28 box, float
   points, min/max annotated by the caller *)
let svg_sparkline pts =
  let width = 160 and height = 28 in
  match pts with
  | [] | [ _ ] -> "<svg viewBox=\"0 0 160 28\" class=\"spark\"></svg>"
  | _ ->
    let xs = List.map (fun (x, _) -> float_of_int x) pts in
    let ys = List.map snd pts in
    let xmin = List.fold_left min (List.hd xs) xs in
    let xmax = List.fold_left max (List.hd xs) xs in
    let ymin = List.fold_left min (List.hd ys) ys in
    let ymax = List.fold_left max (List.hd ys) ys in
    let xspan = if xmax -. xmin > 0. then xmax -. xmin else 1. in
    let yspan = if ymax -. ymin > 0. then ymax -. ymin else 1. in
    let px x = 2. +. ((x -. xmin) /. xspan *. float_of_int (width - 4)) in
    let py y = float_of_int (height - 3) -. ((y -. ymin) /. yspan *. float_of_int (height - 6)) in
    let points =
      String.concat " "
        (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px (float_of_int x)) (py y)) pts)
    in
    Printf.sprintf
      "<svg viewBox=\"0 0 %d %d\" class=\"spark\"><polyline points=\"%s\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\"/></svg>"
      width height points

let to_html t =
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  add "<title>memguard exposure observatory — %s/%s</title>\n"
    (html_escape (Protection.name t.level)) (Timeline.server_name t.server);
  add
    "<style>body{font:14px/1.5 system-ui,sans-serif;margin:24px auto;max-width:960px;color:#111}\n\
     h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n\
     table{border-collapse:collapse;margin:8px 0}td,th{border:1px solid #cbd5e1;padding:3px \
     10px;text-align:right}th{background:#f1f5f9}td:first-child,th:first-child{text-align:left}\n\
     .chart{width:100%%;max-width:760px;background:#fff;border:1px solid #e2e8f0;margin:10px 0}\n\
     .ctitle{font-size:14px;font-weight:600}.grid{stroke:#e2e8f0;stroke-width:1}\n\
     .ylab{font-size:10px;fill:#475569;text-anchor:end}.xlab{font-size:10px;fill:#475569;text-anchor:middle}\n\
     .legend{font-size:11px;fill:#111}\n\
     .spark{width:160px;height:28px;background:#fff;border:1px solid #e2e8f0;vertical-align:middle}\n\
     .ok{color:#16a34a;font-weight:600}.bad{color:#dc2626;font-weight:600}\n\
     .meta td{text-align:left}</style></head><body>\n";
  add "<h1>memguard exposure observatory</h1>\n";
  add "<table class=\"meta\"><tr><th>level</th><td>%s</td></tr>"
    (html_escape (Protection.name t.level));
  add "<tr><th>server</th><td>%s</td></tr>" (Timeline.server_name t.server);
  add "<tr><th>scan mode</th><td>%s</td></tr>" (System.mode_name System.Incremental);
  add "<tr><th>seed / pages</th><td>%d / %d</td></tr>" t.seed t.num_pages;
  add "<tr><th>breach SLO</th><td>%s</td></tr>"
    (match t.breach_age with
     | Some a -> Printf.sprintf "%d ticks" a
     | None -> "disabled");
  let unsafe = sensitive_unsafe_total t in
  add
    "<tr><th>sensitive exposure outside mlocked</th><td class=\"%s\">%d byte&middot;ticks</td></tr></table>\n"
    (if unsafe = 0 then "ok" else "bad")
    unsafe;
  (* chart 1: per-origin cumulative exposure *)
  add "<h2>Exposure per origin (cumulative byte&middot;ticks)</h2>\n";
  add "%s\n"
    (svg_line_chart ~title:"all origins, all classes" ~y_label:"byte-ticks"
       (List.map (fun o -> (Obs.origin_name o, origin_series t o)) (origins_present t)));
  (* chart 2: per-class cumulative exposure, sensitive origins only *)
  add "<h2>Exposure per memory class (sensitive origins)</h2>\n";
  add "%s\n"
    (svg_line_chart ~title:"sensitive origins by class" ~y_label:"byte-ticks"
       (List.map (fun c -> (Obs.class_name c, class_series t c)) (classes_present t)));
  (* chart 3: scanner hit counts *)
  add "<h2>Scanner hits</h2>\n";
  add "%s\n"
    (svg_line_chart ~title:"key copies found per snapshot" ~y_label:"hits"
       [ ("total", List.map (fun (s : Report.snapshot) -> (s.Report.time, s.Report.total)) t.snapshots);
         ( "allocated",
           List.map (fun (s : Report.snapshot) -> (s.Report.time, s.Report.allocated)) t.snapshots );
         ( "unallocated",
           List.map (fun (s : Report.snapshot) -> (s.Report.time, s.Report.unallocated)) t.snapshots )
       ]);
  (* totals matrix *)
  add "<h2>Exposure totals (byte&middot;ticks, origin &times; class)</h2>\n<table><tr><th>origin</th>";
  let classes = classes_present t in
  List.iter (fun c -> add "<th>%s</th>" (html_escape (Obs.class_name c))) classes;
  add "</tr>";
  List.iter
    (fun o ->
      add "<tr><td>%s%s</td>" (html_escape (Obs.origin_name o))
        (if Obs.origin_sensitive o then "" else " <small>(non-sensitive)</small>");
      List.iter
        (fun c -> add "<td>%d</td>" (bucket_sum (fun k -> k = (o, c)) t.totals))
        classes;
      add "</tr>")
    (origins_present t);
  add "</table>\n";
  (* lifetimes *)
  add "<h2>Copy lifetimes (birth &rarr; zeroed, ticks)</h2>\n";
  (match t.lifetimes with
   | [] -> add "<p>no copies were destroyed during the run</p>\n"
   | ls ->
     add "<table><tr><th>origin</th><th>count</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>";
     List.iter
       (fun (o, ages) ->
         let fs = List.map float_of_int ages in
         add "<tr><td>%s</td><td>%d</td><td>%g</td><td>%g</td><td>%g</td><td>%g</td></tr>"
           (html_escape (Obs.origin_name o)) (List.length ages)
           (Obs.Metrics.percentile fs 50.) (Obs.Metrics.percentile fs 90.)
           (Obs.Metrics.percentile fs 99.) (Obs.Metrics.percentile fs 100.))
       ls;
     add "</table>\n");
  (* overhead *)
  add "<h2>Simulated-cycle overhead</h2>\n";
  add "<table><tr><th>subsystem</th><th>cycles</th></tr>";
  List.iter
    (fun (s, v) -> add "<tr><td>%s</td><td>%d</td></tr>" (html_escape s) v)
    t.cycles_by_subsystem;
  add "<tr><th>total</th><th>%d</th></tr></table>\n" t.cycles;
  (* breaches *)
  add "<h2>SLO breaches</h2>\n";
  (match t.breaches with
   | [] ->
     add "<p class=\"ok\">none%s</p>\n"
       (match t.breach_age with None -> " (SLO disabled)" | Some _ -> "")
   | bs ->
     add
       "<table><tr><th>tick</th><th>origin</th><th>class</th><th>pid</th><th>addr</th><th>len</th><th>age</th></tr>";
     List.iter
       (fun b ->
         add
           "<tr><td>%d</td><td>%s</td><td>%s</td><td>%d</td><td>%#x</td><td>%d</td><td>%d</td></tr>"
           b.tick
           (html_escape (Obs.origin_name b.origin))
           (html_escape (Obs.class_name b.cls))
           b.pid b.addr b.len b.age)
       bs;
     add "</table>\n");
  (* per-request leak budgets *)
  add "<h2>Per-request leak budgets</h2>\n";
  (match t.budgets with
   | [] -> add "<p class=\"ok\">no sensitive exposure attributed to any request</p>\n"
   | bs ->
     add
       "<table><tr><th>trace</th><th>request</th><th>pid</th><th>start tick</th><th>byte&middot;ticks</th></tr>";
     List.iter
       (fun (b : Forensics.budget_row) ->
         add "<tr><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td></tr>"
           b.Forensics.br_trace (html_escape b.Forensics.br_request) b.Forensics.br_pid
           b.Forensics.br_start_tick b.Forensics.br_byte_ticks)
       bs;
     add "</table>\n");
  (* telemetry panels: one sparkline per series *)
  add "<h2>Telemetry (per-tick series)</h2>\n";
  (match t.metrics with
   | [] -> add "<p>no series were recorded</p>\n"
   | ms ->
     add
       "<table><tr><th>series</th><th>kind</th><th>last</th><th>min</th><th>max</th><th>samples</th><th>trend</th></tr>";
     List.iter
       (fun m ->
         let ys = List.map snd m.ms_points in
         let last = match List.rev ys with v :: _ -> v | [] -> 0. in
         let mn = List.fold_left min last ys and mx = List.fold_left max last ys in
         add
           "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>"
           (html_escape m.ms_name) (html_escape m.ms_kind) (short_num last) (short_num mn)
           (short_num mx) m.ms_samples (svg_sparkline m.ms_points))
       ms;
     add "</table>\n");
  (* alerts *)
  add "<h2>Alerts</h2>\n";
  add "<table><tr><th>rule</th><th>series</th><th>condition</th></tr>";
  List.iter
    (fun (name, series, cond) ->
      add "<tr><td>%s</td><td>%s</td><td>%s</td></tr>" (html_escape name)
        (html_escape series)
        (html_escape (Obs.Alert.describe_condition cond)))
    t.alert_rules;
  add "</table>\n";
  (match t.alerts with
   | [] -> add "<p class=\"ok\">no alerts fired</p>\n"
   | als ->
     add "<table><tr><th>tick</th><th>rule</th><th>series</th><th>value</th></tr>";
     List.iter
       (fun a ->
         add "<tr><td>%d</td><td class=\"bad\">%s</td><td>%s</td><td>%s</td></tr>"
           a.fired_tick (html_escape a.rule) (html_escape a.rule_series)
           (short_num a.value))
       als;
     add "</table>\n");
  add "</body></html>\n";
  Buffer.contents buf

let pp_summary fmt t =
  Format.fprintf fmt "level=%s server=%s mode=%s ticks=%d@." (Protection.name t.level)
    (Timeline.server_name t.server)
    (System.mode_name System.Incremental)
    (List.length t.snapshots);
  Format.fprintf fmt "sensitive exposure outside mlocked-anon: %d byte-ticks@."
    (sensitive_unsafe_total t);
  List.iter
    (fun ((o, c), v) ->
      Format.fprintf fmt "  %-12s %-12s %12d@." (Obs.origin_name o) (Obs.class_name c) v)
    t.totals;
  Format.fprintf fmt "breaches: %d@." (List.length t.breaches);
  (match t.budgets with
   | [] -> ()
   | bs ->
     Format.fprintf fmt "per-request leak budgets:@.";
     List.iter
       (fun (b : Forensics.budget_row) ->
         Format.fprintf fmt "  trace %-4d %-18s pid %-4d %12d byte-ticks@."
           b.Forensics.br_trace b.Forensics.br_request b.Forensics.br_pid
           b.Forensics.br_byte_ticks)
       bs);
  Format.fprintf fmt "alerts fired: %d%s@." (List.length t.alerts)
    (match t.alerts with
     | [] -> ""
     | als ->
       " ("
       ^ String.concat ", "
           (List.sort_uniq compare (List.map (fun a -> a.rule) als))
       ^ ")");
  Format.fprintf fmt "simulated cycles: %d (%s)@." t.cycles
    (String.concat ", "
       (List.map (fun (s, v) -> Printf.sprintf "%s %d" s v) t.cycles_by_subsystem))

(* per-tick table over the headline series, then every alert firing *)
let pp_telemetry fmt t =
  Format.fprintf fmt "# telemetry: %d series, %d rules@." (List.length t.metrics)
    (List.length t.alert_rules);
  let headline =
    [ ("free", "kernel.free_pages"); ("swap", "kernel.swap_slots_used");
      ("cache", "kernel.page_cache_frames"); ("locked", "kernel.locked_frames");
      ("unsafe", "exposure.sensitive_unsafe"); ("sweep", "scan.sweep_cycles");
      ("hits", "scan.hits"); ("cyc/t", "cost.cycles_per_tick") ]
  in
  let cols =
    List.map
      (fun (h, name) ->
        match List.find_opt (fun m -> m.ms_name = name) t.metrics with
        | Some m -> (h, m.ms_points)
        | None -> (h, []))
      headline
  in
  let ticks = List.sort_uniq compare (List.concat_map (fun (_, pts) -> List.map fst pts) cols) in
  Format.fprintf fmt "%6s" "tick";
  List.iter (fun (h, _) -> Format.fprintf fmt " %10s" h) cols;
  Format.fprintf fmt "@.";
  List.iter
    (fun tick ->
      Format.fprintf fmt "%6d" tick;
      List.iter
        (fun (_, pts) ->
          Format.fprintf fmt " %10s"
            (match List.assoc_opt tick pts with Some v -> Obs.float_json v | None -> "-"))
        cols;
      Format.fprintf fmt "@.")
    ticks;
  match t.alerts with
  | [] -> Format.fprintf fmt "no alerts fired@."
  | als ->
    List.iter
      (fun a ->
        Format.fprintf fmt "ALERT tick=%d rule=%s series=%s value=%s@." a.fired_tick a.rule
          a.rule_series (Obs.float_json a.value))
      als

(* ---- differential run observatory (memguard_cli diff --html) ---- *)

let page_style =
  "<style>body{font:14px/1.5 system-ui,sans-serif;margin:24px auto;max-width:1100px;color:#111}\n\
   h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n\
   table{border-collapse:collapse;margin:8px 0}td,th{border:1px solid #cbd5e1;padding:3px \
   10px;text-align:right}th{background:#f1f5f9}td:first-child,th:first-child{text-align:left}\n\
   .spark{width:160px;height:28px;background:#fff;border:1px solid #e2e8f0;vertical-align:middle}\n\
   .ok{color:#16a34a;font-weight:600}.bad{color:#dc2626;font-weight:600}\n\
   .warn{color:#d97706;font-weight:600}.dim{color:#64748b}\n\
   .meta td{text-align:left}</style>"

let verdict_class (d : Obs.Diff.delta) =
  if d.Obs.Diff.d_hard then "bad"
  else
    match d.Obs.Diff.d_verdict with
    | Obs.Diff.Improvement -> "ok"
    | Obs.Diff.Regression -> "warn"
    | Obs.Diff.Neutral -> "dim"

(* Side-by-side diff page: verdict summary, meta changes, the full delta
   table with improvement/regression coloring, and paired base/current
   sparklines for every series both archives retained. *)
let diff_html ~base_name ~cur_name (base : Obs.Snapshot.t) (cur : Obs.Snapshot.t)
    (d : Obs.Diff.t) =
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  add "<title>memguard run diff — %s vs %s</title>\n%s</head><body>\n"
    (html_escape base_name) (html_escape cur_name) page_style;
  add "<h1>memguard run diff</h1>\n";
  add "<table class=\"meta\"><tr><th></th><th>base</th><th>current</th></tr>";
  add "<tr><th>archive</th><td>%s</td><td>%s</td></tr>" (html_escape base_name)
    (html_escape cur_name);
  add "<tr><th>kind</th><td>%s</td><td>%s</td></tr></table>\n"
    (html_escape base.Obs.Snapshot.ar_kind)
    (html_escape cur.Obs.Snapshot.ar_kind);
  let hard = Obs.Diff.hard_regressions d in
  add "<p>%d observables compared: <span class=\"ok\">%d improvement(s)</span>, \
       <span class=\"%s\">%d regression(s), %d hard</span>, %d new key(s).</p>\n"
    d.Obs.Diff.compared (Obs.Diff.improvements d)
    (if hard > 0 then "bad" else "warn")
    (Obs.Diff.regressions d) hard (Obs.Diff.added d);
  if d.Obs.Diff.meta_diff <> [] then begin
    add "<h2>configuration changes</h2>\n<table><tr><th>key</th><th>base</th><th>current</th></tr>";
    List.iter
      (fun (k, b, c) ->
        add "<tr><td>%s</td><td>%s</td><td>%s</td></tr>" (html_escape k)
          (html_escape (Option.value ~default:"-" b))
          (html_escape (Option.value ~default:"-" c)))
      d.Obs.Diff.meta_diff;
    add "</table>\n"
  end;
  if d.Obs.Diff.deltas = [] then add "<h2>no deltas</h2>\n"
  else begin
    add "<h2>deltas</h2>\n<table><tr><th>observable</th><th>family</th><th>base</th>\
         <th>current</th><th>delta</th><th>verdict</th></tr>";
    List.iter
      (fun (dl : Obs.Diff.delta) ->
        add "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td class=\"%s\">%s%s</td></tr>"
          (html_escape dl.Obs.Diff.d_key)
          (Obs.Diff.family_name dl.Obs.Diff.d_family)
          (match dl.Obs.Diff.d_base with None -> "-" | Some v -> short_num v)
          (match dl.Obs.Diff.d_cur with None -> "-" | Some v -> short_num v)
          (if dl.Obs.Diff.d_base = None || dl.Obs.Diff.d_cur = None then "-"
           else Printf.sprintf "%+.1f%%" dl.Obs.Diff.d_pct)
          (verdict_class dl)
          (Obs.Diff.verdict_name dl.Obs.Diff.d_verdict)
          (if dl.Obs.Diff.d_hard then " [hard]" else ""))
      d.Obs.Diff.deltas;
    add "</table>\n"
  end;
  let shared =
    List.filter_map
      (fun (c : Obs.Snapshot.series_env) ->
        Option.map
          (fun b -> (b, c))
          (List.find_opt
             (fun (b : Obs.Snapshot.series_env) ->
               b.Obs.Snapshot.e_name = c.Obs.Snapshot.e_name)
             base.Obs.Snapshot.ar_series))
      cur.Obs.Snapshot.ar_series
  in
  if shared <> [] then begin
    add "<h2>series, side by side</h2>\n<table><tr><th>series</th><th>base</th>\
         <th>current</th><th>last</th><th>max</th></tr>";
    List.iter
      (fun ((b : Obs.Snapshot.series_env), (c : Obs.Snapshot.series_env)) ->
        let cls v1 v2 = if v2 > v1 then "bad" else if v2 < v1 then "ok" else "dim" in
        add "<tr><td>%s</td><td>%s</td><td>%s</td><td class=\"%s\">%s &rarr; %s</td>\
             <td class=\"%s\">%s &rarr; %s</td></tr>"
          (html_escape b.Obs.Snapshot.e_name)
          (svg_sparkline b.Obs.Snapshot.e_points)
          (svg_sparkline c.Obs.Snapshot.e_points)
          (cls b.Obs.Snapshot.e_last c.Obs.Snapshot.e_last)
          (short_num b.Obs.Snapshot.e_last)
          (short_num c.Obs.Snapshot.e_last)
          (cls b.Obs.Snapshot.e_max c.Obs.Snapshot.e_max)
          (short_num b.Obs.Snapshot.e_max)
          (short_num c.Obs.Snapshot.e_max))
      shared;
    add "</table>\n"
  end;
  add "</body></html>\n";
  Buffer.contents buf

(* Trajectory over a directory of archives: one sparkline per observable,
   x = run index in name order — the BENCH_* trend view, but for every
   recorded metric at once.  Budget and per-shard keys are omitted (they
   are per-request/per-shard detail, not trends); everything else rides. *)
let trajectory_html (runs : (string * Obs.Snapshot.t) list) =
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  add "<title>memguard run trajectory (%d runs)</title>\n%s</head><body>\n"
    (List.length runs) page_style;
  add "<h1>memguard run trajectory</h1>\n<table class=\"meta\"><tr><th>#</th><th>archive</th><th>kind</th></tr>";
  List.iteri
    (fun i (name, (s : Obs.Snapshot.t)) ->
      add "<tr><th>%d</th><td>%s</td><td>%s</td></tr>" i (html_escape name)
        (html_escape s.Obs.Snapshot.ar_kind))
    runs;
  add "</table>\n";
  let flat = List.map (fun (_, s) -> Obs.Snapshot.scalars s) runs in
  let keep k =
    not
      (String.length k >= 7 && String.sub k 0 7 = "budget:")
    && not (String.length k >= 6 && String.sub k 0 6 = "shard:")
  in
  let keys =
    List.sort_uniq compare (List.filter keep (List.concat_map (List.map fst) flat))
  in
  add "<h2>observables over runs</h2>\n<table><tr><th>observable</th><th>trend</th>\
       <th>first</th><th>last</th><th>delta</th></tr>";
  List.iter
    (fun key ->
      let pts =
        List.concat
          (List.mapi
             (fun i scal ->
               match List.assoc_opt key scal with
               | Some v when not (Float.is_nan v) -> [ (i, v) ]
               | _ -> [])
             flat)
      in
      match pts with
      | [] -> ()
      | (_, first) :: _ ->
        let _, last = List.nth pts (List.length pts - 1) in
        let cls = if last > first then "bad" else if last < first then "ok" else "dim" in
        add "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td class=\"%s\">%s</td></tr>"
          (html_escape key) (svg_sparkline pts) (short_num first) (short_num last) cls
          (if first = last then "="
           else Printf.sprintf "%+.1f%%" (100. *. (last -. first) /. Float.max 1. (Float.abs first))))
    keys;
  add "</table>\n</body></html>\n";
  Buffer.contents buf
