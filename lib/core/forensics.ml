module Obs = Memguard_obs.Obs
module Scanner = Memguard_scan.Scanner
module Report = Memguard_scan.Report

(* What happened to a copy after it was made?  [Zeroed] — an explicit
   zeroing event covered it; [Still_live] — a provenance interval with the
   same birth trace still covers the address; [Recycled] — neither: the
   bytes were freed or overwritten without a deliberate zero (the
   paper's "copies are not erased before entering unallocated memory"). *)
type verdict = Zeroed | Still_live | Recycled

let verdict_name = function
  | Zeroed -> "zeroed"
  | Still_live -> "still_live"
  | Recycled -> "recycled"

type link = {
  lk_span : int;
  lk_parent : int;
  lk_name : string;
  lk_pid : int;
  lk_start_tick : int;
  lk_end_tick : int;
}

type fan_node = {
  fn_seq : int;
  fn_tick : int;
  fn_kind : string;  (* event constructor, lower snake case *)
  fn_pid : int;
  fn_addr : int;  (* -1 when the event carries no byte address *)
  fn_len : int;
  fn_origin : string;  (* "" when the event carries no origin *)
  fn_span : int;
  fn_span_name : string;
  fn_verdict : verdict option;  (* only copy-creating events get one *)
}

type t = {
  f_tick : int;
  f_label : string;
  f_addr : int;
  f_origin : string;  (* "" when no provenance interval covers the hit *)
  f_birth_tick : int;  (* -1 when unknown *)
  f_trace : int;  (* 0 = untraced *)
  f_request : string;  (* root span name; "untraced" for trace 0 *)
  f_request_pid : int;
  f_chain : link list;  (* request root first, birth span last *)
  f_fanout : fan_node list;  (* every traced lifecycle event, seq order *)
  f_live : (int * int * string) list;  (* still-live (addr, len, origin) *)
  f_leak_budget : int;  (* byte·ticks attributed to the trace *)
}

(* ---- causal reconstruction ---- *)

let link_of_span (s : Obs.Trace.span_info) =
  { lk_span = s.Obs.Trace.sp_id;
    lk_parent = s.Obs.Trace.sp_parent;
    lk_name = s.Obs.Trace.sp_name;
    lk_pid = s.Obs.Trace.sp_pid;
    lk_start_tick = s.Obs.Trace.sp_start_tick;
    lk_end_tick = s.Obs.Trace.sp_end_tick
  }

(* walk parent links from the birth span up to the trace root; the walk is
   bounded by the span count, so a (never expected) parent cycle cannot
   hang the tool *)
let chain_of obs ~birth_span =
  let rec up acc guard span =
    if span = 0 || guard = 0 then acc
    else
      match Obs.Trace.span_of_id obs span with
      | None -> acc
      | Some s -> up (link_of_span s :: acc) (guard - 1) s.Obs.Trace.sp_parent
  in
  up [] (List.length (Obs.Trace.spans obs) + 1) birth_span

let span_name obs id =
  match Obs.Trace.span_of_id obs id with
  | Some s -> s.Obs.Trace.sp_name
  | None -> ""

(* the lifecycle events a fan-out tree is built from *)
let node_of_record obs (r : Obs.record) =
  let mk kind ?(pid = 0) ?(addr = -1) ?(len = 0) ?(origin = "") () =
    Some
      { fn_seq = r.Obs.seq;
        fn_tick = r.Obs.tick;
        fn_kind = kind;
        fn_pid = pid;
        fn_addr = addr;
        fn_len = len;
        fn_origin = origin;
        fn_span = r.Obs.span;
        fn_span_name = span_name obs r.Obs.span;
        fn_verdict = None
      }
  in
  match r.Obs.event with
  | Obs.Copy_created { origin; pid; addr; len } ->
    mk "copy_created" ~pid ~addr ~len ~origin:(Obs.origin_name origin) ()
  | Obs.Copy_zeroed { origin; pid; addr; len } ->
    mk "copy_zeroed" ~pid ~addr ~len ~origin:(Obs.origin_name origin) ()
  | Obs.Copy_freed_dirty { origin; pid; addr; len } ->
    mk "copy_freed_dirty" ~pid ~addr ~len ~origin:(Obs.origin_name origin) ()
  | Obs.Cow_fault { pid; dst_pfn; _ } -> mk "cow_fault" ~pid ~addr:(-1) ~len:dst_pfn ()
  | Obs.Swap_out { pid; slot; _ } -> mk "swap_out" ~pid ~addr:(-1) ~len:slot ()
  | Obs.Swap_in { pid; slot; _ } -> mk "swap_in" ~pid ~addr:(-1) ~len:slot ()
  | Obs.Page_cache_insert { pfn; _ } -> mk "page_cache_insert" ~addr:(-1) ~len:pfn ()
  | Obs.Page_cache_evict { pfn; cleared; _ } ->
    mk (if cleared then "page_cache_evict_clean" else "page_cache_evict_dirty")
      ~addr:(-1) ~len:pfn ()
  | Obs.Exposure_breach { origin; pid; addr; len; _ } ->
    mk "exposure_breach" ~pid ~addr ~len ~origin:(Obs.origin_name origin) ()
  | _ -> None

(* zeroed-or-still-live: did a later zeroing event cover the copy, and if
   not, does a same-trace provenance interval still cover its address? *)
let judge obs ~trace records (n : fan_node) =
  if n.fn_kind <> "copy_created" then { n with fn_verdict = None }
  else
    let zeroed =
      List.exists
        (fun (r : Obs.record) ->
          r.Obs.seq > n.fn_seq
          &&
          match r.Obs.event with
          | Obs.Copy_zeroed { addr; len; _ } ->
            addr < n.fn_addr + n.fn_len && n.fn_addr < addr + len
          | _ -> false)
        records
    in
    let verdict =
      if zeroed then Zeroed
      else
        match Obs.Provenance.lookup obs ~addr:n.fn_addr with
        | Some info when info.Obs.Provenance.birth_trace = trace -> Still_live
        | _ -> Recycled
    in
    { n with fn_verdict = Some verdict }

(* The latest [Copy_created] at or before [tick] covering [addr].  The
   registry only knows the {e current} resident of an address, so a copy
   made after the queried snapshot would shadow the one the scanner
   actually saw; the ring remembers who lived there at [tick]. *)
let birth_record obs ~tick ~addr =
  List.fold_left
    (fun best (r : Obs.record) ->
      match r.Obs.event with
      | Obs.Copy_created { addr = a; len; _ }
        when r.Obs.tick <= tick && a <= addr && addr < a + len -> Some r
      | _ -> best)
    None (Obs.Trace.records obs)

let of_addr obs ~tick ~label ~addr =
  let trace, birth_span, origin, birth_tick =
    match birth_record obs ~tick ~addr with
    | Some ({ Obs.event = Obs.Copy_created { origin; _ }; _ } as r) ->
      (r.Obs.trace, r.Obs.span, Obs.origin_name origin, r.Obs.tick)
    | _ -> (
      (* ring evicted (or provenance registered outside the ring): fall
         back to the registry, but only if its interval predates [tick] *)
      match Obs.Provenance.lookup obs ~addr with
      | Some i when i.Obs.Provenance.birth_tick <= tick ->
        ( i.Obs.Provenance.birth_trace,
          i.Obs.Provenance.birth_span,
          Obs.origin_name i.Obs.Provenance.origin,
          i.Obs.Provenance.birth_tick )
      | _ -> (0, 0, "", -1))
  in
  let chain = chain_of obs ~birth_span in
  let request, request_pid =
    match Obs.Trace.root_of_trace obs trace with
    | Some root -> (root.Obs.Trace.sp_name, root.Obs.Trace.sp_pid)
    | None -> ("untraced", 0)
  in
  let records = Obs.Trace.records obs in
  let fanout =
    if trace = 0 then []
    else
      List.filter_map
        (fun (r : Obs.record) -> if r.Obs.trace = trace then node_of_record obs r else None)
        records
      |> List.map (judge obs ~trace records)
  in
  let live =
    if trace = 0 then []
    else
      List.filter_map
        (fun (a, l, (i : Obs.Provenance.info)) ->
          if i.Obs.Provenance.birth_trace = trace then
            Some (a, l, Obs.origin_name i.Obs.Provenance.origin)
          else None)
        (Obs.Provenance.intervals obs)
  in
  let budget =
    match List.assoc_opt trace (Obs.Trace.leak_budget obs) with Some b -> b | None -> 0
  in
  { f_tick = tick;
    f_label = label;
    f_addr = addr;
    f_origin = origin;
    f_birth_tick = birth_tick;
    f_trace = trace;
    f_request = request;
    f_request_pid = request_pid;
    f_chain = chain;
    f_fanout = fanout;
    f_live = live;
    f_leak_budget = budget
  }

let of_snapshot obs (snap : Report.snapshot) ~hit =
  if hit < 0 then None
  else
    Option.map
      (fun (h : Scanner.hit) ->
        of_addr obs ~tick:snap.Report.time ~label:h.Scanner.label ~addr:h.Scanner.addr)
      (List.nth_opt snap.Report.hits hit)

(* Exposure breaches recorded in the ring, oldest first *)
let breaches obs =
  List.filter
    (fun (r : Obs.record) ->
      match r.Obs.event with Obs.Exposure_breach _ -> true | _ -> false)
    (Obs.Trace.records obs)

let of_breach obs (r : Obs.record) =
  match r.Obs.event with
  | Obs.Exposure_breach { origin; addr; _ } ->
    Some (of_addr obs ~tick:r.Obs.tick ~label:("breach:" ^ Obs.origin_name origin) ~addr)
  | _ -> None

(* ---- per-request leak-budget table (shared by Dashboard and Fleet) ---- *)

type budget_row = {
  br_trace : int;
  br_request : string;  (* root span name; "untraced" for trace 0 *)
  br_pid : int;
  br_start_tick : int;  (* root span start; -1 for the untraced bucket *)
  br_byte_ticks : int;
}

let budget_table obs =
  List.map
    (fun (trace, byte_ticks) ->
      match Obs.Trace.root_of_trace obs trace with
      | Some root ->
        { br_trace = trace;
          br_request = root.Obs.Trace.sp_name;
          br_pid = root.Obs.Trace.sp_pid;
          br_start_tick = root.Obs.Trace.sp_start_tick;
          br_byte_ticks = byte_ticks
        }
      | None ->
        { br_trace = trace; br_request = "untraced"; br_pid = 0; br_start_tick = -1;
          br_byte_ticks = byte_ticks })
    (Obs.Trace.leak_budget obs)

(* ---- rendering ---- *)

let link_json l =
  Printf.sprintf
    "{\"span\":%d,\"parent\":%d,\"name\":\"%s\",\"pid\":%d,\"start_tick\":%d,\"end_tick\":%d}"
    l.lk_span l.lk_parent (Obs.json_escape l.lk_name) l.lk_pid l.lk_start_tick l.lk_end_tick

let fan_json n =
  Printf.sprintf
    "{\"seq\":%d,\"tick\":%d,\"kind\":\"%s\",\"pid\":%d,\"addr\":%d,\"len\":%d,\"origin\":\"%s\",\"span\":%d,\"span_name\":\"%s\",\"verdict\":\"%s\"}"
    n.fn_seq n.fn_tick (Obs.json_escape n.fn_kind) n.fn_pid n.fn_addr n.fn_len
    (Obs.json_escape n.fn_origin) n.fn_span (Obs.json_escape n.fn_span_name)
    (match n.fn_verdict with Some v -> verdict_name v | None -> "")

let to_json t =
  let chain = String.concat "," (List.map link_json t.f_chain) in
  let fanout = String.concat "," (List.map fan_json t.f_fanout) in
  let live =
    String.concat ","
      (List.map
         (fun (a, l, o) -> Printf.sprintf "{\"addr\":%d,\"len\":%d,\"origin\":\"%s\"}" a l
             (Obs.json_escape o))
         t.f_live)
  in
  Printf.sprintf
    "{\"tick\":%d,\"label\":\"%s\",\"addr\":%d,\"origin\":\"%s\",\"birth_tick\":%d,\"trace\":%d,\"request\":\"%s\",\"request_pid\":%d,\"chain\":[%s],\"fanout\":[%s],\"live\":[%s],\"leak_budget_byte_ticks\":%d}"
    t.f_tick (Obs.json_escape t.f_label) t.f_addr (Obs.json_escape t.f_origin)
    t.f_birth_tick t.f_trace (Obs.json_escape t.f_request) t.f_request_pid chain fanout live
    t.f_leak_budget

let pp ppf t =
  let open Format in
  fprintf ppf "forensics: hit %S at addr %d (tick %d)@," t.f_label t.f_addr t.f_tick;
  (if t.f_origin = "" then fprintf ppf "  origin: unknown (no provenance interval)@,"
   else
     fprintf ppf "  origin: %s, born tick %d (age %d)@," t.f_origin t.f_birth_tick
       (t.f_tick - t.f_birth_tick));
  if t.f_trace = 0 then fprintf ppf "  untraced: no causal trace covers this copy@,"
  else begin
    fprintf ppf "  trace %d — request %s (pid %d)@," t.f_trace t.f_request t.f_request_pid;
    fprintf ppf "  causal chain:@,";
    List.iteri
      (fun i l ->
        fprintf ppf "    %s#%d %s (pid %d) [t%d..%s]@,"
          (String.make (2 * i) ' ') l.lk_span l.lk_name l.lk_pid l.lk_start_tick
          (if l.lk_end_tick < 0 then "open" else Printf.sprintf "t%d" l.lk_end_tick))
      t.f_chain;
    fprintf ppf "  copy fan-out (%d events):@," (List.length t.f_fanout);
    List.iter
      (fun n ->
        fprintf ppf "    seq %d t%d %-22s pid %d%s%s in #%d %s%s@," n.fn_seq n.fn_tick
          n.fn_kind n.fn_pid
          (if n.fn_addr >= 0 then Printf.sprintf " addr %d len %d" n.fn_addr n.fn_len else "")
          (if n.fn_origin = "" then "" else " " ^ n.fn_origin)
          n.fn_span n.fn_span_name
          (match n.fn_verdict with
           | Some v -> " — " ^ verdict_name v
           | None -> ""))
      t.f_fanout;
    fprintf ppf "  still live: %d interval(s)@," (List.length t.f_live);
    List.iter (fun (a, l, o) -> fprintf ppf "    addr %d len %d %s@," a l o) t.f_live;
    fprintf ppf "  leak budget: %d byte·ticks@," t.f_leak_budget
  end

let to_string t =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "@[<v>%a@]@." pp t;
  Buffer.contents b

let html_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_html t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>memguard forensics</title>";
  add
    "<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}td,th{border:1px \
     solid #999;padding:2px 8px;text-align:left}.zeroed{color:#2a7}.still_live{color:#c33}.recycled{color:#d80}</style>";
  add "</head><body><h1>forensics: hit %s at addr %d (tick %d)</h1>" (html_escape t.f_label)
    t.f_addr t.f_tick;
  add "<p>origin: <b>%s</b>, born tick %d — trace <b>%d</b>, request <b>%s</b> (pid %d), leak \
       budget <b>%d</b> byte&middot;ticks</p>"
    (html_escape (if t.f_origin = "" then "unknown" else t.f_origin))
    t.f_birth_tick t.f_trace (html_escape t.f_request) t.f_request_pid t.f_leak_budget;
  add "<h2>causal chain</h2><ul>";
  List.iter
    (fun l -> add "<li>#%d %s (pid %d) t%d..%d</li>" l.lk_span (html_escape l.lk_name) l.lk_pid
        l.lk_start_tick l.lk_end_tick)
    t.f_chain;
  add "</ul><h2>copy fan-out</h2><table><tr><th>seq</th><th>tick</th><th>event</th><th>pid</th>\
       <th>addr</th><th>len</th><th>origin</th><th>span</th><th>verdict</th></tr>";
  List.iter
    (fun n ->
      let v = match n.fn_verdict with Some v -> verdict_name v | None -> "" in
      add "<tr><td>%d</td><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td>\
           <td>#%d %s</td><td class=\"%s\">%s</td></tr>"
        n.fn_seq n.fn_tick (html_escape n.fn_kind) n.fn_pid n.fn_addr n.fn_len
        (html_escape n.fn_origin) n.fn_span (html_escape n.fn_span_name) v v)
    t.f_fanout;
  add "</table><h2>still-live intervals</h2><table><tr><th>addr</th><th>len</th><th>origin</th></tr>";
  List.iter
    (fun (a, l, o) -> add "<tr><td>%d</td><td>%d</td><td>%s</td></tr>" a l (html_escape o))
    t.f_live;
  add "</table></body></html>";
  Buffer.contents b
