type origin =
  | Pem_buffer
  | Der_temp
  | Bn_limbs
  | Mont_cache
  | Page_cache
  | Swap
  | Heap_copy
  | Bn_temp

let all_origins =
  [ Pem_buffer; Der_temp; Bn_limbs; Mont_cache; Page_cache; Swap; Heap_copy; Bn_temp ]

let origin_name = function
  | Pem_buffer -> "pem_buffer"
  | Der_temp -> "der_temp"
  | Bn_limbs -> "bn_limbs"
  | Mont_cache -> "mont_cache"
  | Page_cache -> "page_cache"
  | Swap -> "swap"
  | Heap_copy -> "heap_copy"
  | Bn_temp -> "bn_temp"

(* BN_CTX temporaries hold reduced CRT intermediates, not key parts: they
   are tracked (the scanner cannot tell the difference) but excluded from
   the breach SLO and the confinement accounting. *)
let origin_sensitive = function Bn_temp -> false | _ -> true

type mem_class =
  | Mlocked_anon
  | Plain_anon
  | Cached
  | Kernel_buf
  | Free_ram
  | Swapped

let all_classes = [ Mlocked_anon; Plain_anon; Cached; Kernel_buf; Free_ram; Swapped ]

let class_name = function
  | Mlocked_anon -> "mlocked_anon"
  | Plain_anon -> "plain_anon"
  | Cached -> "page_cache"
  | Kernel_buf -> "kernel_buf"
  | Free_ram -> "free_ram"
  | Swapped -> "swap"

type event =
  | Copy_created of { origin : origin; pid : int; addr : int; len : int }
  | Copy_zeroed of { origin : origin; pid : int; addr : int; len : int }
  | Copy_freed_dirty of { origin : origin; pid : int; addr : int; len : int }
  | Cow_fault of { pid : int; src_pfn : int; dst_pfn : int }
  | Page_cache_insert of { ino : int; index : int; pfn : int }
  | Page_cache_evict of { ino : int; index : int; pfn : int; cleared : bool }
  | Swap_out of { pid : int; slot : int; pfn : int }
  | Swap_in of { pid : int; slot : int; pfn : int }
  | Scan_started of { mode : string }
  | Scan_finished of { mode : string; hits : int; pages_scanned : int }
  | Audit_violation of { check : string; detail : string }
  | Exposure_breach of {
      origin : origin;
      cls : mem_class;
      pid : int;
      addr : int;
      len : int;
      age : int;
    }
  | Alert_fired of { rule : string; series : string; value : float }

(* every ring record carries the causal trace/span active when it was
   emitted (0 = untraced), so scanner hits, breaches and alert firings
   can be joined back to the request that caused them *)
type record = { seq : int; tick : int; event : event; trace : int; span : int }

(* Floats in exports print as integers when they are integral: series
   values are mostly exact counts, and the fixed form keeps canonical
   JSON (and thus fleet fingerprints) byte-stable.  NaN and the
   infinities have no JSON representation at all — "%.6g" would emit
   "nan"/"inf" and silently corrupt every archive downstream — so they
   print as null, which parsers round-trip back to NaN. *)
let float_json f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(* JSON string escaping for every export.  Printf's %S is OCaml lexing —
   decimal \ddd escapes, which JSON parsers reject — so it must never
   render a JSON string. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* a quoted JSON string *)
let json_str s = "\"" ^ json_escape s ^ "\""

(* The one-entry-per-line layout shared by the exports: "[\n a,\n b\n]"
   ("[\n]" when empty), and likewise for objects with "key": value
   entries. *)
let json_lines opn cls entries =
  opn ^ String.concat "," (List.map (fun e -> "\n " ^ e) entries) ^ "\n" ^ cls

let json_array = json_lines "[" "]"
let json_object kvs = json_lines "{" "}" (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs)

(* Chrome trace_event complete event ("ph":"X"); [args] is the rendered
   body of its args object. *)
let chrome_complete ~name ~ts ~dur ~pid ~tid args =
  Printf.sprintf
    "{\"name\":%s,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
    (json_str name) ts dur pid tid args

(* [birth_trace]/[birth_span] name the request-scoped causal span that
   created the copy; clones made by blit/stash/restore inherit them, so
   the whole fan-out of a key attributes to the originating request *)
type info = {
  origin : origin;
  pid : int;
  birth_tick : int;
  birth_trace : int;
  birth_span : int;
}

type interval = { start : int; ilen : int; info : info }

(* ---- causal trace spans (see Trace below) ---- *)

(* Request-scoped causal spans are separate from the profiler's span tree:
   the profiler aggregates *where cycles go* per call path, while a trace
   span records *which request caused which operation* — a tree keyed by
   deterministic per-ctx ids, exportable as an OTel-style span list. *)
type tspan = {
  ts_trace : int;  (* owning trace id; the root span's id names the trace *)
  ts_span : int;
  ts_parent : int;  (* 0 for a trace root *)
  ts_name : string;
  ts_pid : int;
  ts_start_tick : int;
  ts_start_cycles : int;
  mutable ts_end_tick : int;  (* -1 while open *)
  mutable ts_end_cycles : int;
}

(* the machine's frame classifier plus the change counters that let the
   exposure ledger memoize its answers (see [Exposure.set_classifier]) *)
type classifier = {
  classify : addr:int -> mem_class;
  gran : int;  (* frame size: classification granularity *)
  epoch : unit -> int;
  frame_gen : pfn:int -> int;
}

(* one frame-bounded slice of a provenance interval, as the exposure
   ledger integrates it; [ccls]/[cgen] cache the classification and the
   frame's class generation at the time it was computed *)
type exp_chunk = {
  caddr : int;
  clen : int;
  cinfo : info;
  mutable ccls : mem_class;
  mutable cgen : int;
}

(* ---- simulated-cycle cost model (see Cost below) ---- *)

type cost_op =
  | Byte_copied
  | Byte_zeroed
  | Page_fault
  | Cow_break
  | Swap_out_page
  | Swap_in_page
  | Page_cache_hit
  | Page_cache_miss
  | Disk_read_byte
  | Mont_word_mul
  | Ct_limb_op
  | Scan_byte

type cost_model = {
  byte_copied : int;
  byte_zeroed : int;
  page_fault : int;
  cow_break : int;
  swap_out_page : int;
  swap_in_page : int;
  page_cache_hit : int;
  page_cache_miss : int;
  disk_read_byte : int;
  mont_word_mul : int;
  ct_limb_op : int;
  scan_byte : int;
}

(* ---- per-tick metric time series (see Timeseries below) ---- *)

type series_kind = Gauge | Counter

(* A fixed-capacity series: retained points live oldest-first in the
   [s_ticks]/[s_vals] prefix of length [s_len].  When the buffer fills,
   every other point is dropped and the acceptance stride doubles, so a
   long run ages into a coarser — but still full-span — history.
   [s_last_*]/[s_prev_*] always track the newest two *offered* samples
   (independent of retention) and [s_min]/[s_max] the all-time envelope,
   so rate and spread predicates never lose resolution to downsampling. *)
type series = {
  s_name : string;
  s_kind : series_kind;
  s_source : string option;  (* [Some src]: per-tick rate derived from [src] *)
  s_cap : int;
  s_ticks : int array;
  s_vals : float array;
  mutable s_len : int;
  mutable s_stride : int;
  mutable s_seen : int;
  mutable s_last_tick : int;
  mutable s_last_val : float;
  mutable s_prev_tick : int;
  mutable s_prev_val : float;
  mutable s_min : float;
  mutable s_max : float;
}

(* ---- declarative alert rules (see Alert below) ---- *)

type alert_cmp = Gt | Ge | Lt | Le

type alert_condition =
  | Threshold of { cmp : alert_cmp; value : float; for_ticks : int }
  | Rate of { cmp : alert_cmp; per_tick : float }
  | Window_spread of { window : int; min_spread : float }

type alert_rule = {
  a_name : string;
  a_series : string;
  a_cond : alert_condition;
  mutable a_held : int;
  mutable a_active : bool;
  mutable a_fired : int;
}

type firing = { f_tick : int; f_rule : string; f_series : string; f_value : float }

(* ---- hierarchical span profiler (see Profiler below) ---- *)

type span_node = {
  span_name : string;
  mutable calls : int;
  mutable self_cycles : int;
  children_ : (string, span_node) Hashtbl.t;
}

type span_frame = {
  node_ : span_node;
  fpid : int;
  start_cycles : int;
  fdepth : int;
  fseq : int;
}

type span = {
  sname : string;
  spid : int;
  sstart : int;  (* cycle clock at enter *)
  send : int;  (* cycle clock at exit *)
  sdepth : int;
  sseq : int;
}

let make_span_root () =
  { span_name = "machine"; calls = 0; self_cycles = 0; children_ = Hashtbl.create 8 }

type ctx = {
  enabled_ : bool;
  capacity : int;
  ring : record option array;
  mutable next_seq : int;
  mutable tick_ : int;
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, float list ref) Hashtbl.t;
  mutable intervals : interval list;
  stashes : (int, (int * int * info) list) Hashtbl.t;
  (* exposure ledger *)
  mutable classifier : classifier option;
  mutable prov_epoch : int;  (* bumped on any interval/stash change *)
  (* advance memo: the frame-split chunk list of the last advance, valid
     while [prov_epoch] is unchanged; chunk classifications revalidate
     against the machine's class-generation counters *)
  mutable memo_chunks : exp_chunk array;
  mutable memo_stash : (int * int * int * info) array;  (* slot, off, len *)
  mutable memo_prov_epoch : int;  (* -1 = memo invalid *)
  mutable memo_class_epoch : int;
  exposure : (origin * mem_class, int ref) Hashtbl.t;
  mutable exposure_series : (int * ((origin * mem_class) * int) list) list;
      (* newest first *)
  mutable last_advance_ : int;
  lifetimes_ : (origin, int list ref) Hashtbl.t;
  mutable breach_age_ : int option;
  (* cost accounting & profiler *)
  mutable cycles_ : int;
  cost_by_op : (cost_op, int ref * int ref) Hashtbl.t;  (* op -> count, cycles *)
  cost_by_sub : (string, int ref) Hashtbl.t;
  cost_by_origin : (origin, int ref) Hashtbl.t;
  prof_root_ : span_node;
  mutable prof_stack_ : span_frame list;  (* innermost first *)
  mutable spans_ : span list;  (* completed, newest first *)
  mutable span_seq_ : int;
  (* time series & alerts *)
  series_ : (string, series) Hashtbl.t;
  mutable derived_ : (string * string) list;  (* (source, derived name) *)
  mutable rules_ : alert_rule list;  (* install order *)
  mutable firings_ : firing list;  (* newest first *)
  (* causal tracing: ids come from per-ctx counters (never the wall clock
     or any RNG), so trace exports and fleet fingerprints stay
     byte-identical across runs and domain counts *)
  mutable trace_next_ : int;  (* next trace id; 0 means "untraced" *)
  mutable span_next_ : int;  (* next causal span id; 0 means "no span" *)
  mutable tstack_ : tspan list;  (* open causal spans, innermost first *)
  mutable tspans_ : tspan list;  (* completed causal spans, newest first *)
  trace_leak_ : (int, int ref) Hashtbl.t;
      (* trace -> sensitive byte-ticks outside mlocked-anon (the
         per-request leak budget; key 0 holds untraced exposure) *)
}

(* One simulated cycle is one byte moved by the CPU; everything else is
   expressed relative to that.  Faults and device operations carry large
   fixed costs (trap entry, handler, request setup), disk bytes are an
   order of magnitude slower than RAM bytes, and a Montgomery word
   multiply covers the multiply-accumulate plus its share of the carry
   chain.  The absolute numbers matter less than their ratios: the model
   is deterministic, so totals are exact and comparable across runs. *)
let default_cost_model =
  { byte_copied = 1;
    byte_zeroed = 1;
    page_fault = 500;
    cow_break = 800;
    swap_out_page = 2000;
    swap_in_page = 2000;
    page_cache_hit = 50;
    page_cache_miss = 300;
    disk_read_byte = 16;
    mont_word_mul = 4;
    (* limb traffic is a leakage witness, not extra work: the limbs a
       constant-time sweep touches are the same ones the word-mul price
       already covers, so charging it cycles would double-count.  The
       count still lands in by_op, and the telemetry sentinel watches
       the per-op series for secret-dependent spread. *)
    ct_limb_op = 0;
    scan_byte = 1
  }

let make ~enabled ~capacity =
  { enabled_ = enabled;
    capacity;
    ring = Array.make (max capacity 1) None;
    next_seq = 0;
    tick_ = 0;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    intervals = [];
    stashes = Hashtbl.create 8;
    classifier = None;
    prov_epoch = 0;
    memo_chunks = [||];
    memo_stash = [||];
    memo_prov_epoch = -1;
    memo_class_epoch = 0;
    exposure = Hashtbl.create 32;
    exposure_series = [];
    last_advance_ = 0;
    lifetimes_ = Hashtbl.create 8;
    breach_age_ = None;
    cycles_ = 0;
    cost_by_op = Hashtbl.create 16;
    cost_by_sub = Hashtbl.create 8;
    cost_by_origin = Hashtbl.create 8;
    prof_root_ = make_span_root ();
    prof_stack_ = [];
    spans_ = [];
    span_seq_ = 0;
    series_ = Hashtbl.create 32;
    derived_ = [];
    rules_ = [];
    firings_ = [];
    trace_next_ = 1;
    span_next_ = 1;
    tstack_ = [];
    tspans_ = [];
    trace_leak_ = Hashtbl.create 16
  }

let null = make ~enabled:false ~capacity:0

let create ?(ring_capacity = 65536) () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity must be positive";
  make ~enabled:true ~capacity:ring_capacity

let enabled ctx = ctx.enabled_
let set_tick ctx t = if ctx.enabled_ then ctx.tick_ <- t
let tick ctx = ctx.tick_

(* ---- trace ---- *)

module Trace = struct
  (* ---- causal span context ---- *)

  let current_trace ctx = match ctx.tstack_ with s :: _ -> s.ts_trace | [] -> 0
  let current_span ctx = match ctx.tstack_ with s :: _ -> s.ts_span | [] -> 0
  let active ctx = ctx.tstack_ <> []

  (* Open a causal span.  With no [?trace] and no span already open, a
     fresh trace is minted and this span becomes its root; otherwise the
     span joins the given (or enclosing) trace.  [?parent] lets a caller
     re-enter a trace whose root closed earlier (an sshd/apache connection
     spans several calls): pass the connection's root span id.  Returns
     the span id, 0 when observability is off. *)
  let begin_span ?(pid = 0) ?trace ?parent ctx name =
    if not ctx.enabled_ then 0
    else begin
      let parent_span =
        match parent with Some p -> p | None -> current_span ctx
      in
      let trace_id =
        match trace with
        | Some t -> t
        | None -> (
          match ctx.tstack_ with
          | s :: _ -> s.ts_trace
          | [] ->
            let t = ctx.trace_next_ in
            ctx.trace_next_ <- t + 1;
            t)
      in
      let span = ctx.span_next_ in
      ctx.span_next_ <- span + 1;
      ctx.tstack_ <-
        { ts_trace = trace_id;
          ts_span = span;
          ts_parent = parent_span;
          ts_name = name;
          ts_pid = pid;
          ts_start_tick = ctx.tick_;
          ts_start_cycles = ctx.cycles_;
          ts_end_tick = -1;
          ts_end_cycles = -1
        }
        :: ctx.tstack_;
      span
    end

  let end_span ctx span =
    if ctx.enabled_ && span <> 0
       && List.exists (fun s -> s.ts_span = span) ctx.tstack_
    then begin
      (* close down to and including [span]: an escaping exception may
         leave inner spans open, and they belong to the closing scope *)
      let rec pop = function
        | [] -> []
        | s :: rest ->
          s.ts_end_tick <- ctx.tick_;
          s.ts_end_cycles <- ctx.cycles_;
          ctx.tspans_ <- s :: ctx.tspans_;
          if s.ts_span = span then rest else pop rest
      in
      ctx.tstack_ <- pop ctx.tstack_
    end

  let with_span ?pid ?trace ?parent ctx name f =
    if not ctx.enabled_ then f ()
    else begin
      let s = begin_span ?pid ?trace ?parent ctx name in
      Fun.protect ~finally:(fun () -> end_span ctx s) f
    end

  (* Record a causal child span only when a request trace is already
     active.  Kernel paths call this on every operation; untraced work
     (boot noise, background churn, scans) must not mint spurious traces
     or flood the span list. *)
  let causal ?pid ctx name f =
    if ctx.enabled_ && ctx.tstack_ <> [] then with_span ?pid ctx name f else f ()

  type span_info = {
    sp_trace : int;
    sp_id : int;
    sp_parent : int;
    sp_name : string;
    sp_pid : int;
    sp_start_tick : int;
    sp_end_tick : int;
    sp_start_cycles : int;
    sp_end_cycles : int;
  }

  (* all causal spans, id order; still-open spans export with the current
     clock as their end so a mid-run export renders them *)
  let spans ctx =
    let conv (s : tspan) =
      { sp_trace = s.ts_trace;
        sp_id = s.ts_span;
        sp_parent = s.ts_parent;
        sp_name = s.ts_name;
        sp_pid = s.ts_pid;
        sp_start_tick = s.ts_start_tick;
        sp_end_tick = (if s.ts_end_tick < 0 then ctx.tick_ else s.ts_end_tick);
        sp_start_cycles = s.ts_start_cycles;
        sp_end_cycles = (if s.ts_end_cycles < 0 then ctx.cycles_ else s.ts_end_cycles)
      }
    in
    List.map conv (ctx.tstack_ @ ctx.tspans_)
    |> List.sort (fun a b -> compare a.sp_id b.sp_id)

  let root_of_trace ctx trace =
    List.find_opt (fun s -> s.sp_trace = trace && s.sp_parent = 0) (spans ctx)

  let span_of_id ctx id = List.find_opt (fun s -> s.sp_id = id) (spans ctx)

  (* per-request leak budget: sensitive byte-ticks outside mlocked-anon,
     attributed to the trace whose span registered the copy.  Summing the
     budgets reproduces the exposure ledger's sensitive-unsafe total
     exactly — both are accumulated by the same [Exposure.advance] pass. *)
  let leak_budget ctx =
    Hashtbl.fold (fun t r acc -> (t, !r) :: acc) ctx.trace_leak_ []
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort compare

  (* ---- event ring ---- *)

  let emit ctx event =
    if ctx.enabled_ then begin
      let r =
        { seq = ctx.next_seq;
          tick = ctx.tick_;
          event;
          trace = current_trace ctx;
          span = current_span ctx
        }
      in
      ctx.ring.(ctx.next_seq mod ctx.capacity) <- Some r;
      ctx.next_seq <- ctx.next_seq + 1
    end

  let emitted ctx = ctx.next_seq
  let dropped ctx = max 0 (ctx.next_seq - ctx.capacity)

  let records ctx =
    let first = dropped ctx in
    let acc = ref [] in
    for seq = ctx.next_seq - 1 downto first do
      match ctx.ring.(seq mod ctx.capacity) with
      | Some r -> acc := r :: !acc
      | None -> ()
    done;
    !acc

  let fields_of_event = function
    | Copy_created { origin; pid; addr; len } ->
      ("copy_created",
       [ ("origin", `S (origin_name origin)); ("pid", `I pid); ("addr", `I addr);
         ("len", `I len) ])
    | Copy_zeroed { origin; pid; addr; len } ->
      ("copy_zeroed",
       [ ("origin", `S (origin_name origin)); ("pid", `I pid); ("addr", `I addr);
         ("len", `I len) ])
    | Copy_freed_dirty { origin; pid; addr; len } ->
      ("copy_freed_dirty",
       [ ("origin", `S (origin_name origin)); ("pid", `I pid); ("addr", `I addr);
         ("len", `I len) ])
    | Cow_fault { pid; src_pfn; dst_pfn } ->
      ("cow_fault", [ ("pid", `I pid); ("src_pfn", `I src_pfn); ("dst_pfn", `I dst_pfn) ])
    | Page_cache_insert { ino; index; pfn } ->
      ("page_cache_insert", [ ("ino", `I ino); ("index", `I index); ("pfn", `I pfn) ])
    | Page_cache_evict { ino; index; pfn; cleared } ->
      ("page_cache_evict",
       [ ("ino", `I ino); ("index", `I index); ("pfn", `I pfn); ("cleared", `B cleared) ])
    | Swap_out { pid; slot; pfn } ->
      ("swap_out", [ ("pid", `I pid); ("slot", `I slot); ("pfn", `I pfn) ])
    | Swap_in { pid; slot; pfn } ->
      ("swap_in", [ ("pid", `I pid); ("slot", `I slot); ("pfn", `I pfn) ])
    | Scan_started { mode } -> ("scan_started", [ ("mode", `S mode) ])
    | Scan_finished { mode; hits; pages_scanned } ->
      ("scan_finished",
       [ ("mode", `S mode); ("hits", `I hits); ("pages_scanned", `I pages_scanned) ])
    | Audit_violation { check; detail } ->
      ("audit_violation", [ ("check", `S check); ("detail", `S detail) ])
    | Exposure_breach { origin; cls; pid; addr; len; age } ->
      ("exposure_breach",
       [ ("origin", `S (origin_name origin)); ("class", `S (class_name cls));
         ("pid", `I pid); ("addr", `I addr); ("len", `I len); ("age", `I age) ])
    | Alert_fired { rule; series; value } ->
      ("alert_fired", [ ("rule", `S rule); ("series", `S series); ("value", `F value) ])

  let json_field (k, v) =
    match v with
    | `S s -> Printf.sprintf "%s:%s" (json_str k) (json_str s)
    | `I i -> Printf.sprintf "%s:%d" (json_str k) i
    | `B b -> Printf.sprintf "%s:%b" (json_str k) b
    | `F f -> Printf.sprintf "%s:%s" (json_str k) (float_json f)

  let jsonl_of_record r =
    let name, fields = fields_of_event r.event in
    String.concat ","
      (Printf.sprintf "{\"seq\":%d" r.seq
       :: Printf.sprintf "\"tick\":%d" r.tick
       :: Printf.sprintf "\"trace\":%d" r.trace
       :: Printf.sprintf "\"span\":%d" r.span
       :: Printf.sprintf "\"event\":%s" (json_str name)
       :: List.map json_field fields)
    ^ "}"

  let to_jsonl ctx =
    let buf = Buffer.create 4096 in
    List.iter
      (fun r ->
        Buffer.add_string buf (jsonl_of_record r);
        Buffer.add_char buf '\n')
      (records ctx);
    Buffer.contents buf

  (* OTel-style span list: one object per causal span, id order, with
     trace_id / span_id / parent_span_id and both clocks (ticks and
     simulated cycles).  Canonical JSON — safe to fingerprint. *)
  let spans_to_json ctx =
    json_array
      (List.map
         (fun s ->
           Printf.sprintf
             "{\"trace_id\":%d,\"span_id\":%d,\"parent_span_id\":%d,\"name\":%s,\"pid\":%d,\"start_tick\":%d,\"end_tick\":%d,\"start_cycles\":%d,\"end_cycles\":%d}"
             s.sp_trace s.sp_id s.sp_parent (json_str s.sp_name) s.sp_pid s.sp_start_tick
             s.sp_end_tick s.sp_start_cycles s.sp_end_cycles)
         (spans ctx))
    ^ "\n"

  (* Chrome-trace view of the causal spans on the simulated-cycle clock:
     each trace renders as its own process row (pid = trace id), so the
     kernel operations a request caused nest under that request's root
     span rather than under the simulated process that ran them. *)
  let spans_to_chrome ctx =
    let ss = spans ctx in
    json_array
      (List.filter_map
         (fun s ->
           if s.sp_parent <> 0 then None
           else
             Some
               (Printf.sprintf
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}"
                  s.sp_trace
                  (json_str (Printf.sprintf "trace %d: %s" s.sp_trace s.sp_name))))
         ss
      @ List.map
          (fun s ->
            chrome_complete ~name:s.sp_name ~ts:s.sp_start_cycles
              ~dur:(max 1 (s.sp_end_cycles - s.sp_start_cycles))
              ~pid:s.sp_trace ~tid:0
              (Printf.sprintf "\"span\":%d,\"parent\":%d,\"sim_pid\":%d,\"start_tick\":%d"
                 s.sp_id s.sp_parent s.sp_pid s.sp_start_tick))
          ss)
    ^ "\n"
end

(* ---- prometheus exposition helpers (shared by Metrics and Timeseries) ---- *)

let prom_name name =
  let b = Buffer.create (String.length name + 9) in
  Buffer.add_string b "memguard_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Label values per the exposition format: backslash, double quote and
   newline must be escaped inside the quoted string. *)
let prom_escape v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* extra labels render ahead of the series label, so a multi-level scrape
   (one page per protection level) keys every sample uniquely *)
let prom_labels labels =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"," k (prom_escape v)) labels)

(* ---- metrics ---- *)

module Metrics = struct
  let incr ?(by = 1) ctx name =
    if ctx.enabled_ then
      match Hashtbl.find_opt ctx.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace ctx.counters name (ref by)

  let observe ctx name v =
    if ctx.enabled_ then
      match Hashtbl.find_opt ctx.histograms name with
      | Some r -> r := v :: !r
      | None -> Hashtbl.replace ctx.histograms name (ref [ v ])

  let counter ctx name =
    match Hashtbl.find_opt ctx.counters name with Some r -> !r | None -> 0

  let counters ctx =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ctx.counters []
    |> List.sort compare

  let samples ctx name =
    match Hashtbl.find_opt ctx.histograms name with
    | Some r -> List.rev !r
    | None -> []

  let histograms ctx =
    Hashtbl.fold (fun k _ acc -> k :: acc) ctx.histograms [] |> List.sort compare

  let percentile values p =
    match values with
    | [] -> Float.nan
    | _ ->
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (min (n - 1) (max 0 (rank - 1)))

  let reset ctx =
    Hashtbl.reset ctx.counters;
    Hashtbl.reset ctx.histograms

  (* empty histograms have no percentiles: print "-" / emit null rather
     than NaN (which is invalid JSON) *)
  let pct_text vs p =
    match vs with [] -> "-" | _ -> Printf.sprintf "%.6f" (percentile vs p)

  let pct_json vs p =
    match vs with [] -> "null" | _ -> Printf.sprintf "%.6f" (percentile vs p)

  let dump fmt ctx =
    Format.fprintf fmt "%-36s %12s@." "counter" "value";
    List.iter (fun (k, v) -> Format.fprintf fmt "%-36s %12d@." k v) (counters ctx);
    match histograms ctx with
    | [] -> ()
    | hs ->
      Format.fprintf fmt "%-36s %8s %12s %12s %12s %12s@." "histogram" "count" "p50" "p90"
        "p99" "max";
      List.iter
        (fun name ->
          let vs = samples ctx name in
          Format.fprintf fmt "%-36s %8d %12s %12s %12s %12s@." name (List.length vs)
            (pct_text vs 50.) (pct_text vs 90.) (pct_text vs 99.) (pct_text vs 100.))
        hs

  (* bumped to 2 when [schema_version] itself was introduced *)
  let schema_version = 2

  let to_json ctx =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "{\n  \"schema_version\": %d," schema_version);
    Buffer.add_string buf "\n  \"counters\": {";
    List.iteri
      (fun i (k, v) ->
        Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
        Buffer.add_string buf (Printf.sprintf "%s: %d" (json_str k) v))
      (counters ctx);
    Buffer.add_string buf "\n  },\n  \"histograms\": {";
    List.iteri
      (fun i name ->
        let vs = samples ctx name in
        Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
        Buffer.add_string buf
          (Printf.sprintf
             "%s: {\"count\": %d, \"p50\": %s, \"p90\": %s, \"p99\": %s, \"max\": %s}"
             (json_str name) (List.length vs) (pct_json vs 50.) (pct_json vs 90.)
             (pct_json vs 99.) (pct_json vs 100.)))
      (histograms ctx);
    Buffer.add_string buf "\n  }\n}\n";
    Buffer.contents buf

  (* Fixed decade bucket ladder for the _bucket exposition below: span
     durations are simulated cycles, which range from a few hundred (a
     cache probe) to hundreds of millions (a full timeline), so powers of
     ten cover every span name with one shared, deterministic ladder. *)
  let bucket_bounds = [ 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]

  (* Prometheus text exposition of every histogram as cumulative _bucket
     lines plus _sum and _count, timestamped with the simulation tick —
     the standard histogram triple, so span-duration distributions (fed
     per span name by [Profiler.exit]) graph directly in Grafana. *)
  let to_prometheus ?(labels = []) ctx =
    let pre = prom_labels labels in
    let buf = Buffer.create 1024 in
    List.iter
      (fun name ->
        let vs = samples ctx name in
        if vs <> [] then begin
          let pn = prom_name name in
          let esc = prom_escape name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" pn);
          List.iter
            (fun le ->
              let n = List.length (List.filter (fun v -> v <= le) vs) in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{%sseries=\"%s\",le=\"%s\"} %d %d\n" pn pre esc
                   (float_json le) n ctx.tick_))
            bucket_bounds;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{%sseries=\"%s\",le=\"+Inf\"} %d %d\n" pn pre esc
               (List.length vs) ctx.tick_);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum{%sseries=\"%s\"} %s %d\n" pn pre esc
               (float_json (List.fold_left ( +. ) 0. vs))
               ctx.tick_);
          Buffer.add_string buf
            (Printf.sprintf "%s_count{%sseries=\"%s\"} %d %d\n" pn pre esc (List.length vs)
               ctx.tick_)
        end)
      (histograms ctx);
    Buffer.contents buf
end

(* ---- provenance ---- *)

module Provenance = struct
  type nonrec info = info = {
    origin : origin;
    pid : int;
    birth_tick : int;
    birth_trace : int;
    birth_span : int;
  }

  (* birth-to-zeroed lifetime histogram, fed by [clear] *)
  let record_lifetime ctx (info : info) =
    let age = ctx.tick_ - info.birth_tick in
    match Hashtbl.find_opt ctx.lifetimes_ info.origin with
    | Some r -> r := age :: !r
    | None -> Hashtbl.replace ctx.lifetimes_ info.origin (ref [ age ])

  let clear ctx ~addr ~len =
    if ctx.enabled_ && len > 0 then begin
      let e = addr + len in
      (* fast path: most clears come from [Kernel.write_mem] over ranges
         holding no key material — an allocation-free overlap test skips
         the full list rebuild (and the memo invalidation) for them *)
      if List.exists (fun iv -> iv.start < e && iv.start + iv.ilen > addr) ctx.intervals
      then begin
        ctx.intervals <-
          List.concat_map
            (fun iv ->
              let s = iv.start and ie = iv.start + iv.ilen in
              if ie <= addr || s >= e then [ iv ]
              else begin
                record_lifetime ctx iv.info;
                (if s < addr then [ { iv with ilen = addr - s } ] else [])
                @ (if ie > e then [ { start = e; ilen = ie - e; info = iv.info } ] else [])
              end)
            ctx.intervals;
        ctx.prov_epoch <- ctx.prov_epoch + 1
      end
    end

  let register ctx ~origin ~pid ~addr ~len =
    if ctx.enabled_ && len > 0 then begin
      clear ctx ~addr ~len;
      ctx.intervals <-
        { start = addr;
          ilen = len;
          info =
            { origin;
              pid;
              birth_tick = ctx.tick_;
              birth_trace = Trace.current_trace ctx;
              birth_span = Trace.current_span ctx
            }
        }
        :: ctx.intervals;
      ctx.prov_epoch <- ctx.prov_epoch + 1
    end

  let overlaps ctx ~addr ~len =
    let e = addr + len in
    List.filter_map
      (fun iv ->
        let s = max iv.start addr and ie = min (iv.start + iv.ilen) e in
        if ie > s then Some (s - addr, ie - s, iv.info) else None)
      ctx.intervals

  let blit ctx ~src ~dst ~len =
    if ctx.enabled_ && len > 0 then begin
      let clones =
        List.map
          (fun (off, l, info) -> { start = dst + off; ilen = l; info })
          (overlaps ctx ~addr:src ~len)
      in
      clear ctx ~addr:dst ~len;
      if clones <> [] then begin
        ctx.intervals <- clones @ ctx.intervals;
        ctx.prov_epoch <- ctx.prov_epoch + 1
      end
    end

  let stash ctx ~slot ~addr ~len =
    if ctx.enabled_ then begin
      Hashtbl.replace ctx.stashes slot (overlaps ctx ~addr ~len);
      ctx.prov_epoch <- ctx.prov_epoch + 1
    end

  let restore ctx ~slot ~addr ~len =
    if ctx.enabled_ then begin
      clear ctx ~addr ~len;
      (match Hashtbl.find_opt ctx.stashes slot with
       | Some entries ->
         ctx.intervals <-
           List.map (fun (off, l, info) -> { start = addr + off; ilen = l; info }) entries
           @ ctx.intervals
       | None -> ());
      Hashtbl.remove ctx.stashes slot;
      ctx.prov_epoch <- ctx.prov_epoch + 1
    end

  let lookup ctx ~addr =
    List.find_opt (fun iv -> iv.start <= addr && addr < iv.start + iv.ilen) ctx.intervals
    |> Option.map (fun iv -> iv.info)

  let count ctx = List.length ctx.intervals

  let intervals ctx =
    List.map (fun iv -> (iv.start, iv.ilen, iv.info)) ctx.intervals
    |> List.sort compare

  let stashed ctx =
    Hashtbl.fold (fun slot entries acc -> (slot, entries) :: acc) ctx.stashes []
    |> List.sort compare

  let covering ctx ~addr ~len =
    let per_origin = Hashtbl.create 4 in
    List.iter
      (fun (_, l, info) ->
        match Hashtbl.find_opt per_origin info.origin with
        | Some r -> r := !r + l
        | None -> Hashtbl.replace per_origin info.origin (ref l))
      (overlaps ctx ~addr ~len);
    Hashtbl.fold (fun o r acc -> (o, !r) :: acc) per_origin [] |> List.sort compare
end

(* ---- exposure ledger ---- *)

module Exposure = struct
  type nonrec mem_class = mem_class =
    | Mlocked_anon
    | Plain_anon
    | Cached
    | Kernel_buf
    | Free_ram
    | Swapped

  let set_classifier ctx ~page_size ~epoch ~frame_gen f =
    if ctx.enabled_ then begin
      ctx.classifier <- Some { classify = f; gran = page_size; epoch; frame_gen };
      ctx.memo_prov_epoch <- -1
    end

  let set_breach_age ctx age =
    if ctx.enabled_ then ctx.breach_age_ <- age

  let breach_age ctx = ctx.breach_age_

  let total ctx ~origin ~cls =
    match Hashtbl.find_opt ctx.exposure (origin, cls) with Some r -> !r | None -> 0

  let totals ctx =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ctx.exposure []
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort compare

  let series ctx = List.rev ctx.exposure_series

  let last_advance ctx = ctx.last_advance_

  let lifetimes ctx origin =
    match Hashtbl.find_opt ctx.lifetimes_ origin with
    | Some r -> List.rev !r
    | None -> []

  (* Sample-and-hold integration: every live interval (and every stashed
     swap-slot image) contributes len * (t - last_advance) byte-ticks to
     its (origin, class) bucket, classified at advance time.  Intervals are
     split on frame boundaries because classification is per frame.  The
     ledger only reads simulated state — it never mutates it.

     The frame-split chunk list is memoized across ticks: it only changes
     when the provenance map changes ([prov_epoch]), and a chunk's cached
     classification only goes stale when its frame's descriptor changes
     ([frame_gen], wired to [Phys_mem.class_generation] by the kernel).
     On a quiet tick — no provenance churn, no class transitions — advance
     is a single epoch comparison plus a re-accumulation pass, with zero
     sorting and zero classifier calls.  Chunks are rebuilt in the same
     sorted order the direct computation used, so totals, series and
     breach-event emission order are bit-identical to the unmemoized
     ledger (test_exposure's shadow ledger checks this). *)
  let advance ctx t =
    match ctx.classifier with
    | None -> ()
    | Some { classify; gran; epoch; frame_gen } ->
      if ctx.enabled_ && t > ctx.last_advance_ then begin
        let dt = t - ctx.last_advance_ in
        let add origin cls bytes =
          let key = (origin, cls) in
          match Hashtbl.find_opt ctx.exposure key with
          | Some r -> r := !r + (bytes * dt)
          | None -> Hashtbl.replace ctx.exposure key (ref (bytes * dt))
        in
        (* per-request leak budget: the same sensitive-outside-mlock
           predicate the sensitive-unsafe headline uses, accumulated per
           originating trace in the same pass that feeds [add] — so the
           budgets sum to the ledger's sensitive byte-tick total exactly *)
        let leak (info : info) cls bytes =
          if origin_sensitive info.origin && cls <> Mlocked_anon then
            match Hashtbl.find_opt ctx.trace_leak_ info.birth_trace with
            | Some r -> r := !r + (bytes * dt)
            | None -> Hashtbl.replace ctx.trace_leak_ info.birth_trace (ref (bytes * dt))
        in
        let breach (info : info) cls addr len =
          match ctx.breach_age_ with
          | Some limit when origin_sensitive info.origin && cls <> Mlocked_anon ->
            let age = t - info.birth_tick in
            let prev_age = ctx.last_advance_ - info.birth_tick in
            if age >= limit && prev_age < limit then
              Trace.emit ctx
                (Exposure_breach
                   { origin = info.origin; cls; pid = info.pid; addr; len; age })
          | _ -> ()
        in
        if ctx.memo_prov_epoch <> ctx.prov_epoch then begin
          (* provenance changed: rebuild the chunk list from scratch *)
          let chunks = ref [] in
          List.iter
            (fun iv ->
              let e = iv.start + iv.ilen in
              let pos = ref iv.start in
              while !pos < e do
                let next = min e (((!pos / gran) + 1) * gran) in
                chunks :=
                  {
                    caddr = !pos;
                    clen = next - !pos;
                    cinfo = iv.info;
                    ccls = classify ~addr:!pos;
                    cgen = frame_gen ~pfn:(!pos / gran);
                  }
                  :: !chunks;
                pos := next
              done)
            (List.sort compare ctx.intervals);
          ctx.memo_chunks <- Array.of_list (List.rev !chunks);
          let st = ref [] in
          List.iter
            (fun (slot, entries) ->
              List.iter (fun (off, l, info) -> st := (slot, off, l, info) :: !st) entries)
            (Provenance.stashed ctx);
          ctx.memo_stash <- Array.of_list (List.rev !st);
          ctx.memo_prov_epoch <- ctx.prov_epoch;
          ctx.memo_class_epoch <- epoch ()
        end else begin
          (* provenance unchanged: revalidate cached classifications *)
          let now = epoch () in
          if now <> ctx.memo_class_epoch then begin
            (* some frame changed class: re-classify only moved frames *)
            Array.iter
              (fun c ->
                let g = frame_gen ~pfn:(c.caddr / gran) in
                if g <> c.cgen then begin
                  c.ccls <- classify ~addr:c.caddr;
                  c.cgen <- g
                end)
              ctx.memo_chunks;
            ctx.memo_class_epoch <- now
          end
        end;
        Array.iter
          (fun c ->
            add c.cinfo.origin c.ccls c.clen;
            leak c.cinfo c.ccls c.clen;
            breach c.cinfo c.ccls c.caddr c.clen)
          ctx.memo_chunks;
        Array.iter
          (fun (slot, off, l, info) ->
            add info.origin Swapped l;
            leak info Swapped l;
            breach info Swapped ((slot * gran) + off) l)
          ctx.memo_stash;
        ctx.last_advance_ <- t;
        ctx.exposure_series <- (t, totals ctx) :: ctx.exposure_series
      end
end

(* ---- simulated-cycle cost accounting ---- *)

module Cost = struct
  type op = cost_op =
    | Byte_copied
    | Byte_zeroed
    | Page_fault
    | Cow_break
    | Swap_out_page
    | Swap_in_page
    | Page_cache_hit
    | Page_cache_miss
    | Disk_read_byte
    | Mont_word_mul
    | Ct_limb_op
    | Scan_byte

  type model = cost_model = {
    byte_copied : int;
    byte_zeroed : int;
    page_fault : int;
    cow_break : int;
    swap_out_page : int;
    swap_in_page : int;
    page_cache_hit : int;
    page_cache_miss : int;
    disk_read_byte : int;
    mont_word_mul : int;
    ct_limb_op : int;
    scan_byte : int;
  }

  let all_ops =
    [ Byte_copied; Byte_zeroed; Page_fault; Cow_break; Swap_out_page; Swap_in_page;
      Page_cache_hit; Page_cache_miss; Disk_read_byte; Mont_word_mul; Ct_limb_op;
      Scan_byte ]

  let op_name = function
    | Byte_copied -> "byte_copied"
    | Byte_zeroed -> "byte_zeroed"
    | Page_fault -> "page_fault"
    | Cow_break -> "cow_break"
    | Swap_out_page -> "swap_out_page"
    | Swap_in_page -> "swap_in_page"
    | Page_cache_hit -> "page_cache_hit"
    | Page_cache_miss -> "page_cache_miss"
    | Disk_read_byte -> "disk_read_byte"
    | Mont_word_mul -> "mont_word_mul"
    | Ct_limb_op -> "ct_limb_op"
    | Scan_byte -> "scan_byte"

  let default_model = default_cost_model

  let cost m = function
    | Byte_copied -> m.byte_copied
    | Byte_zeroed -> m.byte_zeroed
    | Page_fault -> m.page_fault
    | Cow_break -> m.cow_break
    | Swap_out_page -> m.swap_out_page
    | Swap_in_page -> m.swap_in_page
    | Page_cache_hit -> m.page_cache_hit
    | Page_cache_miss -> m.page_cache_miss
    | Disk_read_byte -> m.disk_read_byte
    | Mont_word_mul -> m.mont_word_mul
    | Ct_limb_op -> m.ct_limb_op
    | Scan_byte -> m.scan_byte

  (* Charging only mutates observer-side state (the ctx and the span
     tree), never the simulated machine, so cost accounting cannot
     perturb RAM or frame descriptors: profiler-on runs stay
     byte-identical to profiler-off runs. *)
  let charge ctx ~sub ?origin op n =
    if ctx.enabled_ && n > 0 then begin
      let c = n * cost default_model op in
      ctx.cycles_ <- ctx.cycles_ + c;
      (match Hashtbl.find_opt ctx.cost_by_op op with
       | Some (cnt, cyc) ->
         cnt := !cnt + n;
         cyc := !cyc + c
       | None -> Hashtbl.replace ctx.cost_by_op op (ref n, ref c));
      (match Hashtbl.find_opt ctx.cost_by_sub sub with
       | Some r -> r := !r + c
       | None -> Hashtbl.replace ctx.cost_by_sub sub (ref c));
      (match origin with
       | None -> ()
       | Some o -> (
         match Hashtbl.find_opt ctx.cost_by_origin o with
         | Some r -> r := !r + c
         | None -> Hashtbl.replace ctx.cost_by_origin o (ref c)));
      let node =
        match ctx.prof_stack_ with
        | { node_; _ } :: _ -> node_
        | [] -> ctx.prof_root_
      in
      node.self_cycles <- node.self_cycles + c
    end

  let total_cycles ctx = ctx.cycles_

  let by_op ctx =
    List.filter_map
      (fun op ->
        match Hashtbl.find_opt ctx.cost_by_op op with
        | Some (cnt, cyc) -> Some (op, !cnt, !cyc)
        | None -> None)
      all_ops

  let by_subsystem ctx =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ctx.cost_by_sub []
    |> List.sort compare

  let by_origin ctx =
    Hashtbl.fold (fun o r acc -> (o, !r) :: acc) ctx.cost_by_origin []
    |> List.sort compare

  let reset ctx =
    ctx.cycles_ <- 0;
    Hashtbl.reset ctx.cost_by_op;
    Hashtbl.reset ctx.cost_by_sub;
    Hashtbl.reset ctx.cost_by_origin
end

(* ---- hierarchical span profiler ---- *)

module Profiler = struct
  type node = span_node

  let node_name (n : node) = n.span_name
  let node_calls (n : node) = n.calls
  let node_self_cycles (n : node) = n.self_cycles

  let node_children (n : node) =
    Hashtbl.fold (fun _ c acc -> c :: acc) n.children_ []
    |> List.sort (fun a b -> compare a.span_name b.span_name)

  let rec node_total_cycles (n : node) =
    Hashtbl.fold (fun _ c acc -> acc + node_total_cycles c) n.children_ n.self_cycles

  let root ctx = ctx.prof_root_
  let depth ctx = List.length ctx.prof_stack_

  let enter ?(pid = 0) ctx name =
    if ctx.enabled_ then begin
      let parent =
        match ctx.prof_stack_ with
        | { node_; _ } :: _ -> node_
        | [] -> ctx.prof_root_
      in
      let node =
        match Hashtbl.find_opt parent.children_ name with
        | Some n -> n
        | None ->
          let n =
            { span_name = name; calls = 0; self_cycles = 0; children_ = Hashtbl.create 4 }
          in
          Hashtbl.replace parent.children_ name n;
          n
      in
      node.calls <- node.calls + 1;
      let frame =
        { node_ = node;
          fpid = pid;
          start_cycles = ctx.cycles_;
          fdepth = List.length ctx.prof_stack_;
          fseq = ctx.span_seq_
        }
      in
      ctx.span_seq_ <- ctx.span_seq_ + 1;
      ctx.prof_stack_ <- frame :: ctx.prof_stack_
    end

  let exit ctx =
    if ctx.enabled_ then
      match ctx.prof_stack_ with
      | [] -> ()
      | f :: rest ->
        ctx.prof_stack_ <- rest;
        (* per-span-name duration histogram (simulated cycles), exported
           to Prometheus as _bucket summary lines by [Metrics] *)
        Metrics.observe ctx
          ("span." ^ f.node_.span_name ^ ".cycles")
          (float_of_int (ctx.cycles_ - f.start_cycles));
        ctx.spans_ <-
          { sname = f.node_.span_name;
            spid = f.fpid;
            sstart = f.start_cycles;
            send = ctx.cycles_;
            sdepth = f.fdepth;
            sseq = f.fseq
          }
          :: ctx.spans_

  (* campaign ops can raise (Out_of_memory and friends): always pop *)
  let span ?pid ctx name f =
    if not ctx.enabled_ then f ()
    else begin
      enter ?pid ctx name;
      Fun.protect ~finally:(fun () -> exit ctx) f
    end

  (* collapsed-stack text: one "machine;a;b <self_cycles>" line per node
     that accumulated cycles of its own (or is a leaf), ready for
     flamegraph.pl / speedscope *)
  let to_collapsed ctx =
    let lines = ref [] in
    let rec walk path (n : node) =
      let path = path ^ n.span_name in
      let kids = node_children n in
      if n.self_cycles > 0 || kids = [] then
        lines := Printf.sprintf "%s %d" path n.self_cycles :: !lines;
      List.iter (walk (path ^ ";")) kids
    in
    walk "" ctx.prof_root_;
    String.concat "\n" (List.sort compare !lines) ^ "\n"

  (* Chrome-trace complete events on the simulated-cycle clock: ts is the
     cycle count at enter, dur the cycles spent inside.  pid/tid carry the
     simulated process id so spans nest under their process row in
     chrome://tracing. *)
  let to_chrome ctx =
    let ss =
      List.sort (fun a b -> compare (a.sstart, a.sseq) (b.sstart, b.sseq)) ctx.spans_
    in
    json_array
      (List.map
         (fun s ->
           chrome_complete ~name:s.sname ~ts:s.sstart ~dur:(s.send - s.sstart) ~pid:s.spid
             ~tid:s.spid
             (Printf.sprintf "\"depth\":%d" s.sdepth))
         ss)
    ^ "\n"
end

(* ---- per-tick metric time series ---- *)

module Timeseries = struct
  type kind = series_kind = Gauge | Counter

  let default_capacity = 512

  let kind_name = function Gauge -> "gauge" | Counter -> "counter"

  let make_series ~name ~kind ~source ~cap =
    let cap = max 8 cap in
    { s_name = name;
      s_kind = kind;
      s_source = source;
      s_cap = cap;
      s_ticks = Array.make cap 0;
      s_vals = Array.make cap 0.;
      s_len = 0;
      s_stride = 1;
      s_seen = 0;
      s_last_tick = 0;
      s_last_val = 0.;
      s_prev_tick = 0;
      s_prev_val = 0.;
      s_min = infinity;
      s_max = neg_infinity
    }

  let define ctx ?(kind = Gauge) ?(capacity = default_capacity) name =
    if ctx.enabled_ && not (Hashtbl.mem ctx.series_ name) then
      Hashtbl.replace ctx.series_ name (make_series ~name ~kind ~source:None ~cap:capacity)

  let define_rate ctx ~source name =
    if ctx.enabled_ && not (Hashtbl.mem ctx.series_ name) then begin
      Hashtbl.replace ctx.series_ name
        (make_series ~name ~kind:Gauge ~source:(Some source) ~cap:default_capacity);
      ctx.derived_ <- ctx.derived_ @ [ (source, name) ]
    end

  (* Halve the resolution in place: keep every other retained point
     (oldest first) and double the acceptance stride, so a full buffer
     ages into a coarser history instead of dropping its tail. *)
  let downsample s =
    let kept = ref 0 in
    let i = ref 0 in
    while !i < s.s_len do
      s.s_ticks.(!kept) <- s.s_ticks.(!i);
      s.s_vals.(!kept) <- s.s_vals.(!i);
      incr kept;
      i := !i + 2
    done;
    s.s_len <- !kept;
    s.s_stride <- s.s_stride * 2

  let offer ctx s v =
    let t = ctx.tick_ in
    if s.s_seen = 0 then begin
      s.s_prev_tick <- t;
      s.s_prev_val <- v
    end
    else begin
      s.s_prev_tick <- s.s_last_tick;
      s.s_prev_val <- s.s_last_val
    end;
    if s.s_seen mod s.s_stride = 0 then begin
      if s.s_len = s.s_cap then downsample s;
      s.s_ticks.(s.s_len) <- t;
      s.s_vals.(s.s_len) <- v;
      s.s_len <- s.s_len + 1
    end;
    s.s_seen <- s.s_seen + 1;
    s.s_last_tick <- t;
    s.s_last_val <- v;
    if v < s.s_min then s.s_min <- v;
    if v > s.s_max then s.s_max <- v

  (* Recording into an undefined series auto-defines a gauge, so sampling
     sites need no registration step.  A record on a source series also
     appends the per-tick rate to every derived series pointing at it. *)
  let rec record ctx name v =
    if ctx.enabled_ then begin
      let s =
        match Hashtbl.find_opt ctx.series_ name with
        | Some s -> s
        | None ->
          let s = make_series ~name ~kind:Gauge ~source:None ~cap:default_capacity in
          Hashtbl.replace ctx.series_ name s;
          s
      in
      let had = s.s_seen > 0 in
      let prev_tick = s.s_last_tick and prev_val = s.s_last_val in
      offer ctx s v;
      List.iter
        (fun (src, dname) ->
          if src = name then begin
            let dt = if had then ctx.tick_ - prev_tick else 0 in
            let rate = if dt > 0 then (v -. prev_val) /. float_of_int dt else 0. in
            record ctx dname rate
          end)
        ctx.derived_
    end

  let find ctx name = Hashtbl.find_opt ctx.series_ name

  let names ctx =
    Hashtbl.fold (fun k _ acc -> k :: acc) ctx.series_ [] |> List.sort compare

  let points ctx name =
    match find ctx name with
    | None -> []
    | Some s -> List.init s.s_len (fun i -> (s.s_ticks.(i), s.s_vals.(i)))

  let last ctx name =
    match find ctx name with
    | Some s when s.s_seen > 0 -> Some (s.s_last_tick, s.s_last_val)
    | _ -> None

  let sample_count ctx name = match find ctx name with Some s -> s.s_seen | None -> 0
  let retained ctx name = match find ctx name with Some s -> s.s_len | None -> 0
  let stride ctx name = match find ctx name with Some s -> s.s_stride | None -> 1

  let spread ctx name =
    match find ctx name with
    | Some s when s.s_seen > 0 -> s.s_max -. s.s_min
    | _ -> 0.

  let kind ctx name = Option.map (fun s -> s.s_kind) (find ctx name)
  let source ctx name = Option.bind (find ctx name) (fun s -> s.s_source)

  (* Exact all-time envelope — (last, prev, min, max) — independent of the
     ring's downsampling: these fields are updated on every [offer], so a
     series that has shed most of its points still answers precisely. *)
  let envelope ctx name =
    match find ctx name with
    | Some s when s.s_seen > 0 ->
      Some ((s.s_last_tick, s.s_last_val), (s.s_prev_tick, s.s_prev_val), s.s_min, s.s_max)
    | _ -> None

  (* derived series carry their own export tag: a rate is stored as a
     gauge but must not masquerade as an independent measurement *)
  let export_kind s =
    match s.s_source with Some _ -> "rate" | None -> kind_name s.s_kind

  (* Prometheus text exposition: the last offered value of every series,
     timestamped with its simulation tick.  Counters carry the
     conventional [_total] suffix (derived rates do not — they are
     exported as gauges); the raw series name rides along as an escaped
     [series] label so dotted names survive the [a-zA-Z0-9_]
     sanitization round trip. *)
  let to_prometheus ?(labels = []) ctx =
    let pre = prom_labels labels in
    let buf = Buffer.create 1024 in
    List.iter
      (fun name ->
        match find ctx name with
        | Some s when s.s_seen > 0 ->
          let counter = s.s_kind = Counter && s.s_source = None in
          let pn = prom_name name ^ if counter then "_total" else "" in
          let kind = if counter then "counter" else "gauge" in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" pn kind);
          Buffer.add_string buf
            (Printf.sprintf "%s{%sseries=\"%s\"} %s %d\n" pn pre (prom_escape name)
               (float_json s.s_last_val) s.s_last_tick)
        | _ -> ())
      (names ctx);
    Buffer.contents buf

  (* Canonical JSON: name-sorted array of series with their retained
     points — the merge unit for fleet reports and the dashboard twin. *)
  let to_json ctx =
    json_array
      (List.filter_map
         (fun name ->
           Option.map
             (fun s ->
               Printf.sprintf
                 "{\"name\":%s,\"kind\":%s,\"stride\":%d,\"samples\":%d,\"points\":[%s]}"
                 (json_str s.s_name) (json_str (export_kind s)) s.s_stride s.s_seen
                 (String.concat ","
                    (List.init s.s_len (fun j ->
                         Printf.sprintf "[%d,%s]" s.s_ticks.(j) (float_json s.s_vals.(j))))))
             (find ctx name))
         (names ctx))
end

(* ---- declarative alert rules ---- *)

module Alert = struct
  type cmp = alert_cmp = Gt | Ge | Lt | Le

  type condition = alert_condition =
    | Threshold of { cmp : cmp; value : float; for_ticks : int }
    | Rate of { cmp : cmp; per_tick : float }
    | Window_spread of { window : int; min_spread : float }

  let cmp_name = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

  let holds cmp v w =
    match cmp with Gt -> v > w | Ge -> v >= w | Lt -> v < w | Le -> v <= w

  let install ctx ~name ~series cond =
    if ctx.enabled_ && not (List.exists (fun r -> r.a_name = name) ctx.rules_) then
      ctx.rules_ <-
        ctx.rules_
        @ [ { a_name = name;
              a_series = series;
              a_cond = cond;
              a_held = 0;
              a_active = false;
              a_fired = 0
            }
          ]

  let rules ctx = List.map (fun r -> (r.a_name, r.a_series, r.a_cond)) ctx.rules_

  let describe_condition = function
    | Threshold { cmp; value; for_ticks } ->
      Printf.sprintf "%s %s for %d tick%s" (cmp_name cmp) (float_json value) for_ticks
        (if for_ticks = 1 then "" else "s")
    | Rate { cmp; per_tick } ->
      Printf.sprintf "rate %s %s/tick" (cmp_name cmp) (float_json per_tick)
    | Window_spread { window; min_spread } ->
      if window <= 0 then Printf.sprintf "spread >= %s all-time" (float_json min_spread)
      else
        Printf.sprintf "spread >= %s over %d ticks" (float_json min_spread) window

  (* Evaluate every rule against its series, once per tick (called by
     [System.scan] after sampling).  Rules are edge-triggered: a rule
     fires once when its condition becomes true (for [Threshold], once the
     condition has held [for_ticks] consecutive evaluations) and re-arms
     only after the condition goes false again.  Firing appends to the
     firing log and emits [Alert_fired] into the event ring — observer
     state only, fully deterministic. *)
  let eval ctx ~tick =
    if ctx.enabled_ then
      List.iter
        (fun r ->
          match Hashtbl.find_opt ctx.series_ r.a_series with
          | None -> ()
          | Some s when s.s_seen = 0 -> ()
          | Some s ->
            let fire value =
              r.a_fired <- r.a_fired + 1;
              ctx.firings_ <-
                { f_tick = tick; f_rule = r.a_name; f_series = r.a_series; f_value = value }
                :: ctx.firings_;
              Trace.emit ctx (Alert_fired { rule = r.a_name; series = r.a_series; value })
            in
            (match r.a_cond with
             | Threshold { cmp; value; for_ticks } ->
               if holds cmp s.s_last_val value then begin
                 r.a_held <- r.a_held + 1;
                 if r.a_held >= for_ticks && not r.a_active then begin
                   r.a_active <- true;
                   fire s.s_last_val
                 end
               end
               else begin
                 r.a_held <- 0;
                 r.a_active <- false
               end
             | Rate { cmp; per_tick } ->
               let dt = s.s_last_tick - s.s_prev_tick in
               let rate =
                 if dt > 0 then (s.s_last_val -. s.s_prev_val) /. float_of_int dt else 0.
               in
               if holds cmp rate per_tick then begin
                 if not r.a_active then begin
                   r.a_active <- true;
                   fire rate
                 end
               end
               else r.a_active <- false
             | Window_spread { window; min_spread } ->
               let lo = ref infinity and hi = ref neg_infinity in
               if window <= 0 then begin
                 lo := s.s_min;
                 hi := s.s_max
               end
               else
                 for j = 0 to s.s_len - 1 do
                   if s.s_ticks.(j) > tick - window then begin
                     if s.s_vals.(j) < !lo then lo := s.s_vals.(j);
                     if s.s_vals.(j) > !hi then hi := s.s_vals.(j)
                   end
                 done;
               let spread = if !hi >= !lo then !hi -. !lo else 0. in
               if spread >= min_spread then begin
                 if not r.a_active then begin
                   r.a_active <- true;
                   fire spread
                 end
               end
               else r.a_active <- false))
        ctx.rules_

  let firings ctx =
    List.rev_map (fun f -> (f.f_tick, f.f_rule, f.f_series, f.f_value)) ctx.firings_

  let fired ctx name =
    match List.find_opt (fun r -> r.a_name = name) ctx.rules_ with
    | Some r -> r.a_fired
    | None -> 0

  (* one firing as a JSON object — also the archive's alert entry *)
  let firing_json (tick, rule, series, value) =
    Printf.sprintf "{\"tick\":%d,\"rule\":%s,\"series\":%s,\"value\":%s}" tick
      (json_str rule) (json_str series) (float_json value)

  (* Canonical JSON: the firing log, chronological. *)
  let to_json ctx = json_array (List.map firing_json (firings ctx))
end

(* ---- flight-recorder archives & structural run diffing ---- *)

(* Minimal recursive-descent JSON reader.  The repo emits all its JSON by
   hand (canonically, for fingerprint stability); this is the matching
   read side for flight archives — no external dependency, no stream
   support, whole-document only.  [null] maps to NaN on numeric reads so
   [float_json]'s NaN encoding round-trips. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse src =
    let n = String.length src in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some src.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && src.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub src !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = src.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = src.[!pos] in
          incr pos;
          (match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 > n then fail "bad \\u escape";
             let hex = String.sub src !pos 4 in
             pos := !pos + 4;
             let cp =
               match int_of_string_opt ("0x" ^ hex) with
               | Some cp -> cp
               | None -> fail "bad \\u escape"
             in
             (* BMP code points decode as UTF-8; archives only ever emit
                ASCII control escapes, so this is read-side generosity *)
             if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
             else if cp < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
             end
           | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < n
        && (match src.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      if !pos = start then fail "expected value";
      match float_of_string_opt (String.sub src start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec loop () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              loop ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          loop ();
          Arr (List.rev !items)
        end
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              loop ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          loop ();
          Obj (List.rev !fields)
        end
      | Some _ -> Num (parse_number ())
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos) else Ok v
    with Bad msg -> Error msg

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

module Snapshot = struct
  let version = 1

  type series_env = {
    e_name : string;
    e_kind : string;
    e_stride : int;
    e_samples : int;
    e_last_tick : int;
    e_last : float;
    e_min : float;
    e_max : float;
    e_points : (int * float) list;
  }

  type shard_env = { sh_id : int; sh_label : string; sh_cells : (string * float) list }

  type t = {
    ar_version : int;
    ar_kind : string;
    ar_meta : (string * string) list;
    ar_series : series_env list;
    ar_exposure : (string * string * int) list;
    ar_counters : (string * int) list;
    ar_cost_subsystem : (string * int) list;
    ar_cost_op : (string * int * int) list;
    ar_alerts : (int * string * string * float) list;
    ar_budgets : (string * int) list;
    ar_scalars : (string * float) list;
    ar_shards : shard_env list;
  }

  (* Every component is stored name-sorted (alerts stay chronological):
     the archive is canonical regardless of hash-table iteration order,
     so byte equality of two archives means observable equality. *)
  let make ?(kind = "run") ?(meta = []) ?(series = []) ?(exposure = []) ?(counters = [])
      ?(cost_subsystem = []) ?(cost_op = []) ?(alerts = []) ?(budgets = []) ?(scalars = [])
      ?(shards = []) () =
    { ar_version = version;
      ar_kind = kind;
      ar_meta = List.sort compare meta;
      ar_series = List.sort (fun a b -> compare a.e_name b.e_name) series;
      ar_exposure = List.sort compare exposure;
      ar_counters = List.sort compare counters;
      ar_cost_subsystem = List.sort compare cost_subsystem;
      ar_cost_op = List.sort compare cost_op;
      ar_alerts = alerts;
      ar_budgets = List.sort compare budgets;
      ar_scalars = List.sort compare scalars;
      ar_shards = List.sort (fun a b -> compare a.sh_id b.sh_id) shards
    }

  let of_scalars ?(kind = "scalars") ?(meta = []) scalars = make ~kind ~meta ~scalars ()

  (* Capture everything observable in [ctx]: series envelopes + retained
     points, the exposure ledger, counters, cost totals, alert firings and
     per-request leak budgets.  Histograms contribute only their sample
     counts — span-duration values are deterministic simulated cycles, but
     their full sample lists would bloat archives without adding diffable
     signal beyond the cost totals already captured. *)
  let record ~kind ?(meta = []) ?(scalars = []) ?(shards = []) ctx =
    let series =
      List.filter_map
        (fun name ->
          match Hashtbl.find_opt ctx.series_ name with
          | Some s when s.s_seen > 0 ->
            Some
              { e_name = name;
                e_kind = Timeseries.export_kind s;
                e_stride = s.s_stride;
                e_samples = s.s_seen;
                e_last_tick = s.s_last_tick;
                e_last = s.s_last_val;
                e_min = s.s_min;
                e_max = s.s_max;
                e_points = List.init s.s_len (fun i -> (s.s_ticks.(i), s.s_vals.(i)))
              }
          | _ -> None)
        (Timeseries.names ctx)
    in
    let totals = Exposure.totals ctx in
    let exposure = List.map (fun ((o, c), v) -> (origin_name o, class_name c, v)) totals in
    let unsafe =
      List.fold_left
        (fun acc ((o, c), v) ->
          if origin_sensitive o && c <> Mlocked_anon then acc + v else acc)
        0 totals
    in
    let cost_op =
      List.map (fun (op, cnt, cyc) -> (Cost.op_name op, cnt, cyc)) (Cost.by_op ctx)
    in
    let budgets =
      List.map (fun (t, v) -> (Printf.sprintf "t%d" t, v)) (Trace.leak_budget ctx)
    in
    let hist_scalars =
      List.map
        (fun name ->
          ( Printf.sprintf "hist:%s/count" name,
            float_of_int (List.length (Metrics.samples ctx name)) ))
        (Metrics.histograms ctx)
    in
    make ~kind ~meta ~series ~exposure ~counters:(Metrics.counters ctx)
      ~cost_subsystem:(Cost.by_subsystem ctx) ~cost_op ~alerts:(Alert.firings ctx) ~budgets
      ~scalars:
        ((("exposure.sensitive_unsafe_total", float_of_int unsafe) :: hist_scalars)
        @ scalars)
      ~shards ()

  let to_json t =
    let obj f kvs = json_object (List.map (fun (k, v) -> (k, f v)) kvs) in
    let inline f xs = String.concat "," (List.map f xs) in
    String.concat ",\n"
      [ Printf.sprintf "{\n\"flight_version\": %d" t.ar_version;
        "\"kind\": " ^ json_str t.ar_kind;
        "\"meta\": " ^ obj json_str t.ar_meta;
        "\"scalars\": " ^ obj float_json t.ar_scalars;
        "\"series\": "
        ^ json_array
            (List.map
               (fun e ->
                 Printf.sprintf
                   "{\"name\":%s,\"kind\":%s,\"stride\":%d,\"samples\":%d,\"last_tick\":%d,\"last\":%s,\"min\":%s,\"max\":%s,\"points\":[%s]}"
                   (json_str e.e_name) (json_str e.e_kind) e.e_stride e.e_samples
                   e.e_last_tick (float_json e.e_last) (float_json e.e_min)
                   (float_json e.e_max)
                   (inline (fun (tk, v) -> Printf.sprintf "[%d,%s]" tk (float_json v))
                      e.e_points))
               t.ar_series);
        "\"exposure\": "
        ^ json_array
            (List.map
               (fun (o, c, v) ->
                 Printf.sprintf "{\"origin\":%s,\"class\":%s,\"byte_ticks\":%d}"
                   (json_str o) (json_str c) v)
               t.ar_exposure);
        "\"counters\": " ^ obj string_of_int t.ar_counters;
        "\"cost_subsystem\": " ^ obj string_of_int t.ar_cost_subsystem;
        "\"cost_op\": "
        ^ json_array
            (List.map
               (fun (op, cnt, cyc) ->
                 Printf.sprintf "{\"op\":%s,\"count\":%d,\"cycles\":%d}" (json_str op)
                   cnt cyc)
               t.ar_cost_op);
        "\"alerts\": " ^ json_array (List.map Alert.firing_json t.ar_alerts);
        "\"budgets\": " ^ obj string_of_int t.ar_budgets;
        "\"shards\": "
        ^ json_array
            (List.map
               (fun sh ->
                 Printf.sprintf "{\"id\":%d,\"label\":%s,\"cells\":{%s}}" sh.sh_id
                   (json_str sh.sh_label)
                   (inline (fun (k, v) -> json_str k ^ ":" ^ float_json v) sh.sh_cells))
               t.ar_shards)
      ]
    ^ "\n}\n"

  let of_json text =
    match Json.parse text with
    | Error e -> Error ("flight archive: " ^ e)
    | Ok root ->
      let open Json in
      let jnum = function
        | Num f -> f
        | Null -> Float.nan
        | Bool b -> if b then 1. else 0.
        | _ -> Float.nan
      in
      let jint j =
        let f = jnum j in
        if Float.is_nan f then 0 else int_of_float f
      in
      let jstr = function Str s -> s | _ -> "" in
      let jarr = function Some (Arr l) -> l | _ -> [] in
      let jobj = function Some (Obj l) -> l | _ -> [] in
      (match mem "flight_version" root with
       | Some (Num v) when int_of_float v = version ->
         let g j k = Option.value ~default:Null (mem k j) in
         let series =
           List.map
             (fun j ->
               { e_name = jstr (g j "name");
                 e_kind = jstr (g j "kind");
                 e_stride = jint (g j "stride");
                 e_samples = jint (g j "samples");
                 e_last_tick = jint (g j "last_tick");
                 e_last = jnum (g j "last");
                 e_min = jnum (g j "min");
                 e_max = jnum (g j "max");
                 e_points =
                   List.filter_map
                     (function Arr [ tk; v ] -> Some (jint tk, jnum v) | _ -> None)
                     (match g j "points" with Arr l -> l | _ -> [])
               })
             (jarr (mem "series" root))
         in
         let exposure =
           List.map
             (fun j -> (jstr (g j "origin"), jstr (g j "class"), jint (g j "byte_ticks")))
             (jarr (mem "exposure" root))
         in
         let cost_op =
           List.map
             (fun j -> (jstr (g j "op"), jint (g j "count"), jint (g j "cycles")))
             (jarr (mem "cost_op" root))
         in
         let alerts =
           List.map
             (fun j ->
               (jint (g j "tick"), jstr (g j "rule"), jstr (g j "series"), jnum (g j "value")))
             (jarr (mem "alerts" root))
         in
         let shards =
           List.map
             (fun j ->
               { sh_id = jint (g j "id");
                 sh_label = jstr (g j "label");
                 sh_cells =
                   List.map (fun (k, v) -> (k, jnum v)) (jobj (mem "cells" j))
               })
             (jarr (mem "shards" root))
         in
         Ok
           (make
              ~kind:(match mem "kind" root with Some (Str s) -> s | _ -> "run")
              ~meta:(List.map (fun (k, v) -> (k, jstr v)) (jobj (mem "meta" root)))
              ~series ~exposure
              ~counters:(List.map (fun (k, v) -> (k, jint v)) (jobj (mem "counters" root)))
              ~cost_subsystem:
                (List.map (fun (k, v) -> (k, jint v)) (jobj (mem "cost_subsystem" root)))
              ~cost_op ~alerts
              ~budgets:(List.map (fun (k, v) -> (k, jint v)) (jobj (mem "budgets" root)))
              ~scalars:(List.map (fun (k, v) -> (k, jnum v)) (jobj (mem "scalars" root)))
              ~shards ())
       | Some (Num v) ->
         Error
           (Printf.sprintf "flight archive: unsupported version %d (this build reads %d)"
              (int_of_float v) version)
       | _ -> Error "flight archive: missing flight_version")

  let write path t =
    let oc = open_out path in
    output_string oc (to_json t);
    close_out oc

  let read path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Error e
    | text -> of_json text

  (* Flatten an archive into one sorted scalar key space so the differ
     aligns two runs purely by key, regardless of which components each
     recorded.  The "family:" prefixes double as classification hints for
     [Diff.family_of_key]. *)
  let scalars t =
    let acc = ref [] in
    let add k v = acc := (k, v) :: !acc in
    List.iter (fun (k, v) -> add k v) t.ar_scalars;
    List.iter
      (fun e ->
        add (Printf.sprintf "series:%s/last" e.e_name) e.e_last;
        add (Printf.sprintf "series:%s/min" e.e_name) e.e_min;
        add (Printf.sprintf "series:%s/max" e.e_name) e.e_max;
        add (Printf.sprintf "series:%s/samples" e.e_name) (float_of_int e.e_samples))
      t.ar_series;
    List.iter
      (fun (o, c, v) -> add (Printf.sprintf "exposure:%s/%s" o c) (float_of_int v))
      t.ar_exposure;
    List.iter (fun (k, v) -> add (Printf.sprintf "counter:%s" k) (float_of_int v))
      t.ar_counters;
    (match t.ar_cost_subsystem with
     | [] -> ()
     | subs ->
       add "cost:total" (float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 subs));
       List.iter (fun (k, v) -> add (Printf.sprintf "cost:%s" k) (float_of_int v)) subs);
    List.iter
      (fun (op, cnt, cyc) ->
        add (Printf.sprintf "cost:op:%s/count" op) (float_of_int cnt);
        add (Printf.sprintf "cost:op:%s/cycles" op) (float_of_int cyc))
      t.ar_cost_op;
    let fired = Hashtbl.create 8 in
    List.iter
      (fun (_, rule, _, _) ->
        Hashtbl.replace fired rule
          (1 + Option.value ~default:0 (Hashtbl.find_opt fired rule)))
      t.ar_alerts;
    Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) fired []
    |> List.sort compare
    |> List.iter (fun (rule, n) ->
         add (Printf.sprintf "alert:fired:%s" rule) (float_of_int n));
    List.iter (fun (k, v) -> add (Printf.sprintf "budget:%s" k) (float_of_int v))
      t.ar_budgets;
    List.iter
      (fun sh ->
        List.iter (fun (k, v) -> add (Printf.sprintf "shard:%d/%s" sh.sh_id k) v)
          sh.sh_cells)
      t.ar_shards;
    List.sort compare !acc
end

module Diff = struct
  type family = Deterministic | Wallclock | Exposure

  type verdict = Improvement | Regression | Neutral

  type delta = {
    d_key : string;
    d_family : family;
    d_base : float option;
    d_cur : float option;
    d_verdict : verdict;
    d_hard : bool;
    d_pct : float;
  }

  type t = {
    meta_diff : (string * string option * string option) list;
    deltas : delta list;
    compared : int;
  }

  let family_name = function
    | Deterministic -> "deterministic"
    | Wallclock -> "wall-clock"
    | Exposure -> "exposure"

  let verdict_name = function
    | Improvement -> "improvement"
    | Regression -> "regression"
    | Neutral -> "neutral"

  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0

  (* Seconds suffixes and rate-like names are host-dependent wall-clock
     measurements (warn only); everything else the simulation computes
     is deterministic.  "rate" must match as the token "_rate", not a
     substring — bare substring matching would classify every
     *_integrated key as wall-clock (integ-RATE-d), silently downgrading
     that level's cycle totals to warn-only. *)
  let wallclockish key =
    (String.length key > 2 && String.sub key (String.length key - 2) 2 = "_s")
    || List.exists (has_sub key) [ "per_sec"; "_pct"; "speedup"; "_rate"; "ratio"; "wall" ]
    || (String.length key >= 5 && String.sub key 0 5 = "rate_")

  let family_of_key key =
    if
      List.exists (has_sub key) [ "exposure"; "sensitive_unsafe"; "byte_ticks" ]
      || (String.length key >= 7 && String.sub key 0 7 = "budget:")
    then Exposure
    else if wallclockish key then Wallclock
    else Deterministic

  (* NaN came from a null in the archive: two nulls agree *)
  let eq_float a b = (Float.is_nan a && Float.is_nan b) || a = b

  let diff ?(det_tol_pct = 0.) ?(wall_tol_pct = 10.) ?(exp_tol_pct = 0.) base cur =
    let bt = Hashtbl.create 64 and ct = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace bt k v) (Snapshot.scalars base);
    List.iter (fun (k, v) -> Hashtbl.replace ct k v) (Snapshot.scalars cur);
    let keys =
      List.sort_uniq compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) bt
           (Hashtbl.fold (fun k _ acc -> k :: acc) ct []))
    in
    let deltas = ref [] and compared = ref 0 in
    List.iter
      (fun key ->
        incr compared;
        let fam = family_of_key key in
        let tol =
          match fam with
          | Deterministic -> det_tol_pct
          | Wallclock -> wall_tol_pct
          | Exposure -> exp_tol_pct
        in
        match (Hashtbl.find_opt bt key, Hashtbl.find_opt ct key) with
        | Some b, Some c when eq_float b c -> ()
        | Some b, Some c ->
          let pct = 100. *. (c -. b) /. Float.max 1. (Float.abs b) in
          if Float.abs pct <= tol then ()
          else begin
            let verdict = if pct > 0. then Regression else Improvement in
            deltas :=
              { d_key = key;
                d_family = fam;
                d_base = Some b;
                d_cur = Some c;
                d_verdict = verdict;
                d_hard = verdict = Regression && fam <> Wallclock;
                d_pct = pct
              }
              :: !deltas
          end
        | Some b, None ->
          (* a vanished deterministic/exposure observable is itself a hard
             failure: the run stopped measuring something it used to *)
          deltas :=
            { d_key = key;
              d_family = fam;
              d_base = Some b;
              d_cur = None;
              d_verdict = Regression;
              d_hard = fam <> Wallclock;
              d_pct = 0.
            }
            :: !deltas
        | None, Some c ->
          deltas :=
            { d_key = key;
              d_family = fam;
              d_base = None;
              d_cur = Some c;
              d_verdict = Neutral;
              d_hard = false;
              d_pct = 0.
            }
            :: !deltas
        | None, None -> ())
      keys;
    let meta_diff =
      let mkeys =
        List.sort_uniq compare
          (List.map fst base.Snapshot.ar_meta @ List.map fst cur.Snapshot.ar_meta)
      in
      List.filter_map
        (fun k ->
          let b = List.assoc_opt k base.Snapshot.ar_meta
          and c = List.assoc_opt k cur.Snapshot.ar_meta in
          if b = c then None else Some (k, b, c))
        mkeys
    in
    let meta_diff =
      if base.Snapshot.ar_kind = cur.Snapshot.ar_kind then meta_diff
      else ("kind", Some base.Snapshot.ar_kind, Some cur.Snapshot.ar_kind) :: meta_diff
    in
    { meta_diff; deltas = List.rev !deltas; compared = !compared }

  let improvements t =
    List.length (List.filter (fun d -> d.d_verdict = Improvement) t.deltas)

  let regressions t = List.length (List.filter (fun d -> d.d_verdict = Regression) t.deltas)
  let hard_regressions t = List.length (List.filter (fun d -> d.d_hard) t.deltas)
  let added t = List.length (List.filter (fun d -> d.d_verdict = Neutral) t.deltas)

  let opt_val = function None -> "-" | Some v -> float_json v

  let pp fmt t =
    if t.meta_diff <> [] then begin
      Format.fprintf fmt "meta changes:@.";
      List.iter
        (fun (k, b, c) ->
          Format.fprintf fmt "  %-28s %s -> %s@." k
            (Option.value ~default:"-" b)
            (Option.value ~default:"-" c))
        t.meta_diff
    end;
    if t.deltas = [] then
      Format.fprintf fmt "no deltas (%d observables compared)@." t.compared
    else begin
      Format.fprintf fmt "%-52s %-13s %14s %14s %9s  %s@." "observable" "family" "base"
        "current" "delta%" "verdict";
      List.iter
        (fun d ->
          Format.fprintf fmt "%-52s %-13s %14s %14s %9s  %s%s@." d.d_key
            (family_name d.d_family) (opt_val d.d_base) (opt_val d.d_cur)
            (if d.d_base = None || d.d_cur = None then "-"
             else Printf.sprintf "%+.1f" d.d_pct)
            (verdict_name d.d_verdict)
            (if d.d_hard then " [hard]"
             else if d.d_verdict = Regression then " [warn]"
             else ""))
        t.deltas;
      Format.fprintf fmt "%d compared: %d improvement(s), %d regression(s) (%d hard), %d new key(s)@."
        t.compared (improvements t) (regressions t) (hard_regressions t) (added t)
    end

  let to_json t =
    let opt f = function None -> "null" | Some v -> f v in
    Printf.sprintf "{\n\"compared\": %d,\n\"meta\": %s,\n\"deltas\": %s\n}\n" t.compared
      (json_array
         (List.map
            (fun (k, b, c) ->
              Printf.sprintf "{\"key\":%s,\"base\":%s,\"current\":%s}" (json_str k)
                (opt json_str b) (opt json_str c))
            t.meta_diff))
      (json_array
         (List.map
            (fun d ->
              Printf.sprintf
                "{\"key\":%s,\"family\":%s,\"base\":%s,\"current\":%s,\"pct\":%s,\"verdict\":%s,\"hard\":%b}"
                (json_str d.d_key)
                (json_str (family_name d.d_family))
                (opt float_json d.d_base) (opt float_json d.d_cur) (float_json d.d_pct)
                (json_str (verdict_name d.d_verdict))
                d.d_hard)
            t.deltas))
end
