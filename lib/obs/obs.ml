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

(* position in [all_origins]: the per-origin cost array's index *)
let origin_index = function
  | Pem_buffer -> 0
  | Der_temp -> 1
  | Bn_limbs -> 2
  | Mont_cache -> 3
  | Page_cache -> 4
  | Swap -> 5
  | Heap_copy -> 6
  | Bn_temp -> 7

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

(* position in [all_classes] *)
let class_index = function
  | Mlocked_anon -> 0
  | Plain_anon -> 1
  | Cached -> 2
  | Kernel_buf -> 3
  | Free_ram -> 4
  | Swapped -> 5

let num_classes = 6

(* the ledger's (origin, class) bucket: origin-major, so walking the
   array visits buckets in sorted order *)
let exposure_index origin cls = (origin_index origin * num_classes) + class_index cls

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

(* the filler of ring slots never written: [records] reads only written
   slots, so it never escapes *)
let no_record =
  { seq = -1; tick = 0; event = Scan_started { mode = "" }; trace = 0; span = 0 }

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

(* The one JSON codec (see obs.mli): no external dependency, no stream
   support. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  type layout = Compact | Archive | Fleet

  let list f xs = Arr (List.map f xs)

  (* Printf's %S is OCaml lexing, whose decimal \ddd escapes JSON parsers
     reject *)
  let add_str b s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  (* Archive indents each broken-out entry one space, except the root
     object's members; Fleet indents two spaces a level, keeps an empty
     line in an empty container and spaces its one-line objects. *)
  let to_string layout v =
    let b = Buffer.create 256 in
    let rec value ~depth ~member = function
      | Null -> Buffer.add_string b "null"
      | Bool x -> Buffer.add_string b (string_of_bool x)
      | Int i -> Buffer.add_string b (string_of_int i)
      | Num f -> Buffer.add_string b (float_json f)
      | Str s -> add_str b s
      | Arr xs -> entries ~depth ~member ~obj:false (List.map (fun x -> ("", x)) xs)
      | Obj kvs -> entries ~depth ~member ~obj:true kvs
    and entries ~depth ~member ~obj kvs =
      let lines =
        match layout with
        | Compact -> false
        | Archive -> depth = 0 || (depth = 1 && member)
        | Fleet -> depth = 0 || (depth = 1 && member && not obj)
      in
      (* what goes before the first entry, between entries, and before the closer *)
      let first, sep, last =
        if not lines then ("", (if layout = Fleet && obj then ", " else ","), "")
        else if layout = Fleet then
          let ind = String.make (2 * depth) ' ' in
          ("\n  " ^ ind, ",\n  " ^ ind, (if kvs = [] then "\n\n" else "\n") ^ ind)
        else
          let ind = if depth = 0 && obj then "" else " " in
          ("\n" ^ ind, ",\n" ^ ind, "\n")
      in
      let colon = if lines || layout = Fleet then ": " else ":" in
      Buffer.add_char b (if obj then '{' else '[');
      List.iteri
        (fun i (k, x) ->
          Buffer.add_string b (if i = 0 then first else sep);
          if obj then begin
            add_str b k;
            Buffer.add_string b colon
          end;
          value ~depth:(depth + 1) ~member:obj x)
        kvs;
      Buffer.add_string b last;
      Buffer.add_char b (if obj then '}' else ']')
    in
    value ~depth:0 ~member:false v;
    Buffer.contents b

  exception Bad of string

  (* 1e0 .. 1e22, each exact in a double *)
  let pow10 = Array.init 23 (fun i -> float_of_string ("1e" ^ string_of_int i))

  let parse src =
    let n = String.length src in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let at c = !pos < n && src.[!pos] = c in
    let skip_ws () =
      while
        !pos < n && (match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
    let literal word v =
      let l = String.length word in
      let rec same i = i = l || (src.[!pos + i] = word.[i] && same (i + 1)) in
      if !pos + l <= n && same 0 then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    (* a string with no escape is one [String.sub]; the first escape
       switches to a buffer *)
    let parse_string () =
      expect '"';
      let start = !pos in
      while !pos < n && src.[!pos] <> '"' && src.[!pos] <> '\\' do
        incr pos
      done;
      if at '"' then begin
        incr pos;
        String.sub src start (!pos - 1 - start)
      end
      else begin
        let buf = Buffer.create (2 * (!pos - start) + 16) in
        Buffer.add_substring buf src start (!pos - start);
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
               (* BMP code points decode as UTF-8 (a lone surrogate as
                  U+FFFD); exports only ever emit ASCII control escapes,
                  so this is read-side generosity *)
               Buffer.add_utf_8_uchar buf
                 (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep)
             | _ -> fail "bad escape");
            go ()
          end
          else begin
            Buffer.add_char buf c;
            go ()
          end
        in
        go ()
      end
    in
    (* fail, quoting the run of number characters at [start] *)
    let bad_number start what =
      let stop = ref start in
      while !stop < n && String.contains "0123456789+-.eE" src.[!stop] do
        incr stop
      done;
      pos := start;
      fail (what ^ " " ^ String.sub src start (!stop - start))
    in
    let digit () = !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' in
    (* the run of digits at [pos], which must not be empty, appended to
       [acc]; [ndigits] counts them *)
    let ndigits = ref 0 in
    let digits start acc =
      if not (digit ()) then bad_number start "bad number";
      let p0 = !pos and v = ref acc in
      while digit () do
        v := (!v * 10) + Char.code src.[!pos] - 48;
        incr pos
      done;
      ndigits := !pos - p0;
      !v
    in
    (* JSON's grammar, stricter than float_of_string's ("+1", "01" and
       "1." all read there): an optional '-', then 0 or digits not
       starting with 0, then optional '.' and digits, then optional e/E,
       sign and digits *)
    let parse_number () =
      let start = !pos in
      let neg = at '-' in
      if neg then incr pos;
      let m = ref (digits start 0) in
      let int_digits = !ndigits in
      if int_digits > 1 && src.[!pos - int_digits] = '0' then bad_number start "bad number";
      let int_end = !pos in
      let frac_digits =
        if at '.' then begin
          incr pos;
          m := digits start !m;
          !ndigits
        end
        else 0
      in
      let exp =
        if at 'e' || at 'E' then begin
          incr pos;
          let minus = at '-' in
          if minus || at '+' then incr pos;
          let e = digits start 0 in
          if !ndigits > 3 then 999 else if minus then -e else e
        end
        else 0
      in
      if !pos < n && String.contains "0123456789+-.eE" src.[!pos] then
        bad_number start "bad number";
      let e10 = exp - frac_digits in
      (* An integer literal of up to 18 digits fits an int.  Up to 15
         digits scaled by an exact power of ten round once, as
         float_of_string does.  Anything else is copied out. *)
      if !pos = int_end && int_digits <= 18 then
        if neg && !m = 0 then Num (-0.) else Int (if neg then - !m else !m)
      else if !pos > int_end && int_digits + frac_digits <= 15 && abs e10 <= 22 then begin
        let f = float_of_int !m in
        let f = if e10 >= 0 then f *. pow10.(e10) else f /. pow10.(-e10) in
        Num (if neg then -.f else f)
      end
      else begin
        let lit = String.sub src start (!pos - start) in
        match if !pos = int_end then int_of_string_opt lit else None with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt lit with
          | Some f when Float.is_finite f -> Num f
          | _ -> bad_number start "number out of range")
      end
    in
    let rec parse_value () =
      skip_ws ();
      if !pos >= n then fail "unexpected end of input";
      match src.[!pos] with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> Str (parse_string ())
      | '[' ->
        incr pos;
        Arr (entries ']' parse_value)
      | '{' ->
        incr pos;
        Obj
          (entries '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> parse_number ()
      | _ -> fail "expected value"
    (* comma-separated entries up to [close] *)
    and entries : 'a. char -> (unit -> 'a) -> 'a list =
      fun close entry ->
        skip_ws ();
        if at close then begin
          incr pos;
          []
        end
        else begin
          let rec loop acc =
            let acc = entry () :: acc in
            skip_ws ();
            if at ',' then begin
              incr pos;
              loop acc
            end
            else if at close then begin
              incr pos;
              List.rev acc
            end
            else fail (Printf.sprintf "expected ',' or '%c'" close)
          in
          loop []
        end
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos) else Ok v
    with Bad msg -> Error msg

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

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

(* [rank] is the interval's insertion rank: a registry listed newest
   first is sorted by rank descending, and the pieces one [clear] cuts
   from an interval keep its rank (they list in address order) *)
type interval = { start : int; ilen : int; info : info; rank : int }

(* int-keyed tables hashed by the key itself, without the generic
   hash's C call *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* The provenance registry, indexed by 4 KiB bucket: every interval is
   filed under each bucket its bytes touch, so an operation on a range
   visits only the intervals of the buckets it spans *)
type prov = {
  buckets : interval list ref Int_tbl.t;  (* no empty lists *)
  mutable live : int;  (* distinct live intervals *)
  mutable next_rank : int;
}

(* ---- causal trace spans (see Trace below) ---- *)

(* A causal span records *which request caused which operation*: a tree
   keyed by deterministic per-ctx ids, exportable as an OTel-style span
   list.  The profiler's node tree (below) aggregates *where cycles go*
   per call path; both hang off one stack of open frames. *)
type tspan = {
  ts_trace : int;  (* owning trace id: [trace_roots_] names its root span *)
  ts_span : int;
  ts_parent : int;  (* 0 for a trace root *)
  ts_name : string;
  ts_pid : int;
  ts_start_tick : int;
  ts_start_cycles : int;
  mutable ts_end_tick : int;  (* -1 while open *)
  mutable ts_end_cycles : int;
}

(* the span of untraced work: trace 0, span 0 *)
let no_span =
  { ts_trace = 0; ts_span = 0; ts_parent = 0; ts_name = ""; ts_pid = 0; ts_start_tick = 0;
    ts_start_cycles = 0; ts_end_tick = 0; ts_end_cycles = 0 }

(* the machine's frame classifier (see [Exposure.set_classifier]) *)
type classifier = {
  classify : addr:int -> mem_class;
  gran : int;  (* frame size: classification granularity *)
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

(* declaration order: the per-op cost arrays' index *)
let op_index = function
  | Byte_copied -> 0
  | Byte_zeroed -> 1
  | Page_fault -> 2
  | Cow_break -> 3
  | Swap_out_page -> 4
  | Swap_in_page -> 5
  | Page_cache_hit -> 6
  | Page_cache_miss -> 7
  | Disk_read_byte -> 8
  | Mont_word_mul -> 9
  | Ct_limb_op -> 10
  | Scan_byte -> 11

let num_cost_ops = 12

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
   [s_last_*] always tracks the newest *offered* sample (independent of
   retention) and [s_min]/[s_max] the all-time envelope, so spread
   predicates never lose resolution to downsampling. *)
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
  mutable s_min : float;
  mutable s_max : float;
  mutable s_derived : series list;  (* rates of this series, install order *)
}

(* ---- declarative alert rules (see Alert below) ---- *)

type alert_condition =
  | Threshold of { value : float; for_ticks : int }
  | Spread of { min_spread : float }

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
  span_key : string;  (* its duration histogram: "span.<name>.cycles" *)
  mutable calls : int;
  mutable self_cycles : int;
  children_ : (string, span_node) Hashtbl.t;
}

(* An open frame of the one span stack.  A frame opens a causal span, a
   profiler node, or both; what it does not open it inherits from the
   frame below, so the top frame always names the innermost span and
   node.  A frame owns its span (node) exactly when it differs from the
   one below; the base frame is its own [f_below] and owns nothing. *)
type frame = {
  f_span : tspan;  (* [no_span] when untraced *)
  f_node : span_node;  (* the profiler root when no node is open *)
  f_start : int;  (* cycles when the frame opened *)
  f_below : frame;
}

let make_span_node name size =
  { span_name = name;
    span_key = "span." ^ name ^ ".cycles";
    calls = 0;
    self_cycles = 0;
    children_ = Hashtbl.create size
  }

let make_span_root () = make_span_node "machine" 8

(* Counters and histograms named by strings, indexed for the write path:
   a name's slot comes from its length and two of its bytes, which costs
   no call, and call sites pass literals, so a slot's list is short and
   usually matched by physical equality.  The hash table stays the one
   the readers use. *)
type 'a sites = (string * 'a) list array

let num_sites = 64

let make_sites () : 'a sites = Array.make num_sites []

let site_slot s =
  let n = String.length s in
  if n = 0 then 0
  else
    let last = Char.code (String.unsafe_get s (n - 1))
    and mid = Char.code (String.unsafe_get s (n / 2)) in
    ((n * 7) + (last * 3) + mid) land (num_sites - 1)

(* the entry [tbl] holds under [name], created by [fresh] *)
let site_find tbl (sites : 'a sites) name ~fresh =
  let i = site_slot name in
  let rec find = function
    | (s, r) :: rest -> if s == name || String.equal s name then r else find rest
    | [] ->
      let r =
        match Hashtbl.find_opt tbl name with
        | Some r -> r
        | None ->
          let r = fresh () in
          Hashtbl.replace tbl name r;
          r
      in
      sites.(i) <- (name, r) :: sites.(i);
      r
  in
  find sites.(i)

let site_ref tbl sites name = site_find tbl sites name ~fresh:(fun () -> ref 0)

let reset_sites (sites : 'a sites) = Array.fill sites 0 num_sites []

type ctx = {
  enabled_ : bool;
  capacity : int;
  ring : record array;  (* slots past [next_seq] hold [no_record] *)
  mutable next_seq : int;
  mutable tick_ : int;
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, float list ref) Hashtbl.t;
  prov : prov;
  stashes : (int, (int * int * info) list) Hashtbl.t;
  (* causal tracing: ids come from per-ctx counters (never the wall clock
     or any RNG), so trace exports and fleet fingerprints stay
     byte-identical across runs and domain counts.  These fields sit
     ahead of the exposure block to keep [cycles_] at byte offset 160:
     perfbench inlines reads of it, and a displacement under 128 bytes
     shortens that code and shifts its calibration kernel's alignment
     (ROADMAP item 9). *)
  mutable trace_next_ : int;  (* next trace id; 0 means "untraced" *)
  mutable span_next_ : int;  (* next causal span id; 0 means "no span" *)
  mutable top_ : frame;  (* the innermost open frame, else the base frame *)
  mutable spans_ : tspan array;  (* causal spans by id; slot 0 unused *)
  trace_leak_ : int ref Int_tbl.t;
      (* trace -> sensitive byte-ticks outside mlocked-anon (the
         per-request leak budget; key 0 holds untraced exposure) *)
  (* exposure ledger *)
  mutable classifier : classifier option;
  exposure : int array;  (* by [exposure_index] *)
  mutable exposure_series : (int * ((origin * mem_class) * int) list) list;
      (* newest first *)
  mutable last_advance_ : int;
  lifetimes_ : int list array;  (* by [origin_index], newest first *)
  mutable breach_age_ : int option;
  (* cost accounting & profiler *)
  mutable cycles_ : int;
  cost_count : int array;  (* by [op_index]: units charged *)
  cost_cyc : int array;  (* by [op_index]: cycles charged *)
  cost_by_sub : (string, int ref) Hashtbl.t;
  cost_sub_sites : int ref sites;
  cost_by_origin : int array;  (* by [origin_index]; -1 = never charged *)
  prof_root_ : span_node;
  mutable trace_roots_ : int array;  (* trace -> the span that minted it; slot 0 unused *)
  (* time series & alerts *)
  series_ : (string, series) Hashtbl.t;
  mutable derived_ : (string * series) list;  (* (source, rate series), install order *)
  mutable rules_ : alert_rule list;  (* install order *)
  mutable firings_ : firing list;  (* newest first *)
  counter_sites : int ref sites;  (* [counters] by call site *)
  histogram_sites : float list ref sites;  (* [histograms] by call site *)
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
  let root = make_span_root () in
  let rec base = { f_span = no_span; f_node = root; f_start = 0; f_below = base } in
  { enabled_ = enabled;
    capacity;
    ring = Array.make (max capacity 1) no_record;
    next_seq = 0;
    tick_ = 0;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    prov = { buckets = Int_tbl.create 64; live = 0; next_rank = 0 };
    stashes = Hashtbl.create 8;
    trace_next_ = 1;
    span_next_ = 1;
    top_ = base;
    spans_ = Array.make 64 no_span;
    trace_leak_ = Int_tbl.create 16;
    classifier = None;
    exposure = Array.make (List.length all_origins * num_classes) 0;
    exposure_series = [];
    last_advance_ = 0;
    lifetimes_ = Array.make (List.length all_origins) [];
    breach_age_ = None;
    cycles_ = 0;
    cost_count = Array.make num_cost_ops 0;
    cost_cyc = Array.make num_cost_ops 0;
    cost_by_sub = Hashtbl.create 8;
    cost_sub_sites = make_sites ();
    cost_by_origin = Array.make (List.length all_origins) (-1);
    prof_root_ = root;
    trace_roots_ = Array.make 16 0;
    series_ = Hashtbl.create 32;
    derived_ = [];
    rules_ = [];
    firings_ = [];
    counter_sites = make_sites ();
    histogram_sites = make_sites ();
  }

let null = make ~enabled:false ~capacity:0

let create ?(ring_capacity = 65536) () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity must be positive";
  make ~enabled:true ~capacity:ring_capacity

let enabled ctx = ctx.enabled_
let set_tick ctx t = if ctx.enabled_ then ctx.tick_ <- t
let tick ctx = ctx.tick_

(* a sample of the named histogram (see [Metrics.observe]) *)
let observe ctx name v =
  if ctx.enabled_ then begin
    let r = site_find ctx.histograms ctx.histogram_sites name ~fresh:(fun () -> ref []) in
    r := v :: !r
  end

(* ---- the span stack ---- *)

(* the profiler node [name] under the innermost open node, entered once
   more: nodes are keyed by name per parent, so repeated calls accumulate *)
let enter_node ctx name =
  let parent = ctx.top_.f_node in
  let node =
    match Hashtbl.find_opt parent.children_ name with
    | Some n -> n
    | None ->
      let n = make_span_node name 4 in
      Hashtbl.replace parent.children_ name n;
      n
  in
  node.calls <- node.calls + 1;
  node

(* close [fr]: a span it owns gets its end clocks, a node it owns feeds
   the node's duration (simulated cycles) to its [span.<name>.cycles]
   histogram, exported to Prometheus as _bucket lines by [Metrics] *)
let close_frame ctx fr =
  let below = fr.f_below in
  if fr.f_span != below.f_span then begin
    fr.f_span.ts_end_tick <- ctx.tick_;
    fr.f_span.ts_end_cycles <- ctx.cycles_
  end;
  if fr.f_node != below.f_node then
    observe ctx fr.f_node.span_key (float_of_int (ctx.cycles_ - fr.f_start));
  ctx.top_ <- below

(* run [f] in a frame carrying [span] and [node], closing the frame
   however [f] ends: campaign ops can raise (Out_of_memory and friends) *)
let in_frame ctx span node f =
  let fr = { f_span = span; f_node = node; f_start = ctx.cycles_; f_below = ctx.top_ } in
  ctx.top_ <- fr;
  match f () with
  | v ->
    close_frame ctx fr;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_frame ctx fr;
    Printexc.raise_with_backtrace e bt

(* [a] grown, if need be, to hold index [i] *)
let with_room a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (max (2 * n) (i + 1)) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* ---- trace ---- *)

module Trace = struct
  (* ---- causal span context ---- *)

  let current_trace ctx = ctx.top_.f_span.ts_trace
  let current_span ctx = ctx.top_.f_span.ts_span

  (* A new causal span under [?parent] (an open or closed span's id), or
     else under the innermost open span.  Under no span, a fresh trace is
     minted and this span becomes its root; otherwise the span joins its
     parent's trace.  [?parent] lets a caller re-enter a trace whose root
     closed earlier (an sshd/apache connection spans several calls). *)
  let new_span ?(pid = 0) ?parent ctx name =
    let id = ctx.span_next_ in
    ctx.span_next_ <- id + 1;
    let parent =
      match parent with
      | Some p when p > 0 && p < id -> ctx.spans_.(p)
      | _ -> ctx.top_.f_span
    in
    let trace =
      if parent.ts_trace <> 0 then parent.ts_trace
      else begin
        let t = ctx.trace_next_ in
        ctx.trace_next_ <- t + 1;
        ctx.trace_roots_ <- with_room ctx.trace_roots_ t 0;
        ctx.trace_roots_.(t) <- id;
        t
      end
    in
    let s =
      { ts_trace = trace;
        ts_span = id;
        ts_parent = parent.ts_span;
        ts_name = name;
        ts_pid = pid;
        ts_start_tick = ctx.tick_;
        ts_start_cycles = ctx.cycles_;
        ts_end_tick = -1;
        ts_end_cycles = -1
      }
    in
    ctx.spans_ <- with_room ctx.spans_ id no_span;
    ctx.spans_.(id) <- s;
    s

  (* a causal span and a profiler node of the same name *)
  let with_span ?pid ?parent ctx name f =
    if not ctx.enabled_ then f ()
    else
      let span = new_span ?pid ?parent ctx name in
      in_frame ctx span (enter_node ctx name) f

  (* Record a causal child span only when a request trace is already
     active.  Kernel paths call this on every operation; untraced work
     (boot noise, background churn, scans) must not mint spurious traces
     or flood the span list.  The frame opens no profiler node. *)
  let causal ?pid ctx name f =
    if ctx.enabled_ && current_trace ctx <> 0 then
      in_frame ctx (new_span ?pid ctx name) ctx.top_.f_node f
    else f ()

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

  (* still-open spans export with the current clock as their end so a
     mid-run export renders them *)
  let info ctx id =
    let s = ctx.spans_.(id) in
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

  (* all causal spans, id order (ids are dense from 1) *)
  let[@inline never] spans ctx = List.init (ctx.span_next_ - 1) (fun i -> info ctx (i + 1))

  let span_of_id ctx id = if id > 0 && id < ctx.span_next_ then Some (info ctx id) else None

  let root_of_trace ctx trace =
    if trace > 0 && trace < ctx.trace_next_ then span_of_id ctx ctx.trace_roots_.(trace)
    else None

  (* per-request leak budget: sensitive byte-ticks outside mlocked-anon,
     attributed to the trace whose span registered the copy.  Summing the
     budgets reproduces the exposure ledger's sensitive-unsafe total
     exactly — both are accumulated by the same [Exposure.advance] pass. *)
  let leak_budget ctx =
    Int_tbl.fold (fun t r acc -> (t, !r) :: acc) ctx.trace_leak_ []
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
      ctx.ring.(ctx.next_seq mod ctx.capacity) <- r;
      ctx.next_seq <- ctx.next_seq + 1
    end

  let emitted ctx = ctx.next_seq
  let dropped ctx = max 0 (ctx.next_seq - ctx.capacity)

  let records ctx =
    let first = dropped ctx in
    let acc = ref [] in
    for seq = ctx.next_seq - 1 downto first do
      acc := ctx.ring.(seq mod ctx.capacity) :: !acc
    done;
    !acc

  let fields_of_event ev =
    let open Json in
    let copy name origin pid addr len =
      ( name,
        [ ("origin", Str (origin_name origin)); ("pid", Int pid); ("addr", Int addr);
          ("len", Int len) ] )
    in
    match ev with
    | Copy_created { origin; pid; addr; len } -> copy "copy_created" origin pid addr len
    | Copy_zeroed { origin; pid; addr; len } -> copy "copy_zeroed" origin pid addr len
    | Copy_freed_dirty { origin; pid; addr; len } -> copy "copy_freed_dirty" origin pid addr len
    | Cow_fault { pid; src_pfn; dst_pfn } ->
      ("cow_fault", [ ("pid", Int pid); ("src_pfn", Int src_pfn); ("dst_pfn", Int dst_pfn) ])
    | Page_cache_insert { ino; index; pfn } ->
      ("page_cache_insert", [ ("ino", Int ino); ("index", Int index); ("pfn", Int pfn) ])
    | Page_cache_evict { ino; index; pfn; cleared } ->
      ("page_cache_evict",
       [ ("ino", Int ino); ("index", Int index); ("pfn", Int pfn); ("cleared", Bool cleared) ])
    | Swap_out { pid; slot; pfn } ->
      ("swap_out", [ ("pid", Int pid); ("slot", Int slot); ("pfn", Int pfn) ])
    | Swap_in { pid; slot; pfn } ->
      ("swap_in", [ ("pid", Int pid); ("slot", Int slot); ("pfn", Int pfn) ])
    | Scan_started { mode } -> ("scan_started", [ ("mode", Str mode) ])
    | Scan_finished { mode; hits; pages_scanned } ->
      ("scan_finished",
       [ ("mode", Str mode); ("hits", Int hits); ("pages_scanned", Int pages_scanned) ])
    | Audit_violation { check; detail } ->
      ("audit_violation", [ ("check", Str check); ("detail", Str detail) ])
    | Exposure_breach { origin; cls; pid; addr; len; age } ->
      ("exposure_breach",
       [ ("origin", Str (origin_name origin)); ("class", Str (class_name cls));
         ("pid", Int pid); ("addr", Int addr); ("len", Int len); ("age", Int age) ])
    | Alert_fired { rule; series; value } ->
      ("alert_fired", [ ("rule", Str rule); ("series", Str series); ("value", Num value) ])

  let jsonl_of_record r =
    let name, fields = fields_of_event r.event in
    let open Json in
    to_string Compact
      (Obj
         ([ ("seq", Int r.seq); ("tick", Int r.tick); ("trace", Int r.trace);
            ("span", Int r.span); ("event", Str name) ]
         @ fields))

  let to_jsonl ctx = String.concat "" (List.map (fun r -> jsonl_of_record r ^ "\n") (records ctx))

  (* OTel-style span list: one object per causal span, id order, with
     trace_id / span_id / parent_span_id and both clocks (ticks and
     simulated cycles).  Canonical JSON — safe to fingerprint. *)
  let spans_to_json ctx =
    let open Json in
    to_string Archive
      (list
         (fun s ->
           Obj
             [ ("trace_id", Int s.sp_trace); ("span_id", Int s.sp_id);
               ("parent_span_id", Int s.sp_parent); ("name", Str s.sp_name);
               ("pid", Int s.sp_pid); ("start_tick", Int s.sp_start_tick);
               ("end_tick", Int s.sp_end_tick); ("start_cycles", Int s.sp_start_cycles);
               ("end_cycles", Int s.sp_end_cycles) ])
         (spans ctx))
    ^ "\n"

  (* Chrome-trace view of the causal spans on the simulated-cycle clock:
     each trace renders as its own process row (pid = trace id), so the
     kernel operations a request caused nest under that request's root
     span rather than under the simulated process that ran them. *)
  let spans_to_chrome ctx =
    let ss = spans ctx in
    let open Json in
    let row s =
      Obj
        [ ("name", Str "process_name"); ("ph", Str "M"); ("pid", Int s.sp_trace); ("tid", Int 0);
          ("args", Obj [ ("name", Str (Printf.sprintf "trace %d: %s" s.sp_trace s.sp_name)) ])
        ]
    in
    (* a complete event ("ph":"X") *)
    let event s =
      Obj
        [ ("name", Str s.sp_name); ("ph", Str "X"); ("ts", Int s.sp_start_cycles);
          ("dur", Int (max 1 (s.sp_end_cycles - s.sp_start_cycles)));
          ("pid", Int s.sp_trace); ("tid", Int 0);
          ("args",
           Obj
             [ ("span", Int s.sp_id); ("parent", Int s.sp_parent); ("sim_pid", Int s.sp_pid);
               ("start_tick", Int s.sp_start_tick) ]) ]
    in
    to_string Archive
      (Arr (List.map row (List.filter (fun s -> s.sp_parent = 0) ss) @ List.map event ss))
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
    if ctx.enabled_ then begin
      let r = site_ref ctx.counters ctx.counter_sites name in
      r := !r + by
    end

  let observe = observe

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
    reset_sites ctx.counter_sites;
    reset_sites ctx.histogram_sites;
    Hashtbl.reset ctx.histograms

  (* empty histograms have no percentiles: print "-" rather than NaN *)
  let pct_text vs p =
    match vs with [] -> "-" | _ -> Printf.sprintf "%.6f" (percentile vs p)

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

  (* Fixed decade bucket ladder for the _bucket exposition below: span
     durations are simulated cycles, which range from a few hundred (a
     cache probe) to hundreds of millions (a full timeline), so powers of
     ten cover every span name with one shared, deterministic ladder. *)
  let bucket_bounds = [ 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]

  (* Prometheus text exposition of every histogram as cumulative _bucket
     lines plus _sum and _count, timestamped with the simulation tick —
     the standard histogram triple, so span-duration distributions (fed
     per node name as each profiler frame closes) graph directly in Grafana. *)
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
    let i = origin_index info.origin in
    ctx.lifetimes_.(i) <- age :: ctx.lifetimes_.(i)

  (* ---- the bucket index ---- *)

  let bucket_bits = 12

  let first_bucket iv = iv.start asr bucket_bits
  let last_bucket iv = (iv.start + iv.ilen - 1) asr bucket_bits

  let file p iv =
    for b = first_bucket iv to last_bucket iv do
      match Int_tbl.find_opt p.buckets b with
      | Some ivs -> ivs := iv :: !ivs
      | None -> Int_tbl.add p.buckets b (ref [ iv ])
    done;
    p.live <- p.live + 1

  let overlapping ~addr ~e iv = iv.start < e && iv.start + iv.ilen > addr

  (* [l] without the intervals overlapping [addr, e), sharing the tail
     past the last one dropped *)
  let rec drop_overlapping ~addr ~e = function
    | [] -> []
    | iv :: rest as l ->
      let rest' = drop_overlapping ~addr ~e rest in
      if overlapping ~addr ~e iv then rest' else if rest' == rest then l else iv :: rest'

  (* drop from the buckets [b0..b1] every interval overlapping
     [addr, e): one pass over each bucket *)
  let unfile_overlapping p ~b0 ~b1 ~addr ~e =
    for b = b0 to b1 do
      match Int_tbl.find_opt p.buckets b with
      | None -> ()
      | Some ivs -> (
        match drop_overlapping ~addr ~e !ivs with
        | [] -> Int_tbl.remove p.buckets b
        | rest -> ivs := rest)
    done

  (* list order: the order a newest-first list of the registry would
     hold — newer ranks first, the pieces of one interval by address *)
  let list_order a b =
    if a.rank <> b.rank then Int.compare b.rank a.rank else Int.compare a.start b.start

  (* The distinct intervals overlapping [addr, addr+len), in list order.
     An interval filed under several buckets of the range is taken from
     the first of them only.  A range spanning more buckets than the
     index holds walks the index instead of the range. *)
  let rec gather ~addr ~e ~b0 b acc = function
    | [] -> acc
    | iv :: rest ->
      let acc =
        if overlapping ~addr ~e iv && max (first_bucket iv) b0 = b then iv :: acc else acc
      in
      gather ~addr ~e ~b0 b acc rest

  let touching p ~addr ~len =
    let e = addr + len in
    let b0 = addr asr bucket_bits and b1 = (e - 1) asr bucket_bits in
    let acc = ref [] in
    if b1 - b0 < Int_tbl.length p.buckets then
      for b = b0 to b1 do
        match Int_tbl.find_opt p.buckets b with
        | Some ivs -> acc := gather ~addr ~e ~b0 b !acc !ivs
        | None -> ()
      done
    else
      Int_tbl.iter
        (fun b ivs -> if b >= b0 && b <= b1 then acc := gather ~addr ~e ~b0 b !acc !ivs)
        p.buckets;
    match !acc with ([] | [ _ ]) as l -> l | l -> List.sort list_order l

  let file_new p ~start ~ilen info =
    file p { start; ilen; info; rank = p.next_rank };
    p.next_rank <- p.next_rank + 1

  (* file entries [(offset from base, len, info)] as one insertion: the
     first entry lists first *)
  let file_entries p ~base entries =
    let n = List.length entries in
    List.iteri
      (fun i (off, l, info) ->
        file p { start = base + off; ilen = l; info; rank = p.next_rank + n - 1 - i })
      entries;
    p.next_rank <- p.next_rank + n

  (* ---- operations ---- *)

  let clear ctx ~addr ~len =
    if ctx.enabled_ && len > 0 then
      match touching ctx.prov ~addr ~len with
      | [] -> ()
      | hits ->
        let p = ctx.prov in
        let e = addr + len in
        (* every interval overlapping the range is a hit, so the buckets
           the hits span lose exactly the overlapping intervals *)
        let b0 = List.fold_left (fun b iv -> min b (first_bucket iv)) max_int hits
        and b1 = List.fold_left (fun b iv -> max b (last_bucket iv)) min_int hits in
        unfile_overlapping p ~b0 ~b1 ~addr ~e;
        p.live <- p.live - List.length hits;
        List.iter
          (fun iv ->
            let s = iv.start and ie = iv.start + iv.ilen in
            record_lifetime ctx iv.info;
            if s < addr then file p { iv with ilen = addr - s };
            if ie > e then file p { iv with start = e; ilen = ie - e })
          hits

  let register ctx ~origin ~pid ~addr ~len =
    if ctx.enabled_ && len > 0 then begin
      clear ctx ~addr ~len;
      file_new ctx.prov ~start:addr ~ilen:len
        { origin;
          pid;
          birth_tick = ctx.tick_;
          birth_trace = Trace.current_trace ctx;
          birth_span = Trace.current_span ctx
        }
    end

  (* an empty or negative range overlaps nothing, though [touching]'s
     overlap test would let an interval straddling [addr] through *)
  let overlaps ctx ~addr ~len =
    if len <= 0 then []
    else
      let e = addr + len in
      List.map
        (fun iv ->
          let s = max iv.start addr and ie = min (iv.start + iv.ilen) e in
          (s - addr, ie - s, iv.info))
        (touching ctx.prov ~addr ~len)

  let blit ctx ~src ~dst ~len =
    if ctx.enabled_ && len > 0 then begin
      let clones = overlaps ctx ~addr:src ~len in
      clear ctx ~addr:dst ~len;
      file_entries ctx.prov ~base:dst clones
    end

  let stash ctx ~slot ~addr ~len =
    if ctx.enabled_ then Hashtbl.replace ctx.stashes slot (overlaps ctx ~addr ~len)

  let restore ctx ~slot ~addr ~len =
    if ctx.enabled_ then begin
      clear ctx ~addr ~len;
      (match Hashtbl.find_opt ctx.stashes slot with
       | Some entries -> file_entries ctx.prov ~base:addr entries
       | None -> ());
      Hashtbl.remove ctx.stashes slot
    end

  let rec newest_at addr best = function
    | [] -> best
    | iv :: rest ->
      let newer = match best with Some b -> iv.rank > b.rank | None -> true in
      newest_at addr
        (if newer && iv.start <= addr && addr < iv.start + iv.ilen then Some iv else best)
        rest

  (* the newest interval holding [addr]: only its bucket is searched *)
  let lookup ctx ~addr =
    match Int_tbl.find_opt ctx.prov.buckets (addr asr bucket_bits) with
    | None -> None
    | Some ivs -> Option.map (fun iv -> iv.info) (newest_at addr None !ivs)

  (* not inlined: perfbench reads it, and an inlined field read changes
     the size of its code and so the alignment of its calibration kernel *)
  let[@inline never] count ctx = ctx.prov.live

  (* address order: (start, len, info), the integers compared without
     the polymorphic compare *)
  let address_order a b =
    if a.start <> b.start then Int.compare a.start b.start
    else if a.ilen <> b.ilen then Int.compare a.ilen b.ilen
    else compare a.info b.info

  (* [f] on every live interval once, in index order *)
  let iter ctx f =
    Int_tbl.iter
      (fun b ivs -> List.iter (fun iv -> if first_bucket iv = b then f iv) !ivs)
      ctx.prov.buckets

  let intervals ctx =
    let acc = ref [] in
    iter ctx (fun iv -> acc := iv :: !acc);
    List.sort address_order !acc |> List.map (fun iv -> (iv.start, iv.ilen, iv.info))

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

  let set_classifier ctx ~page_size f =
    if ctx.enabled_ then ctx.classifier <- Some { classify = f; gran = page_size }

  let set_breach_age ctx age =
    if ctx.enabled_ then ctx.breach_age_ <- age

  let total ctx ~origin ~cls =
    ctx.exposure.(exposure_index origin cls)

  let totals ctx =
    List.concat_map
      (fun origin ->
        List.filter_map
          (fun cls ->
            let v = ctx.exposure.(exposure_index origin cls) in
            if v > 0 then Some ((origin, cls), v) else None)
          all_classes)
      all_origins

  let series ctx = List.rev ctx.exposure_series

  let last_advance ctx = ctx.last_advance_

  let lifetimes ctx origin = List.rev ctx.lifetimes_.(origin_index origin)

  (* Sample-and-hold integration: every live interval (and every stashed
     swap-slot image) contributes len * (t - last_advance) byte-ticks to
     its (origin, class) bucket, classified at advance time.  Intervals are
     split on frame boundaries because classification is per frame, and
     summed in whatever order the index holds them; every chunk is
     classified afresh on every advance, so the ledger needs no change
     notification from the machine.  The ledger only reads simulated
     state — it never mutates it. *)
  let advance ctx t =
    match ctx.classifier with
    | None -> ()
    | Some { classify; gran } ->
      if ctx.enabled_ && t > ctx.last_advance_ then begin
        let dt = t - ctx.last_advance_ in
        let add origin cls bytes =
          let i = exposure_index origin cls in
          ctx.exposure.(i) <- ctx.exposure.(i) + (bytes * dt)
        in
        (* per-request leak budget: the same sensitive-outside-mlock
           predicate the sensitive-unsafe headline uses, accumulated per
           originating trace in the same pass that feeds [add] — so the
           budgets sum to the ledger's sensitive byte-tick total exactly *)
        let leak (info : info) cls bytes =
          if origin_sensitive info.origin && cls <> Mlocked_anon then
            match Int_tbl.find_opt ctx.trace_leak_ info.birth_trace with
            | Some r -> r := !r + (bytes * dt)
            | None -> Int_tbl.replace ctx.trace_leak_ info.birth_trace (ref (bytes * dt))
        in
        let breach (info : info) cls addr len =
          match ctx.breach_age_ with
          | Some limit when origin_sensitive info.origin && cls <> Mlocked_anon ->
            let age = t - info.birth_tick in
            let prev_age = ctx.last_advance_ - info.birth_tick in
            if age >= limit && prev_age < limit then
              Some
                (Exposure_breach { origin = info.origin; cls; pid = info.pid; addr; len; age })
            else None
          | _ -> None
        in
        let account info cls addr len =
          add info.origin cls len;
          leak info cls len;
          breach info cls addr len
        in
        (* the live intervals in index order; only the breach events,
           which are few, are put in address order before they are
           emitted *)
        let breaches = ref [] in
        Provenance.iter ctx (fun iv ->
            let e = iv.start + iv.ilen in
            let pos = ref iv.start in
            while !pos < e do
              let next = min e (((!pos / gran) + 1) * gran) in
              (match account iv.info (classify ~addr:!pos) !pos (next - !pos) with
               | Some ev -> breaches := (iv, !pos, ev) :: !breaches
               | None -> ());
              pos := next
            done);
        List.sort
          (fun (a, pa, _) (b, pb, _) ->
            let c = Provenance.address_order a b in
            if c <> 0 then c else Int.compare pa pb)
          !breaches
        |> List.iter (fun (_, _, ev) -> Trace.emit ctx ev);
        List.iter
          (fun (slot, entries) ->
            List.iter
              (fun (off, l, info) ->
                Option.iter (Trace.emit ctx) (account info Swapped ((slot * gran) + off) l))
              entries)
          (Provenance.stashed ctx);
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
      let i = op_index op in
      ctx.cost_count.(i) <- ctx.cost_count.(i) + n;
      ctx.cost_cyc.(i) <- ctx.cost_cyc.(i) + c;
      let r = site_ref ctx.cost_by_sub ctx.cost_sub_sites sub in
      r := !r + c;
      (match origin with
       | None -> ()
       | Some o ->
         let j = origin_index o in
         ctx.cost_by_origin.(j) <- max 0 ctx.cost_by_origin.(j) + c);
      let node = ctx.top_.f_node in
      node.self_cycles <- node.self_cycles + c
    end

  let total_cycles ctx = ctx.cycles_

  (* an op is listed once charged: every charge adds a positive count *)
  let by_op ctx =
    List.filter_map
      (fun op ->
        let i = op_index op in
        if ctx.cost_count.(i) > 0 then Some (op, ctx.cost_count.(i), ctx.cost_cyc.(i))
        else None)
      all_ops

  let by_subsystem ctx =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ctx.cost_by_sub [] |> List.sort compare

  let by_origin ctx =
    List.filter_map
      (fun o ->
        let v = ctx.cost_by_origin.(origin_index o) in
        if v >= 0 then Some (o, v) else None)
      all_origins

  let reset ctx =
    ctx.cycles_ <- 0;
    Array.fill ctx.cost_count 0 num_cost_ops 0;
    Array.fill ctx.cost_cyc 0 num_cost_ops 0;
    Hashtbl.reset ctx.cost_by_sub;
    reset_sites ctx.cost_sub_sites;
    Array.fill ctx.cost_by_origin 0 (Array.length ctx.cost_by_origin) (-1)
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

  let depth ctx =
    let rec count fr n = if fr.f_below == fr then n else count fr.f_below (n + 1) in
    count ctx.top_ 0

  (* a profiler node with no causal span: the frame keeps the enclosing
     trace context *)
  let span ctx name f =
    if not ctx.enabled_ then f () else in_frame ctx ctx.top_.f_span (enter_node ctx name) f

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
      s_min = infinity;
      s_max = neg_infinity;
      s_derived = []
    }

  (* a new series picks up the rates already declared over its name *)
  let add ctx s =
    s.s_derived <-
      List.filter_map (fun (src, d) -> if src = s.s_name then Some d else None) ctx.derived_;
    Hashtbl.replace ctx.series_ s.s_name s

  let define ctx ?(kind = Gauge) ?(capacity = default_capacity) name =
    if ctx.enabled_ && not (Hashtbl.mem ctx.series_ name) then
      add ctx (make_series ~name ~kind ~source:None ~cap:capacity)

  let define_rate ctx ~source name =
    if ctx.enabled_ && not (Hashtbl.mem ctx.series_ name) then begin
      let d = make_series ~name ~kind:Gauge ~source:(Some source) ~cap:default_capacity in
      add ctx d;
      ctx.derived_ <- ctx.derived_ @ [ (source, d) ];
      match Hashtbl.find_opt ctx.series_ source with
      | Some s -> s.s_derived <- s.s_derived @ [ d ]
      | None -> ()
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
  let rec record_into ctx s v =
    let had = s.s_seen > 0 in
    let prev_tick = s.s_last_tick and prev_val = s.s_last_val in
    offer ctx s v;
    List.iter
      (fun d ->
        let dt = if had then ctx.tick_ - prev_tick else 0 in
        let rate = if dt > 0 then (v -. prev_val) /. float_of_int dt else 0. in
        record_into ctx d rate)
      s.s_derived

  let record ctx name v =
    if ctx.enabled_ then begin
      let s =
        match Hashtbl.find_opt ctx.series_ name with
        | Some s -> s
        | None ->
          let s = make_series ~name ~kind:Gauge ~source:None ~cap:default_capacity in
          add ctx s;
          s
      in
      record_into ctx s v
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

  (* Exact all-time envelope — (last, min, max) — independent of the
     ring's downsampling: these fields are updated on every [offer], so a
     series that has shed most of its points still answers precisely. *)
  let envelope ctx name =
    match find ctx name with
    | Some s when s.s_seen > 0 -> Some ((s.s_last_tick, s.s_last_val), s.s_min, s.s_max)
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
end

(* ---- declarative alert rules ---- *)

module Alert = struct
  type condition = alert_condition =
    | Threshold of { value : float; for_ticks : int }
    | Spread of { min_spread : float }

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
    | Threshold { value; for_ticks } ->
      Printf.sprintf "> %s for %d tick%s" (float_json value) for_ticks
        (if for_ticks = 1 then "" else "s")
    | Spread { min_spread } -> Printf.sprintf "spread >= %s all-time" (float_json min_spread)

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
             | Threshold { value; for_ticks } ->
               if s.s_last_val > value then begin
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
             | Spread { min_spread } ->
               let spread = s.s_max -. s.s_min in
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
end

(* ---- flight-recorder archives & structural run diffing ---- *)

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
    (* an armed breach SLO is part of the run's configuration, so a
       changed one shows in [Diff] as a meta difference *)
    let meta =
      match ctx.breach_age_ with
      | Some age -> ("breach_age", string_of_int age) :: meta
      | None -> meta
    in
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
    let open Json in
    let obj f kvs = Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
    let int i = Int i and num f = Num f and str s = Str s in
    to_string Archive
      (Obj
         [ ("flight_version", Int t.ar_version);
           ("kind", Str t.ar_kind);
           ("meta", obj str t.ar_meta);
           ("scalars", obj num t.ar_scalars);
           ( "series",
             list
               (fun e ->
                 Obj
                   [ ("name", Str e.e_name); ("kind", Str e.e_kind);
                     ("stride", Int e.e_stride); ("samples", Int e.e_samples);
                     ("last_tick", Int e.e_last_tick); ("last", Num e.e_last);
                     ("min", Num e.e_min); ("max", Num e.e_max);
                     ("points", list (fun (tk, v) -> Arr [ Int tk; Num v ]) e.e_points)
                   ])
               t.ar_series );
           ( "exposure",
             list
               (fun (o, c, v) ->
                 Obj [ ("origin", Str o); ("class", Str c); ("byte_ticks", Int v) ])
               t.ar_exposure );
           ("counters", obj int t.ar_counters);
           ("cost_subsystem", obj int t.ar_cost_subsystem);
           ( "cost_op",
             list
               (fun (op, cnt, cyc) ->
                 Obj [ ("op", Str op); ("count", Int cnt); ("cycles", Int cyc) ])
               t.ar_cost_op );
           ( "alerts",
             list
               (fun (tick, rule, series, value) ->
                 Obj
                   [ ("tick", Int tick); ("rule", Str rule); ("series", Str series);
                     ("value", Num value) ])
               t.ar_alerts );
           ("budgets", obj int t.ar_budgets);
           ( "shards",
             list
               (fun sh ->
                 Obj
                   [ ("id", Int sh.sh_id); ("label", Str sh.sh_label);
                     ("cells", obj num sh.sh_cells) ])
               t.ar_shards ) ])
    ^ "\n"

  let of_json text =
    match Json.parse text with
    | Error e -> Error ("flight archive: " ^ e)
    | Ok root ->
      let open Json in
      let jnum = function
        | Num f -> f
        | Int i -> float_of_int i
        | Null -> Float.nan
        | Bool b -> if b then 1. else 0.
        | _ -> Float.nan
      in
      let jint = function
        | Int i -> i
        | j ->
          let f = jnum j in
          if Float.is_nan f then 0 else int_of_float f
      in
      let jstr = function Str s -> s | _ -> "" in
      let g j k = Option.value ~default:Null (mem k j) in
      (* member [k] of [j], an array or an object, read entry by entry *)
      let items j k f = List.map f (match mem k j with Some (Arr l) -> l | _ -> []) in
      let members j k f =
        List.map (fun (k, v) -> (k, f v)) (match mem k j with Some (Obj l) -> l | _ -> [])
      in
      (match mem "flight_version" root with
       | Some (Int v) when v = version ->
         Ok
           (make
              ~kind:(match mem "kind" root with Some (Str s) -> s | _ -> "run")
              ~meta:(members root "meta" jstr)
              ~series:
                (items root "series" (fun j ->
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
                     }))
              ~exposure:
                (items root "exposure" (fun j ->
                     (jstr (g j "origin"), jstr (g j "class"), jint (g j "byte_ticks"))))
              ~counters:(members root "counters" jint)
              ~cost_subsystem:(members root "cost_subsystem" jint)
              ~cost_op:
                (items root "cost_op" (fun j ->
                     (jstr (g j "op"), jint (g j "count"), jint (g j "cycles"))))
              ~alerts:
                (items root "alerts" (fun j ->
                     (jint (g j "tick"), jstr (g j "rule"), jstr (g j "series"), jnum (g j "value"))))
              ~budgets:(members root "budgets" jint)
              ~scalars:(members root "scalars" jnum)
              ~shards:
                (items root "shards" (fun j ->
                     { sh_id = jint (g j "id");
                       sh_label = jstr (g j "label");
                       sh_cells = members j "cells" jnum
                     }))
              ())
       | Some ((Int _ | Num _) as v) ->
         Error
           (Printf.sprintf "flight archive: unsupported version %s (this build reads %d)"
              (to_string Compact v) version)
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

  (* Wall-clock measurements are named by their unit suffix: seconds,
     a percent of a timed run, or a per-second throughput (warn only).
     Only the suffix counts: "hist:scan.wall_s/count" and
     "series:scan.cache_hit_rate/max" are simulated values and gate. *)
  let wallclockish key =
    List.exists (fun suffix -> String.ends_with ~suffix key) [ "_s"; "_pct"; "_per_sec" ]

  (* a throughput grows when things get faster; every other magnitude
     (cycles, seconds, bytes, byte·ticks) is better smaller *)
  let higher_is_better key = String.ends_with ~suffix:"_per_sec" key

  let family_of_key key =
    if wallclockish key then Wallclock
    else if
      List.exists (has_sub key) [ "exposure"; "sensitive_unsafe"; "byte_ticks" ]
      || String.starts_with ~prefix:"budget:" key
    then Exposure
    else Deterministic

  (* NaN came from a null in the archive: two nulls agree *)
  let eq_float a b = (Float.is_nan a && Float.is_nan b) || a = b

  (* percent of [max 1 |base|] a wall-clock key may move without a delta;
     deterministic and exposure keys are exact *)
  let wall_tol_pct = 10.

  let diff base cur =
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
        let tol = match fam with Wallclock -> wall_tol_pct | Deterministic | Exposure -> 0. in
        match (Hashtbl.find_opt bt key, Hashtbl.find_opt ct key) with
        | Some b, Some c when eq_float b c -> ()
        | Some b, Some c ->
          let pct = 100. *. (c -. b) /. Float.max 1. (Float.abs b) in
          if Float.abs pct <= tol then ()
          else begin
            let verdict =
              if pct > 0. <> higher_is_better key then Regression else Improvement
            in
            deltas :=
              { d_key = key;
                d_family = fam;
                d_base = Some b;
                d_cur = Some c;
                d_verdict = verdict;
                (* a deterministic value must not move either way; an
                   exposure value gates only when it grows *)
                d_hard =
                  (match fam with
                   | Deterministic -> true
                   | Exposure -> verdict = Regression
                   | Wallclock -> false);
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
      Format.fprintf fmt "%d compared: %d improvement(s), %d regression(s), %d hard, %d new key(s)@."
        t.compared (improvements t) (regressions t) (hard_regressions t) (added t)
    end

  let to_json t =
    let open Json in
    let opt f = function None -> Null | Some v -> f v in
    let str s = Str s and num f = Num f in
    to_string Archive
      (Obj
         [ ("compared", Int t.compared);
           ( "meta",
             list
               (fun (k, b, c) ->
                 Obj [ ("key", Str k); ("base", opt str b); ("current", opt str c) ])
               t.meta_diff );
           ( "deltas",
             list
               (fun d ->
                 Obj
                   [ ("key", Str d.d_key); ("family", Str (family_name d.d_family));
                     ("base", opt num d.d_base); ("current", opt num d.d_cur);
                     ("pct", Num d.d_pct); ("verdict", Str (verdict_name d.d_verdict));
                     ("hard", Bool d.d_hard) ])
               t.deltas ) ])
    ^ "\n"
end
