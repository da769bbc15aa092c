(** Observability for the simulated machine: structured lifecycle tracing,
    named metrics, and a provenance registry joining key-copy creation
    sites with scanner hits.

    The paper's analytical core (Sections 3–4) is {e attribution}: every
    key copy found by [scanmemory] is traced back to the code path that
    produced it — the PEM read buffer, DER temporaries, BIGNUM parts, the
    Montgomery P/Q cache, the page cache, swap — and each countermeasure
    is justified by which origin it kills.  This module makes that
    attribution machine-checkable.

    A {!ctx} is threaded through the whole stack ({!Memguard_vmm.Buddy},
    [Kernel], [Page_cache], [Ssl]/[Sim_bn], [Scan_cache], [System]).  The
    default everywhere is {!null}, a permanently disabled context on which
    every operation is a constant-time no-op, so an untraced run behaves —
    and costs — exactly as before.  Tracing records facts about the
    simulation but never consumes randomness, allocates simulated memory,
    or branches the simulated state: a traced run is byte-identical to an
    untraced run at every snapshot (see the determinism guard test). *)

(** Copy-site taxonomy, one tag per origin the paper attributes (Section 4,
    Table "where key bytes transit"). *)
type origin =
  | Pem_buffer  (** the heap buffer the PEM key file is [read(2)] into *)
  | Der_temp  (** the raw DER bytes the base64 decoder produces *)
  | Bn_limbs  (** BIGNUM digit storage of d, p, q, dp, dq, qinv *)
  | Mont_cache  (** the per-process Montgomery P/Q modulus cache *)
  | Page_cache  (** file pages cached by the kernel *)
  | Swap  (** a page written out to the swap device *)
  | Heap_copy  (** other transient heap copies (the passphrase) *)
  | Bn_temp
      (** BN_CTX temporaries: reduced CRT intermediates ([m1], [m2], [h]).
          Derived values, not key parts — tracked, but not {e sensitive}. *)

val origin_name : origin -> string
(** Lower-snake-case tag used in exports ([Pem_buffer] -> ["pem_buffer"]). *)

val all_origins : origin list

val origin_sensitive : origin -> bool
(** Does this origin carry actual key material?  [false] only for
    {!Bn_temp}: the breach SLO and the confinement accounting consider
    sensitive origins only. *)

(** Memory class a physical byte lives in, the lattice the exposure ledger
    buckets by.  Classification is a property of the {e frame} (owner +
    lock flag), provided by a kernel-installed hook (see
    {!Exposure.set_classifier}). *)
type mem_class =
  | Mlocked_anon  (** anonymous and mlocked: never swapped, the safe bucket *)
  | Plain_anon  (** anonymous, unlocked: scannable and swappable *)
  | Cached  (** a page-cache frame *)
  | Kernel_buf  (** a kernel-owned buffer (e.g. ext2 block buffers) *)
  | Free_ram  (** a frame on the buddy free lists, content intact *)
  | Swapped  (** bytes resident on the swap device *)

val class_name : mem_class -> string
(** ["mlocked_anon"], ["plain_anon"], ["page_cache"], ["kernel_buf"],
    ["free_ram"], ["swap"]. *)

val all_classes : mem_class list

val float_json : float -> string
(** The number form of every export ({!Json.Num}, and the Prometheus and
    text renderers): integral values print with no fraction or exponent
    ([4096.] -> ["4096"]), the rest as ["%.6g"], and NaN / the infinities
    as ["null"] (the ["%.6g"] forms ["nan"]/["inf"] are not JSON and
    would corrupt every archive downstream; {!Snapshot.of_json} reads
    [null] back as NaN). *)

(** The one JSON codec: every JSON export builds a {!Json.t} and prints
    it with {!Json.to_string}, so string escaping, number form and layout
    are decided here alone. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Num of float  (** printed by {!float_json} *)
    | Str of string
        (** escaped for JSON, never with Printf's [%S] (whose decimal
            [\ddd] escapes JSON parsers reject); bytes from 0x80 pass
            through, so UTF-8 stays UTF-8 *)
    | Arr of t list
    | Obj of (string * t) list

  (** [Compact] prints one line (a JSONL record).  [Archive] puts one
      entry per line in the root and in each container member of a root
      object (flight archives).  [Fleet] does so in the root and its
      array members, two spaces a level (the fleet fingerprint's bytes). *)
  type layout = Compact | Archive | Fleet

  val list : ('a -> t) -> 'a list -> t
  (** [list f xs] is [Arr (List.map f xs)]. *)

  val to_string : layout -> t -> string
  (** No trailing newline. *)

  val parse : string -> (t, string) result
  (** One whole document; [Error] names the byte offset.  Integer
      literals read as [Int] (past the int range, as [Num]), but [-0]
      reads as [Num (-0.)], so [float_json (-0.)] round-trips. *)

  val mem : string -> t -> t option
  (** A member of an object. *)
end

(** Typed lifecycle events.  Addresses are {e physical} (or swap-device
    offsets for {!Swap_out}); a virtually contiguous buffer that spans
    frames emits one event per physical chunk. *)
type event =
  | Copy_created of { origin : origin; pid : int; addr : int; len : int }
  | Copy_zeroed of { origin : origin; pid : int; addr : int; len : int }
  | Copy_freed_dirty of { origin : origin; pid : int; addr : int; len : int }
      (** freed without zeroing: the bytes survive into reusable memory *)
  | Cow_fault of { pid : int; src_pfn : int; dst_pfn : int }
  | Page_cache_insert of { ino : int; index : int; pfn : int }
  | Page_cache_evict of { ino : int; index : int; pfn : int; cleared : bool }
  | Swap_out of { pid : int; slot : int; pfn : int }
  | Swap_in of { pid : int; slot : int; pfn : int }
  | Scan_started of { mode : string }
  | Scan_finished of { mode : string; hits : int; pages_scanned : int }
  | Audit_violation of { check : string; detail : string }
      (** an invariant audit (see [Memguard_fault.Audit]) found the machine
          in a state that should be unreachable *)
  | Exposure_breach of {
      origin : origin;
      cls : mem_class;
      pid : int;
      addr : int;
      len : int;
      age : int;
    }
      (** SLO breach: sensitive key bytes outside {!Mlocked_anon} crossed
          the configured age (see {!Exposure.set_breach_age}).  Emitted
          once per interval chunk, at the first {!Exposure.advance} whose
          age reaches the limit. *)
  | Alert_fired of { rule : string; series : string; value : float }
      (** A declarative alert rule (see {!Alert.install}) fired: its
          condition over [series] became true at this tick.  [value] is
          the observed value/rate/spread that crossed the rule. *)

type record = { seq : int; tick : int; event : event; trace : int; span : int }
(** [seq] is a global monotone counter, [tick] the simulation time last
    announced via {!set_tick} (scan snapshots set it to their [~time]).
    [trace]/[span] name the causal span open when the event was emitted
    (see {!Trace.with_span}); [0] means untraced. *)

type ctx

val null : ctx
(** The permanently disabled context: every operation is a no-op, nothing
    is ever recorded.  The default throughout the library. *)

val create : ?ring_capacity:int -> unit -> ctx
(** An enabled context.  [ring_capacity] (default [65536]) bounds the
    event ring; when it overflows the {e oldest} events are dropped and
    counted (see {!Trace.dropped}). *)

val enabled : ctx -> bool

val set_tick : ctx -> int -> unit
(** Set the logical timestamp stamped on subsequent events. *)

val tick : ctx -> int

module Trace : sig
  (** {2 Causal request tracing}

      Request-scoped causal spans: a causal span records {e which request
      caused which operation}, the {!Profiler} call tree {e where cycles
      go}.  Both hang off one stack of open frames, and a frame opens a
      span, a profiler node, or both: {!with_span} opens both, {!causal}
      a span only, {!Profiler.span} a node only; what a frame does not
      open it inherits from the frame below.  Connection handlers mint
      a trace per connection ([sshd.connection] / [apache.connection]),
      [Ssl.load_private_key] mints one per boot-time key load, and kernel
      operations (fault, COW, swap, read_file, fork, zero_mem, buddy
      zero-on-free, page-cache fill/evict) record child spans via
      {!causal} while a trace is active.  Every ring {!record} and every
      {!Provenance} registration is stamped with the active trace/span,
      so scanner hits, exposure breaches and alert firings join back to
      the originating request.  Ids come from deterministic per-ctx
      counters — never a clock or RNG — so trace exports (and fleet
      fingerprints built over them) are byte-identical across runs and
      domain counts. *)

  val with_span : ?pid:int -> ?parent:int -> ctx -> string -> (unit -> 'a) -> 'a
  (** Run [f] in a frame with a causal span and a profiler node named
      [name], closed even if [f] raises.  The span is a child of the
      innermost open span, or of span [?parent] — pass a connection's
      root span id to re-enter its trace after the root closed (a
      connection spans open/transfer/close calls) — and joins its
      parent's trace; under no span it mints a fresh trace as its root.
      Calls [f] directly when disabled. *)

  val causal : ?pid:int -> ctx -> string -> (unit -> 'a) -> 'a
  (** A causal span with no profiler node, recorded only when a trace is
      already active — the kernel-side hook, so untraced work (boot
      noise, background churn, scans) does not mint spurious traces. *)

  val current_span : ctx -> int
  (** Id of the innermost open span, [0] when untraced. *)

  type span_info = {
    sp_trace : int;
    sp_id : int;
    sp_parent : int;  (** [0] for a trace root *)
    sp_name : string;
    sp_pid : int;
    sp_start_tick : int;
    sp_end_tick : int;
    sp_start_cycles : int;
    sp_end_cycles : int;
  }

  val spans : ctx -> span_info list
  (** Every causal span, id order.  Still-open spans export with the
      current tick/cycle clock as their end. *)

  val root_of_trace : ctx -> int -> span_info option
  (** The span that minted a trace — the originating request. *)

  val span_of_id : ctx -> int -> span_info option

  val leak_budget : ctx -> (int * int) list
  (** Per-trace leak budget: sensitive byte·ticks outside mlocked-anon
      attributable to each trace's copies, trace-id sorted (trace [0] is
      the untraced bucket; zero-budget traces are omitted).  Accumulated
      by the same {!Exposure.advance} pass as the ledger, so the budgets
      sum {e exactly} to the ledger's sensitive-unsafe total. *)

  val spans_to_json : ctx -> string
  (** OTel-style span list: one object per span with [trace_id] /
      [span_id] / [parent_span_id], name, pid and both clocks.  Canonical
      JSON — safe to fingerprint. *)

  val spans_to_chrome : ctx -> string
  (** Chrome-trace view of the causal spans on the simulated-cycle clock
      — the repo's one Chrome-trace writer ([forensics --chrome],
      [overhead --trace]).
      Each trace renders as its own process row (pid = trace id) with a
      [process_name] metadata record naming the originating request, so
      kernel spans nest under the request that caused them. *)

  (** {2 Event ring} *)

  val emit : ctx -> event -> unit

  val records : ctx -> record list
  (** Retained records, oldest first. *)

  val emitted : ctx -> int
  (** Total events emitted (including dropped ones). *)

  val dropped : ctx -> int
  (** Events lost to ring overflow. *)

  val jsonl_of_record : record -> string
  (** One JSON object, no trailing newline. *)

  val to_jsonl : ctx -> string
  (** Newline-terminated JSONL, one object per retained record. *)
end

module Metrics : sig
  val incr : ?by:int -> ctx -> string -> unit
  (** Bump a named monotonic counter (created on first use). *)

  val observe : ctx -> string -> float -> unit
  (** Append a sample to a named histogram. *)

  val counter : ctx -> string -> int
  (** Current value ([0] if never bumped). *)

  val counters : ctx -> (string * int) list
  (** Name-sorted. *)

  val samples : ctx -> string -> float list
  (** Histogram samples in insertion order ([[]] if absent). *)

  val histograms : ctx -> string list
  (** Test oracle: histogram names, sorted. *)

  val percentile : float list -> float -> float
  (** [percentile samples p] — nearest-rank percentile, [p] in [0..100].
      [nan] on an empty list. *)

  val reset : ctx -> unit
  (** Test oracle: zero every counter and histogram (the trace ring is
      untouched). *)

  val dump : Format.formatter -> ctx -> unit
  (** Human-readable table: counters, then histograms as
      [count / p50 / p90 / p99 / max] ([-] for empty histograms). *)

  val to_prometheus : ?labels:(string * string) list -> ctx -> string
  (** Prometheus text exposition of every histogram as the standard
      triple: cumulative [_bucket{le="..."}] lines over one shared
      decade ladder, [1e2 .. 1e8] (plus [le="+Inf"]), then [_sum] and [_count],
      timestamped with the simulation tick.  Span-duration histograms
      (fed per span name by {!Profiler.span} as
      [span.<name>.cycles]) export here.  [labels] (default none)
      prepends extra label pairs to every sample line — e.g.
      [("level", "integrated")] so multi-level scrapes don't collide. *)
end

(** Registry of physical byte ranges known to hold copies of key-material,
    keyed by origin.  Creation sites {!register} the range; zeroing sites
    {!clear} it; COW duplication and swap round-trips {!blit} / {!stash} /
    {!restore} it.  A scanner hit is attributed by {!lookup} on its
    physical address.

    The registry is indexed by 4 KiB bucket: each interval is filed under
    every bucket its bytes touch, and each operation visits only the
    buckets its range spans, so its cost follows the copies near the
    range, not the registry's size.  Every interval carries an insertion
    rank; results that list several intervals ({!stashed} entries,
    {!Exposure.lifetimes}) come newest first, and the pieces a {!clear}
    cuts from one interval in address order. *)
module Provenance : sig
  type info = {
    origin : origin;
    pid : int;
    birth_tick : int;
    birth_trace : int;
        (** the causal trace active when the copy was registered ([0] =
            untraced); clones made by {!blit}/{!stash}/{!restore} keep
            the original, so a key's whole fan-out attributes to the
            originating request *)
    birth_span : int;
        (** the causal span that registered the copy — the anchor of the
            forensic syscall chain ([0] = none) *)
  }

  val register : ctx -> origin:origin -> pid:int -> addr:int -> len:int -> unit
  (** Record that [\[addr, addr+len)] (physical) now holds a copy born at
      the current tick, stamped with the active causal trace/span.
      Overlapping older intervals are superseded. *)

  val clear : ctx -> addr:int -> len:int -> unit
  (** The bytes were destroyed (zeroed or overwritten by a cleared frame):
      drop — and where partially covered, trim — overlapping intervals. *)

  val blit : ctx -> src:int -> dst:int -> len:int -> unit
  (** Physical copy (COW break): clone every interval overlapping
      [\[src, src+len)] onto the destination range, preserving origin,
      pid and birth tick. *)

  val stash : ctx -> slot:int -> addr:int -> len:int -> unit
  (** Save the intervals overlapping a frame about to be swapped out,
      keyed by swap slot (offsets relative to [addr]).  The in-RAM
      intervals are left in place: the frame content survives into the
      free lists. *)

  val restore : ctx -> slot:int -> addr:int -> len:int -> unit
  (** Swap-in: clear [\[addr, addr+len)] and re-register the stashed
      intervals there with their original identity. *)

  val lookup : ctx -> addr:int -> info option
  (** The interval containing physical [addr], if any (the newest, should
      intervals overlap).  Visits only [addr]'s bucket: cost linear in
      the intervals touching that 4 KiB page. *)

  val count : ctx -> int
  (** Live intervals (diagnostics).  O(1): a field kept by the index. *)

  val intervals : ctx -> (int * int * info) list
  (** Every live interval as [(addr, len, info)], sorted by address.
      Audit accessor: the registry's well-formedness (in-bounds,
      positive-length, non-overlapping) is itself an invariant. *)

  val stashed : ctx -> (int * (int * int * info) list) list
  (** The swap-slot stashes as [(slot, [(offset, len, info); ...])],
      sorted by slot: key bytes currently resident on the swap device
      (stashed at swap-out, removed at swap-in).  The exposure ledger
      accounts these under {!Swapped}. *)

  val covering : ctx -> addr:int -> len:int -> (origin * int) list
  (** Per-origin byte counts of the intervals overlapping the range,
      origin-sorted — the annotation source for [/proc]-style maps. *)
end

(** The exposure ledger: byte·ticks of key-copy residence integrated per
    (origin × memory class) as simulation time advances.

    The kernel installs a {e classifier} (a frame-descriptor lookup) at
    boot; [System.scan] calls {!advance} once per tick.  Each advance adds
    [len * dt] byte·ticks for every live provenance interval — classified
    at advance time, split on frame boundaries — plus every stashed
    swap-slot image (class {!Swapped}).  Every advance walks the intervals
    and classifies each chunk afresh (breach events are emitted in
    address order), so class transitions (COW break, swap-out, eviction,
    free-without-zero) re-bucket intervals at the next advance with no
    change notification from the machine.  The ledger only reads simulated state; a
    ledger-on run stays byte-identical to an obs-off run. *)
module Exposure : sig
  type nonrec mem_class = mem_class =
    | Mlocked_anon
    | Plain_anon
    | Cached
    | Kernel_buf
    | Free_ram
    | Swapped

  val set_classifier : ctx -> page_size:int -> (addr:int -> mem_class) -> unit
  (** Install the frame classifier (called by [Kernel.create]; last caller
      wins — one machine per context).  [page_size] is the classification
      granularity: intervals are split on these boundaries, and {!advance}
      calls the classifier once per chunk.  No-op on a disabled context. *)

  val set_breach_age : ctx -> int option -> unit
  (** Age limit (in ticks) after which a {e sensitive} interval outside
      {!Mlocked_anon} raises [Exposure_breach].  [None] (default)
      disables the SLO. *)

  val advance : ctx -> int -> unit
  (** Integrate exposure up to tick [t].  No-op when [t <= last_advance],
      when no classifier is installed, or on a disabled context. *)

  val last_advance : ctx -> int

  val total : ctx -> origin:origin -> cls:mem_class -> int
  (** Test oracle: accumulated byte·ticks in one bucket. *)

  val totals : ctx -> ((origin * mem_class) * int) list
  (** Every non-zero bucket, sorted. *)

  val series : ctx -> (int * ((origin * mem_class) * int) list) list
  (** One [(tick, totals)] snapshot per effective {!advance},
      chronological — the dashboard's time series (cumulative). *)

  val lifetimes : ctx -> origin -> int list
  (** Birth-to-zeroed ages (ticks) of every destroyed interval of this
      origin, in destruction order (fed by [Provenance.clear]). *)
end

(** Deterministic simulated-cycle cost accounting: what each
    countermeasure {e costs}, in the same spirit as the paper's
    performance evaluation of zero-on-free, [O_NOCACHE] re-reads and COW
    fault handling.

    One constant record, {!Cost.default_model}, prices every primitive
    operation the simulation performs (a byte copied, a byte zeroed, a
    page fault, a swap round-trip, a Montgomery word-multiply, ...).  Instrumentation
    sites in [Kernel]/[Buddy]/[Swap]/[Page_cache]/[Bn.Mont]/[Scanner]
    call {!Cost.charge}; charges accumulate into a global cycle clock,
    per-op / per-subsystem / per-origin breakdowns, and the innermost
    open {!Profiler} span.  Charging mutates only observer state — never
    the simulated machine — so totals are exact, reproducible, and a
    profiler-on run stays byte-identical to a profiler-off run. *)
module Cost : sig
  (** Priced primitive operations. *)
  type op =
    | Byte_copied  (** one byte moved by CPU copy (memcpy, user I/O) *)
    | Byte_zeroed  (** one byte cleared (zero_mem, zero-on-free) *)
    | Page_fault  (** fixed cost of a minor fault (fresh anon page) *)
    | Cow_break  (** fixed cost of a COW fault, excluding the page copy *)
    | Swap_out_page  (** fixed per-page swap-device write *)
    | Swap_in_page  (** fixed per-page swap-device read *)
    | Page_cache_hit  (** page-cache lookup that hit *)
    | Page_cache_miss  (** page-cache fill, excluding the disk bytes *)
    | Disk_read_byte  (** one byte transferred from the backing file *)
    | Mont_word_mul  (** one Montgomery word multiply-accumulate *)
    | Ct_limb_op  (** one limb touched by a constant-time sweep *)
    | Scan_byte  (** one byte examined by the key scanner *)

  type model = {
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
  (** Cost of each {!op} in simulated cycles. *)

  val default_model : model
  (** Test oracle: one cycle per RAM byte; faults and device ops carry large
      fixed costs; disk bytes are ~16x RAM bytes; a Montgomery word-multiply is
      4 cycles.  [Ct_limb_op] is priced 0 — it is a leakage witness (counts land
      in {!by_op} and the telemetry series) covering the same limbs the word-mul
      price already pays for.  Ratios matter more than absolutes — the model is
      deterministic, so totals are exact across runs. *)

  val cost : model -> op -> int
  (** Test oracle: the cycles one [op] costs under a model. *)

  val charge : ctx -> sub:string -> ?origin:origin -> op -> int -> unit
  (** [charge ctx ~sub op n] adds [n * cost default_model op] simulated cycles,
      attributed to subsystem [sub] (e.g. ["kernel"], ["swap"],
      ["bignum"]), optionally to a key-copy [origin], and to the
      innermost open profiler span.  No-op when disabled or [n <= 0]. *)

  val total_cycles : ctx -> int
  (** The global simulated-cycle clock. *)

  val by_op : ctx -> (op * int * int) list
  (** [(op, count, cycles)] per charged op, in {!op} declaration order. *)

  val by_subsystem : ctx -> (string * int) list
  (** Cycles per subsystem tag, name-sorted.  Sums exactly to
      {!total_cycles}. *)

  val by_origin : ctx -> (origin * int) list
  (** Test oracle: cycles attributed to key-copy origins (charges that passed
      [?origin]), sorted.  A partial view: most charges carry none. *)

  val reset : ctx -> unit
  (** Test oracle: zero the clock and every breakdown (the profiler tree is
      untouched). *)
end

(** Hierarchical span profiler over the simulated-cycle clock.

    Nodes open on the causal spans' stack of frames, by {!Trace.with_span}
    (with a span) or {!Profiler.span} (without); {!Cost.charge} lands in
    the innermost open node.  Nodes aggregate into a call tree rooted at
    ["machine"] — keyed by name per parent, so repeated calls accumulate
    — and each closed node feeds its duration to the
    [span.<name>.cycles] histogram. *)
module Profiler : sig
  type node
  (** A call-tree node: a span name in one calling context. *)

  val node_name : node -> string

  val node_calls : node -> int
  (** Times a span of this name was entered in this context. *)

  val node_self_cycles : node -> int
  (** Test oracle: cycles charged while this node was innermost. *)

  val node_children : node -> node list
  (** Name-sorted. *)

  val node_total_cycles : node -> int
  (** Self plus all descendants.  On {!root} this equals
      {!Cost.total_cycles}. *)

  val root : ctx -> node
  (** The ["machine"] root.  Charges made with no open span land in its
      self cycles. *)

  val depth : ctx -> int
  (** Frames currently open, of either kind: [0] between operations. *)

  val span : ctx -> string -> (unit -> 'a) -> 'a
  (** [span ctx name f] runs [f] in a frame with a profiler node opened
      as a child of the innermost open node (or the root), and no causal
      span: [f] keeps the enclosing trace.  The frame is closed even if
      [f] raises.  Calls [f] directly when disabled. *)

  val to_collapsed : ctx -> string
  (** Collapsed-stack (flamegraph) text: one
      ["machine;parent;child <self_cycles>"] line per node with nonzero
      self cycles (leaves always emitted), sorted — feed to
      [flamegraph.pl] or speedscope. *)
end

(** Per-tick metric time series: how exposure, memory pressure, scan
    latency and cycle spend {e evolve} over a run, not just their end-of-
    run aggregates.

    Each series is a fixed-capacity buffer of [(tick, value)] points.
    When it fills, every other retained point is dropped and the
    acceptance stride doubles (1, 2, 4, ...), so an arbitrarily long run
    keeps a full-span history at geometrically decaying resolution.  The
    newest offered sample and the all-time min/max envelope are tracked at
    full resolution regardless, so {!Alert} predicates never alias.
    [System.scan] samples the kernel, the exposure ledger, the scanner and
    the cost model into well-known series once per tick; any subsystem
    may {!record} its own.  Recording mutates observer state only —
    series-on runs stay byte-identical to series-off runs. *)
module Timeseries : sig
  (** [Counter] marks cumulative series (monotone, rate-able); [Gauge] is
      an instantaneous level.  The kind only affects labeling (and the
      Prometheus [# TYPE] line) — storage is identical. *)
  type kind = Gauge | Counter

  val kind_name : kind -> string
  (** ["gauge"] / ["counter"]. *)

  val define : ctx -> ?kind:kind -> ?capacity:int -> string -> unit
  (** Declare a series (idempotent; no-op when disabled).  Recording into
      an undeclared name auto-defines a default-capacity gauge, so
      [define] is only needed for non-default kind or capacity. *)

  val define_rate : ctx -> source:string -> string -> unit
  (** Declare a {e derived} series: every sample offered to [source]
      appends [(v - prev) / (tick - prev_tick)] to this series (0 when
      the source has no previous sample or time has not advanced).  The
      standard way to turn a cumulative counter into a per-tick rate. *)

  val record : ctx -> string -> float -> unit
  (** Offer a sample at the current {!tick}.  Multiple samples on one
      tick are all offered (the sentinel records one per private_op). *)

  val names : ctx -> string list
  (** Defined series names, sorted. *)

  val points : ctx -> string -> (int * float) list
  (** Retained points, oldest first ([[]] if unknown). *)

  val last : ctx -> string -> (int * float) option
  (** Test oracle: newest offered sample, independent of retention. *)

  val sample_count : ctx -> string -> int
  (** Total samples offered (deterministic — [bench/flight_baseline.json]
      pins it). *)

  val retained : ctx -> string -> int
  (** Test oracle: points currently held (<= capacity). *)

  val stride : ctx -> string -> int
  (** Current acceptance stride (doubles at each downsampling). *)

  val spread : ctx -> string -> float
  (** Test oracle: all-time [max - min] over offered samples ([0.] with <= 1
      sample).  The leakage sentinel's "zero variance" is [spread = 0]. *)

  val kind : ctx -> string -> kind option

  val source : ctx -> string -> string option
  (** [Some src] when the series is a derived per-tick rate of [src]
      (see {!define_rate}); [None] for directly recorded series.  A
      {!Snapshot} tags such series with kind ["rate"]. *)

  val envelope : ctx -> string -> ((int * float) * float * float) option
  (** Test oracle: [((last_tick, last), min, max)] over {e all} offered
      samples — exact regardless of how far the ring has downsampled,
      because these fields update on every offer.  [None] for an unknown
      or never-sampled series. *)

  val to_prometheus : ?labels:(string * string) list -> ctx -> string
  (** Prometheus text exposition: a [# TYPE] line plus
      [memguard_<sanitized_name>{series="<raw name>"} <last_value> <tick>]
      per series.  Counters (not derived rates) carry the conventional
      [_total] suffix; the [series] label holds the raw dotted name with
      backslash/quote/newline escaped per the exposition format.
      [labels] (default none) prepends extra label pairs to every sample
      line — e.g. [("level", "integrated")] so scrapes of several
      protection levels don't collide on the series name.  The series'
      one JSON form is the [series] section of a {!Snapshot}. *)
end

(** Declarative SLO alerting over {!Timeseries}.

    A rule names a series and a condition; [System.scan] calls {!eval}
    once per tick after sampling.  Rules are edge-triggered: a rule fires
    once when its condition becomes true and re-arms only after it goes
    false, so a sustained violation produces one deterministic
    {!Alert_fired} event, not one per tick.  Evaluation mutates observer
    state only. *)
module Alert : sig
  type condition =
    | Threshold of { value : float; for_ticks : int }
        (** the last sample is above [value] for [for_ticks] consecutive
            evaluations (e.g. [sensitive_unsafe > 0 for 3]) *)
    | Spread of { min_spread : float }
        (** [max - min >= min_spread] over every offered sample (the
            all-time envelope).  With [min_spread = 1.] on a cycle-count
            series this is the constant-time leakage sentinel: any
            variance fires. *)

  val install : ctx -> name:string -> series:string -> condition -> unit
  (** Add a rule (idempotent per [name]; no-op when disabled).  No rules
      are installed by default — an unconfigured run never fires. *)

  val rules : ctx -> (string * string * condition) list
  (** Installed rules in install order as [(name, series, condition)]. *)

  val describe_condition : condition -> string
  (** Human-readable condition, e.g. ["> 0 for 3 ticks"]. *)

  val eval : ctx -> tick:int -> unit
  (** Evaluate every rule at [tick].  Rules over series with no samples
      yet are skipped. *)

  val firings : ctx -> (int * string * string * float) list
  (** The firing log, chronological, as [(tick, rule, series, value)]. *)

  val fired : ctx -> string -> int
  (** Test oracle: times the named rule has fired ([0] if unknown). *)
end

(** Flight-recorder archive: the full observable state of one run —
    series envelopes with retained points, the exposure ledger per
    origin x class, counters, per-subsystem / per-op cost totals, alert
    firings, per-request leak budgets, free-form scalars, and (for fleet
    runs) per-shard rollups — as one versioned, canonical, diffable JSON
    document.  Recording reads observer state only: a recorder-on run is
    byte-identical to a recorder-off run. *)
module Snapshot : sig
  val version : int
  (** Test oracle: archive format version ([1]); {!of_json} rejects any
      other. *)

  (** Per-series envelope: the exact all-time last / min / max (updated
      on every offer, independent of downsampling) plus the retained,
      possibly strided points. *)
  type series_env = {
    e_name : string;
    e_kind : string;  (** ["gauge"] / ["counter"] / ["rate"] *)
    e_stride : int;
    e_samples : int;  (** total offered, not retained *)
    e_last_tick : int;
    e_last : float;
    e_min : float;
    e_max : float;
    e_points : (int * float) list;
  }

  (** One fleet shard's rollup: named scalar cells
      (e.g. ["requests"], ["sensitive_unsafe"]). *)
  type shard_env = { sh_id : int; sh_label : string; sh_cells : (string * float) list }

  type t = {
    ar_version : int;
    ar_kind : string;  (** ["timeline"] / ["overhead"] / ["fleet"] / ... *)
    ar_meta : (string * string) list;  (** config identity: level, seed, pages... *)
    ar_series : series_env list;
    ar_exposure : (string * string * int) list;  (** (origin, class, byte-ticks) *)
    ar_counters : (string * int) list;
    ar_cost_subsystem : (string * int) list;
    ar_cost_op : (string * int * int) list;  (** (op, count, cycles) *)
    ar_alerts : (int * string * string * float) list;
        (** (tick, rule, series, value), chronological *)
    ar_budgets : (string * int) list;
        (** leak budgets in byte-ticks, keyed ["t<trace>"] (single run) or
            ["s<shard>:t<trace>"] (fleet) *)
    ar_scalars : (string * float) list;  (** free-form named measurements *)
    ar_shards : shard_env list;
  }

  val make :
    ?kind:string ->
    ?meta:(string * string) list ->
    ?series:series_env list ->
    ?exposure:(string * string * int) list ->
    ?counters:(string * int) list ->
    ?cost_subsystem:(string * int) list ->
    ?cost_op:(string * int * int) list ->
    ?alerts:(int * string * string * float) list ->
    ?budgets:(string * int) list ->
    ?scalars:(string * float) list ->
    ?shards:shard_env list ->
    unit ->
    t
  (** Assemble an archive from components.  Every component is stored
      name-sorted (alerts stay chronological), so construction order
      never leaks into the canonical bytes. *)

  val of_scalars : ?kind:string -> ?meta:(string * string) list -> (string * float) list -> t
  (** Scalars-only archive — the shape of the overhead flight archive,
      of [bench/flight_simulated.json] (the bench's simulated keys, gated
      by [dune runtest]) and of [BENCH_scan.json] (wall-clock keys only,
      gated by nothing). *)

  val record :
    kind:string ->
    ?meta:(string * string) list ->
    ?scalars:(string * float) list ->
    ?shards:shard_env list ->
    ctx ->
    t
  (** Capture everything observable in [ctx]: all sampled series (with
      exact envelopes), {!Exposure.totals}, counters, {!Cost.by_subsystem}
      and {!Cost.by_op}, {!Alert.firings} and {!Trace.leak_budget}
      (keyed ["t<trace>"]).  When the breach SLO is armed
      ({!Exposure.set_breach_age}), meta also holds its age as
      ["breach_age"].  Adds computed scalars:
      ["exposure.sensitive_unsafe_total"] (byte-ticks of sensitive
      origins outside mlocked memory — the paper's headline, [0] at
      Integrated) and ["hist:<name>/count"] per histogram.  Read-only on
      [ctx]. *)

  val to_json : t -> string
  (** Canonical versioned JSON — byte-stable for equal archives. *)

  val of_json : string -> (t, string) result
  (** Test oracle: parse an archive; [Error] on malformed JSON or a version this
      build does not read.  [null] numerics become NaN.  Unknown fields are
      ignored, missing components default empty. *)

  val write : string -> t -> unit
  (** [write path t] writes {!to_json} to [path]. *)

  val read : string -> (t, string) result
  (** Read and parse the archive at a path; [Error] with the I/O or
      parse message on failure. *)

  val scalars : t -> (string * float) list
  (** Flatten the archive into one sorted scalar key space — the
      alignment domain for {!Diff.diff}: raw scalars under their own
      names, plus ["series:<name>/last|min|max|samples"],
      ["exposure:<origin>/<class>"], ["counter:<name>"], ["cost:total"],
      ["cost:<subsystem>"], ["cost:op:<op>/count|cycles"],
      ["alert:fired:<rule>"], ["budget:<key>"] and
      ["shard:<id>/<cell>"]. *)
end

(** Structural differ over two {!Snapshot} archives.

    Archives are flattened ({!Snapshot.scalars}) and aligned by key;
    every differing key becomes a {!Diff.delta} classified by metric
    family: deterministic simulation outputs (exact by default, any
    change in either direction is {e hard}), wall-clock measurements
    (tolerant and warn-only — host noise must never gate), and exposure
    byte-ticks (exact, and any growth is hard — the security result
    itself).  Two archives from the same seed and config diff to zero
    deltas. *)
module Diff : sig
  type family = Deterministic | Wallclock | Exposure

  type verdict = Improvement | Regression | Neutral

  type delta = {
    d_key : string;
    d_family : family;
    d_base : float option;  (** [None] = key absent in the base archive *)
    d_cur : float option;  (** [None] = key vanished from the current archive *)
    d_verdict : verdict;
    d_hard : bool;
        (** fails the gate: any deterministic change, exposure growth, or
            a vanished non-wall-clock key *)
    d_pct : float;  (** signed percent change ([0.] when a side is absent) *)
  }

  type t = {
    meta_diff : (string * string option * string option) list;
        (** meta keys whose values differ, as [(key, base, current)] *)
    deltas : delta list;  (** key-sorted; only differing keys appear *)
    compared : int;  (** total aligned keys examined *)
  }

  val family_name : family -> string
  (** ["deterministic"] / ["wall-clock"] / ["exposure"]. *)

  val verdict_name : verdict -> string
  (** ["improvement"] / ["regression"] / ["neutral"]. *)

  val family_of_key : string -> family
  (** Test oracle: classify a flattened key: wall-clock if it ends in [_s],
      [_pct] or [_per_sec] (suffix only — ["hist:scan.wall_s/count"] is a
      simulated count); else exposure if it mentions ["exposure"],
      ["sensitive_unsafe"] or ["byte_ticks"] or is a ["budget:"] entry; else
      deterministic. *)

  val diff : Snapshot.t -> Snapshot.t -> t
  (** [diff base current] aligns and classifies.  A value changed
      beyond its family tolerance (percent of [max 1 |base|]: [0]
      deterministic, [10] wall-clock, [0] exposure) is a {!Regression}
      when it grew and an {!Improvement} when it shrank — every recorded magnitude (cycles,
      byte-ticks, seconds, firings) reads "less is better", except a
      [_per_sec] throughput, which reads "more is better".  A
      deterministic delta is hard in either direction (the baseline must
      be re-recorded); an exposure delta is hard only as a regression; a
      wall-clock delta is never hard.  A key vanished from [current] is a
      (hard, unless wall-clock) regression; a new key is a {!Neutral}
      note.  Equal or within-tolerance keys produce no delta. *)

  val improvements : t -> int
  val regressions : t -> int

  val hard_regressions : t -> int
  (** Deltas with [d_hard] set — the gate signal.  Counts a shrunken
      deterministic value too, whose verdict reads {!Improvement}. *)

  val added : t -> int
  (** Keys present only in the current archive (neutral notes). *)

  val pp : Format.formatter -> t -> unit
  (** Text report: meta changes, one row per delta (key, family, base,
      current, delta%%, verdict with [[hard]]/[[warn]] tag), summary
      line — or a single "no deltas" line. *)

  val to_json : t -> string
  (** Canonical JSON: [{"compared", "meta": [...], "deltas": [...]}]. *)
end
