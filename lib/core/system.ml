open Memguard_kernel
module Prng = Memguard_util.Prng
module Rsa = Memguard_crypto.Rsa
module Ssl = Memguard_ssl.Ssl
module Scanner = Memguard_scan.Scanner
module Report = Memguard_scan.Report
module Sshd = Memguard_apps.Sshd
module Apache = Memguard_apps.Apache
module Ext2_leak = Memguard_attack.Ext2_leak
module Tty_dump = Memguard_attack.Tty_dump

module Scan_cache = Memguard_scan.Scan_cache
module Obs = Memguard_obs.Obs

type scan_mode = Incremental | Full

let mode_name = function Incremental -> "incremental" | Full -> "full"

(* the per-mode sweep wall-time histogram *)
let mode_wall_key = function
  | Incremental -> "scan.wall_s.incremental"
  | Full -> "scan.wall_s.full"

type t = {
  kernel_ : Kernel.t;
  level_ : Protection.level;
  priv_ : Rsa.priv;
  pem_ : string;
  rng_ : Prng.t;
  scan_mode_ : scan_mode;
  obs_ : Obs.ctx;
  mutable cache_ : Scan_cache.t option; (* built lazily on the first scan *)
  mutable sub_series_ : (string * (string * string)) list;
      (* subsystem -> its cycle series and their rate, named on first use *)
}

let key_path = "/etc/ssl/host_key.pem"

(* Boot-time churn: the "rest of the system" (drivers, caches, daemons)
   allocates and releases most of physical memory before the server ever
   starts.  Releasing in shuffled order loads the buddy hot list with a
   shuffled stack of frames, so later allocations scatter across the whole
   physical range — on real hardware this is what makes the disclosure
   attacks sample effectively random pages.  A slice stays held for the
   lifetime of the machine (long-lived kernel structures). *)
let boot_noise kernel rng =
  let buddy = Kernel.buddy kernel in
  let total = Memguard_vmm.Phys_mem.num_pages (Kernel.mem kernel) in
  let n = 3 * total / 4 in
  let frames =
    Array.of_list (List.filter_map (fun _ -> Memguard_vmm.Buddy.alloc_page buddy) (List.init n Fun.id))
  in
  Prng.shuffle rng frames;
  let keep = Array.length frames / 10 in
  for i = keep to Array.length frames - 1 do
    Memguard_vmm.Buddy.free_page buddy frames.(i)
  done

let create ?(num_pages = 8192) ?(key_bits = 256) ?(seed = 1) ?rng ?(noise = true)
    ?(scan_mode = Incremental) ?(obs = Obs.null) ?(swap_slots = 0)
    ~level () =
  let rng_ = match rng with Some r -> r | None -> Prng.of_int seed in
  let config =
    { Kernel.default_config with
      num_pages;
      zero_on_free = Protection.kernel_zero_on_free level;
      secure_dealloc = Protection.kernel_secure_dealloc level;
      swap_slots
    }
  in
  let kernel_ = Kernel.create ~config ~obs () in
  if noise then boot_noise kernel_ (Prng.split rng_);
  let priv_ = Rsa.generate (Prng.split rng_) ~bits:key_bits in
  ignore (Kernel.write_file kernel_ ~path:key_path (Rsa.pem_of_priv priv_));
  { kernel_;
    level_ = level;
    priv_;
    pem_ = Rsa.pem_of_priv priv_;
    rng_;
    scan_mode_ = scan_mode;
    obs_ = obs;
    cache_ = None;
    sub_series_ = []
  }

let kernel t = t.kernel_
let priv t = t.priv_
let rng t = t.rng_
let obs t = t.obs_

let patterns t = Scanner.key_patterns ~pem:t.pem_ t.priv_

let start_sshd ?opts t =
  Sshd.start t.kernel_ ~key_path
    (Option.value opts ~default:(Protection.sshd_options t.level_))

let start_apache ?workers t =
  Apache.start t.kernel_ ~key_path (Protection.apache_options ?workers t.level_)

(* per-class exposure series (cumulative byte·ticks, per-tick rate) *)
let class_series =
  List.map
    (fun cls ->
      let cn = Obs.class_name cls in
      (cls, "exposure.byte_ticks." ^ cn, "exposure.rate." ^ cn))
    Obs.all_classes

let sub_series t sub =
  match List.assoc_opt sub t.sub_series_ with
  | Some names -> names
  | None ->
    let names = ("cost.cycles." ^ sub, "cost.cycles_per_tick." ^ sub) in
    t.sub_series_ <- (sub, names) :: t.sub_series_;
    names

let subsystem_cycles obs sub =
  match List.assoc_opt sub (Obs.Cost.by_subsystem obs) with Some c -> c | None -> 0

(* Per-tick telemetry: sample the kernel, the exposure ledger, the scanner
   and the cost model into well-known time series, then evaluate the alert
   rules.  Sampling reads simulated state and writes observer state only,
   so a series-on run stays byte-identical to a series-off run; with no
   rules installed (the default) no event is emitted either. *)
let sample_series t ~time ~sweep_cycles ~pages_scanned ~hits =
  let obs = t.obs_ in
  if Obs.enabled obs then begin
    let record = Obs.Timeseries.record obs in
    let counter name = Obs.Timeseries.define obs ~kind:Obs.Timeseries.Counter name in
    let stats = Kernel.stats t.kernel_ in
    record "kernel.free_pages" (float_of_int stats.Kernel.free_pages);
    record "kernel.swap_slots_used" (float_of_int stats.Kernel.swap_slots_used);
    record "kernel.page_cache_frames" (float_of_int stats.Kernel.cached_frames);
    record "kernel.locked_frames" (float_of_int (Kernel.locked_frames t.kernel_));
    (* exposure: cumulative byte·ticks plus derived per-tick rates — the
       rate of the sensitive-unsafe integral is the number of sensitive
       bytes currently outside mlocked-anon memory *)
    counter "exposure.sensitive_unsafe_byte_ticks";
    Obs.Timeseries.define_rate obs ~source:"exposure.sensitive_unsafe_byte_ticks"
      "exposure.sensitive_unsafe";
    let unsafe = ref 0 in
    let by_class = Hashtbl.create 8 in
    List.iter
      (fun ((origin, cls), v) ->
        if Obs.origin_sensitive origin && cls <> Obs.Mlocked_anon then
          unsafe := !unsafe + v;
        let prev = Option.value (Hashtbl.find_opt by_class cls) ~default:0 in
        Hashtbl.replace by_class cls (prev + v))
      (Obs.Exposure.totals obs);
    record "exposure.sensitive_unsafe_byte_ticks" (float_of_int !unsafe);
    List.iter
      (fun (cls, ticks, rate) ->
        counter ticks;
        Obs.Timeseries.define_rate obs ~source:ticks rate;
        record ticks
          (float_of_int (Option.value (Hashtbl.find_opt by_class cls) ~default:0)))
      class_series;
    (* scanner: sweep latency in simulated cycles, coverage, cache reuse *)
    record "scan.sweep_cycles" (float_of_int sweep_cycles);
    record "scan.pages_swept" (float_of_int pages_scanned);
    record "scan.hits" (float_of_int hits);
    (match t.cache_ with
     | Some c ->
       let st = Scan_cache.stats c in
       let total = st.Scan_cache.last_clean_pages + st.Scan_cache.last_pages_scanned in
       if total > 0 then
         record "scan.cache_hit_rate"
           (float_of_int st.Scan_cache.last_clean_pages /. float_of_int total)
     | None -> ());
    (* cost model: cumulative cycles (total and per subsystem) plus
       derived cycles-per-tick rates *)
    counter "cost.total_cycles";
    Obs.Timeseries.define_rate obs ~source:"cost.total_cycles" "cost.cycles_per_tick";
    record "cost.total_cycles" (float_of_int (Obs.Cost.total_cycles obs));
    List.iter
      (fun (sub, cycles) ->
        let series, rate = sub_series t sub in
        counter series;
        Obs.Timeseries.define_rate obs ~source:series rate;
        record series (float_of_int cycles))
      (Obs.Cost.by_subsystem obs);
    Obs.Alert.eval obs ~tick:time
  end

let scan t ~time =
  let obs = t.obs_ in
  let mode = mode_name t.scan_mode_ in
  Obs.Profiler.span obs "scan" @@ fun () ->
  Obs.set_tick obs time;
  (* tick the exposure ledger before the sweep: integrate byte·ticks of
     key-copy residence per (origin x class) up to this instant *)
  Obs.Exposure.advance obs time;
  Obs.Trace.emit obs (Obs.Scan_started { mode });
  (* wall-clock only feeds the metrics histogram; nothing in the simulation
     reads it, so determinism is untouched *)
  let t0 = if Obs.enabled obs then Unix.gettimeofday () else 0.0 in
  let sweep_cycles0 = subsystem_cycles obs "scan" in
  let num_pages = Memguard_vmm.Phys_mem.num_pages (Kernel.mem t.kernel_) in
  let hits, pages_scanned =
    match t.scan_mode_ with
    | Full -> (Scanner.scan t.kernel_ ~patterns:(patterns t), num_pages)
    | Incremental ->
      let cache =
        match t.cache_ with
        | Some c -> c
        | None ->
          let c = Scan_cache.create t.kernel_ ~patterns:(patterns t) in
          t.cache_ <- Some c;
          c
      in
      let hits = Scan_cache.scan cache in
      let st = Scan_cache.stats cache in
      Obs.Metrics.incr obs ~by:st.Scan_cache.last_clean_pages "scan.cache_clean_pages";
      Obs.Metrics.incr obs ~by:st.Scan_cache.last_pages_scanned "scan.cache_dirty_pages";
      (hits, st.Scan_cache.last_pages_scanned)
  in
  if Obs.enabled obs then begin
    let dt = Unix.gettimeofday () -. t0 in
    Obs.Metrics.observe obs "scan.wall_s" dt;
    Obs.Metrics.observe obs (mode_wall_key t.scan_mode_) dt
  end;
  Obs.Metrics.incr obs "scan.runs";
  Obs.Metrics.incr obs ~by:pages_scanned "scan.pages_swept";
  Obs.Metrics.incr obs ~by:(List.length hits) "scan.hits";
  Obs.Trace.emit obs
    (Obs.Scan_finished { mode; hits = List.length hits; pages_scanned });
  sample_series t ~time
    ~sweep_cycles:(subsystem_cycles obs "scan" - sweep_cycles0)
    ~pages_scanned ~hits:(List.length hits);
  Report.of_hits ~obs ~time hits

let scan_stats t = Option.map Scan_cache.stats t.cache_

(* Background churn between the workload and the attack: ongoing system
   activity recycles the free lists, leaving freed pages in effectively
   random order (content untouched — nothing clears them).  Without this,
   the attacker's very first mkdirs would pop exactly the server's
   just-freed pages, which no real machine would serve up so neatly. *)
let settle t =
  let buddy = Kernel.buddy t.kernel_ in
  let rec grab acc =
    match Memguard_vmm.Buddy.alloc_page buddy with
    | Some pfn -> grab (pfn :: acc)
    | None -> acc
  in
  let frames = Array.of_list (grab []) in
  Prng.shuffle t.rng_ frames;
  Array.iter (fun pfn -> Memguard_vmm.Buddy.free_page buddy pfn) frames

let run_ext2_attack t ~directories =
  let atk = Ext2_leak.create () in
  Ext2_leak.mkdirs atk t.kernel_ ~n:directories;
  Kernel.ext2_unmount t.kernel_;
  atk

let run_tty_attack t = Tty_dump.run t.rng_ t.kernel_ ()
