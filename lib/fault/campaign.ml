open Memguard_kernel
module System = Memguard.System
module Protection = Memguard.Protection
module Report = Memguard_scan.Report
module Scanner = Memguard_scan.Scanner
module Prng = Memguard_util.Prng
module Sshd = Memguard_apps.Sshd
module Obs = Memguard_obs.Obs

type config = {
  seed : int;
  level : Protection.level;
  ops : int;
  num_pages : int;
  swap_slots : int;
  scan_every : int;
}

let default_config =
  { seed = 0;
    level = Protection.Integrated;
    ops = 500;
    num_pages = 256;
    swap_slots = 128;
    scan_every = 1
  }

type result = {
  config : config;
  ops_run : int;
  ooms : int;
  scans : int;
  violations : Audit.violation list;
  log : string list;
  obs : Obs.ctx;
}

(* a campaign with this many violations is broken beyond useful reporting *)
let max_violations = 10

type pstate = { proc : Proc.t; mutable allocs : (int * int) list (* vaddr, size *) }

type st = {
  cfg : config;
  on_scan : System.t -> tick:int -> unit;
  sys : System.t;
  k : Kernel.t;
  matcher : Scanner.matcher; (* the system's patterns, compiled once *)
  rng : Prng.t;
  sshd : Sshd.t;
  files : string array;
  hog : pstate;
  mutable procs : pstate list;
  mutable conns : Sshd.conn list;
  mutable ext2_dirs : int;
  mutable ops_run : int;
  mutable ooms : int;
  mutable scans : int;
  mutable tick : int;
  mutable violations : Audit.violation list; (* newest first *)
  mutable log : string list; (* newest first *)
}

let push st line = st.log <- line :: st.log

let violate st i (v : Audit.violation) =
  st.violations <- v :: st.violations;
  push st (Printf.sprintf "%04d !! %s" i (Audit.to_string v))

let page_size st = Kernel.page_size st.k

(* what a scan must satisfy: the level's confinement promise, and the
   incremental sweep agreeing with a cold one *)
let audit_scan st (snap : Report.snapshot) =
  let hits = snap.Report.hits in
  Audit.confinement st.k ~level:st.cfg.level st.matcher ~hits
  @ Audit.scan_agreement st.k st.matcher ~hits

(* ---- random pickers (all randomness flows through st.rng) ---- *)

let nth_opt l n = List.nth l n

let pick_proc st = nth_opt st.procs (Prng.int st.rng (List.length st.procs))

let procs_with_allocs st = List.filter (fun p -> p.allocs <> []) st.procs

let pick_alloc st (p : pstate) =
  nth_opt p.allocs (Prng.int st.rng (List.length p.allocs))

let remove_alloc p addr = p.allocs <- List.filter (fun (a, _) -> a <> addr) p.allocs

let random_write st (p : pstate) ~addr ~size =
  let off = Prng.int st.rng size in
  let len = 1 + Prng.int st.rng (size - off) in
  let data = Bytes.unsafe_to_string (Prng.bytes st.rng len) in
  Kernel.write_mem st.k p.proc ~addr:(addr + off) data;
  (off, len)

(* ---- the operation mix ---- *)

(* Each op: (weight, name, applicable?, run).  Applicability depends only
   on campaign state, and every random draw comes from the campaign PRNG,
   so the op sequence is a pure function of the seed. *)
let ops st =
  let ps = page_size st in
  [ ( 5,
      "spawn",
      (fun () -> List.length st.procs < 6),
      fun () ->
        let p = { proc = Kernel.spawn st.k ~name:"worker"; allocs = [] } in
        st.procs <- st.procs @ [ p ];
        Printf.sprintf "spawn pid=%d" p.proc.Proc.pid );
    ( 7,
      "fork",
      (fun () -> st.procs <> [] && List.length st.procs < 10),
      fun () ->
        let parent = pick_proc st in
        let child = Kernel.fork st.k parent.proc in
        st.procs <- st.procs @ [ { proc = child; allocs = parent.allocs } ];
        Printf.sprintf "fork pid=%d -> pid=%d" parent.proc.Proc.pid child.Proc.pid );
    ( 5,
      "exit",
      (fun () -> st.procs <> []),
      fun () ->
        let p = pick_proc st in
        st.procs <- List.filter (fun q -> q != p) st.procs;
        Kernel.exit st.k p.proc;
        Printf.sprintf "exit pid=%d" p.proc.Proc.pid );
    ( 12,
      "malloc",
      (fun () -> st.procs <> []),
      fun () ->
        let p = pick_proc st in
        let size = 16 + Prng.int st.rng (3 * ps) in
        let addr = Kernel.malloc st.k p.proc size in
        p.allocs <- (addr, size) :: p.allocs;
        Printf.sprintf "malloc pid=%d addr=%#x size=%d" p.proc.Proc.pid addr size );
    ( 4,
      "memalign",
      (fun () -> st.procs <> []),
      fun () ->
        let p = pick_proc st in
        let bytes = ps * (1 + Prng.int st.rng 2) in
        let addr = Kernel.memalign st.k p.proc ~bytes in
        p.allocs <- (addr, bytes) :: p.allocs;
        Printf.sprintf "memalign pid=%d addr=%#x bytes=%d" p.proc.Proc.pid addr bytes );
    ( 10,
      "free",
      (fun () -> procs_with_allocs st <> []),
      fun () ->
        let cands = procs_with_allocs st in
        let p = nth_opt cands (Prng.int st.rng (List.length cands)) in
        let addr, _ = pick_alloc st p in
        (* unrecord first: under secure_dealloc the zeroing pass inside
           [free] may legitimately OOM after the kernel-side bookkeeping is
           already gone, and the op must not be retriable *)
        remove_alloc p addr;
        Kernel.free st.k p.proc addr;
        Printf.sprintf "free pid=%d addr=%#x" p.proc.Proc.pid addr );
    ( 3,
      "mlock",
      (fun () ->
        List.exists (fun p -> List.exists (fun (_, s) -> s <= 2 * ps) p.allocs) st.procs),
      fun () ->
        let cands =
          List.filter
            (fun p -> List.exists (fun (_, s) -> s <= 2 * ps) p.allocs)
            st.procs
        in
        let p = nth_opt cands (Prng.int st.rng (List.length cands)) in
        let small = List.filter (fun (_, s) -> s <= 2 * ps) p.allocs in
        let addr, size = nth_opt small (Prng.int st.rng (List.length small)) in
        Kernel.mlock st.k p.proc ~addr ~len:size;
        Printf.sprintf "mlock pid=%d addr=%#x len=%d" p.proc.Proc.pid addr size );
    ( 14,
      "write",
      (fun () -> procs_with_allocs st <> []),
      fun () ->
        let cands = procs_with_allocs st in
        let p = nth_opt cands (Prng.int st.rng (List.length cands)) in
        let addr, size = pick_alloc st p in
        let off, len = random_write st p ~addr ~size in
        Printf.sprintf "write pid=%d addr=%#x len=%d" p.proc.Proc.pid (addr + off) len );
    ( 6,
      "zero",
      (fun () -> procs_with_allocs st <> []),
      fun () ->
        let cands = procs_with_allocs st in
        let p = nth_opt cands (Prng.int st.rng (List.length cands)) in
        let addr, size = pick_alloc st p in
        Kernel.zero_mem st.k p.proc ~addr ~len:size;
        Printf.sprintf "zero pid=%d addr=%#x len=%d" p.proc.Proc.pid addr size );
    ( 7,
      "read_file",
      (fun () -> st.procs <> []),
      fun () ->
        let p = pick_proc st in
        let path = st.files.(Prng.int st.rng (Array.length st.files)) in
        let nocache = Prng.bool st.rng in
        let buf, len = Kernel.read_file st.k p.proc ~path ~nocache in
        p.allocs <- (buf, max len 1) :: p.allocs;
        Printf.sprintf "read_file pid=%d %s nocache=%b -> addr=%#x len=%d"
          p.proc.Proc.pid path nocache buf len );
    ( 3,
      "ext2_mkdir",
      (fun () -> true),
      fun () ->
        ignore (Kernel.ext2_mkdir_leak st.k);
        st.ext2_dirs <- st.ext2_dirs + 1;
        Printf.sprintf "ext2_mkdir dirs=%d" st.ext2_dirs );
    ( 1,
      "ext2_unmount",
      (fun () -> st.ext2_dirs > 0),
      fun () ->
        Kernel.ext2_unmount st.k;
        let n = st.ext2_dirs in
        st.ext2_dirs <- 0;
        Printf.sprintf "ext2_unmount freed=%d" n );
    ( 8,
      "squeeze",
      (fun () -> true),
      fun () ->
        let bytes = ps * (1 + Prng.int st.rng 4) in
        let addr = Kernel.malloc st.k st.hog.proc bytes in
        st.hog.allocs <- (addr, bytes) :: st.hog.allocs;
        Printf.sprintf "squeeze addr=%#x bytes=%d held=%d" addr bytes
          (List.length st.hog.allocs) );
    ( 5,
      "release",
      (fun () -> st.hog.allocs <> []),
      fun () ->
        let addr, _ = pick_alloc st st.hog in
        remove_alloc st.hog addr;
        Kernel.free st.k st.hog.proc addr;
        Printf.sprintf "release addr=%#x held=%d" addr (List.length st.hog.allocs) );
    ( 5,
      "open_conn",
      (fun () -> List.length st.conns < 3),
      fun () ->
        let conn = Sshd.open_connection st.sshd st.rng in
        st.conns <- st.conns @ [ conn ];
        Printf.sprintf "open_conn pid=%d live=%d" (Sshd.child conn).Proc.pid
          (List.length st.conns) );
    ( 3,
      "close_conn",
      (fun () -> st.conns <> []),
      fun () ->
        let conn = nth_opt st.conns (Prng.int st.rng (List.length st.conns)) in
        st.conns <- List.filter (fun c -> c != conn) st.conns;
        Sshd.close_connection st.sshd conn;
        Printf.sprintf "close_conn pid=%d live=%d" (Sshd.child conn).Proc.pid
          (List.length st.conns) );
    ( 4,
      "transfer",
      (fun () -> st.conns <> []),
      fun () ->
        let conn = nth_opt st.conns (Prng.int st.rng (List.length st.conns)) in
        let kib = 1 + Prng.int st.rng 8 in
        Sshd.transfer st.sshd conn st.rng ~kib;
        Printf.sprintf "transfer pid=%d kib=%d" (Sshd.child conn).Proc.pid kib );
    ( 3,
      "scan_attack",
      (fun () -> true),
      fun () ->
        let snap = System.scan st.sys ~time:st.tick in
        st.on_scan st.sys ~tick:st.tick;
        st.tick <- st.tick + 1;
        st.scans <- st.scans + 1;
        List.iter (fun v -> violate st st.ops_run v) (audit_scan st snap);
        Printf.sprintf "scan_attack hits=%d" (List.length snap.Report.hits) )
  ]

let pick_op st =
  let applicable = List.filter (fun (_, _, ok, _) -> ok ()) (ops st) in
  let total = List.fold_left (fun acc (w, _, _, _) -> acc + w) 0 applicable in
  let roll = Prng.int st.rng total in
  let rec go acc = function
    | [] -> assert false
    | (w, name, _, run) :: rest ->
      if roll < acc + w then (name, run) else go (acc + w) rest
  in
  go 0 applicable

let step st i =
  let name, run = pick_op st in
  let desc =
    try run () with
    | Kernel.Out_of_memory ->
      st.ooms <- st.ooms + 1;
      name ^ ": ENOMEM"
    | Kernel.Segfault { pid; vaddr } ->
      (* the campaign only ever touches memory it legitimately mapped — a
         segfault means the kernel lost a mapping *)
      violate st i
        { Audit.check = "segfault";
          detail = Printf.sprintf "%s: pid %d at vaddr %#x" name pid vaddr
        };
      name ^ ": SEGFAULT"
    | Stack_overflow -> raise Stack_overflow
    | e ->
      violate st i
        { Audit.check = "exception"; detail = name ^ ": " ^ Printexc.to_string e };
      name ^ ": EXCEPTION"
  in
  push st (Printf.sprintf "%04d %s" i desc)

let validate cfg =
  if cfg.num_pages <= 0 || cfg.num_pages land (cfg.num_pages - 1) <> 0 then
    invalid_arg "Campaign.run: num_pages must be a power of two";
  if cfg.ops <= 0 then invalid_arg "Campaign.run: non-positive ops";
  if cfg.scan_every <= 0 then invalid_arg "Campaign.run: non-positive scan_every"

let boot ~on_scan cfg =
  let obs = Obs.create () in
  let sys =
    System.create ~num_pages:cfg.num_pages ~seed:cfg.seed ~obs ~swap_slots:cfg.swap_slots
      ~level:cfg.level ()
  in
  let k = System.kernel sys in
  let sshd = System.start_sshd sys in
  let rng = Prng.split (System.rng sys) in
  let hog = { proc = Kernel.spawn k ~name:"hog"; allocs = [] } in
  let ps = Kernel.page_size k in
  let files =
    Array.init 3 (fun i ->
        let path = Printf.sprintf "/var/data/f%d.bin" i in
        let len = ((i + 1) * ps) - (100 * (i + 1)) in
        ignore (Kernel.write_file k ~path (Bytes.unsafe_to_string (Prng.bytes rng len)));
        path)
  in
  { cfg;
    on_scan;
    sys;
    k;
    matcher = Scanner.matcher (System.patterns sys);
    rng;
    sshd;
    files;
    hog;
    procs = [];
    conns = [];
    ext2_dirs = 0;
    ops_run = 0;
    ooms = 0;
    scans = 0;
    tick = 0;
    violations = [];
    log = []
  }

let run ?(on_scan = fun _ ~tick:_ -> ()) cfg =
  validate cfg;
  let st = boot ~on_scan cfg in
  (* the confinement oracle only means something at levels that promise
     something about memory contents; [scan_attack] ops still judge every
     level *)
  let oracle = Protection.kernel_zero_on_free cfg.level in
  (try
     for i = 0 to cfg.ops - 1 do
       st.ops_run <- i;
       step st i;
       List.iter (fun v -> violate st i v) (Audit.run st.k);
       if oracle && i mod cfg.scan_every = 0 then begin
         let snap = System.scan st.sys ~time:st.tick in
         st.on_scan st.sys ~tick:st.tick;
         st.tick <- st.tick + 1;
         st.scans <- st.scans + 1;
         List.iter (fun v -> violate st i v) (audit_scan st snap)
       end;
       st.ops_run <- i + 1;
       if List.length st.violations >= max_violations then begin
         push st (Printf.sprintf "%04d aborting: %d violations" i max_violations);
         raise Exit
       end
     done
   with Exit -> ());
  { config = cfg;
    ops_run = st.ops_run;
    ooms = st.ooms;
    scans = st.scans;
    violations = List.rev st.violations;
    log = List.rev st.log;
    obs = System.obs st.sys
  }

let passed (r : result) = r.violations = []

let replay_hint (r : result) =
  Printf.sprintf
    "memguard_cli chaos --seed %d --level %s --ops %d --pages %d --swap %d --log"
    r.config.seed
    (Protection.name r.config.level)
    r.config.ops r.config.num_pages r.config.swap_slots

let pp_summary fmt (r : result) =
  Format.fprintf fmt "seed=%d level=%-14s ops=%d ooms=%d scans=%d violations=%d %s"
    r.config.seed
    (Protection.name r.config.level)
    r.ops_run r.ooms r.scans
    (List.length r.violations)
    (if passed r then "PASS" else "FAIL")

let pp_failure fmt (r : result) =
  Format.fprintf fmt "%a@." pp_summary r;
  List.iter (fun v -> Format.fprintf fmt "  %s@." (Audit.to_string v)) r.violations;
  let tail =
    let n = List.length r.log in
    if n <= 40 then r.log
    else begin
      Format.fprintf fmt "  ... (%d earlier log lines)@." (n - 40);
      List.filteri (fun i _ -> i >= n - 40) r.log
    end
  in
  List.iter (fun l -> Format.fprintf fmt "  %s@." l) tail;
  Format.fprintf fmt "replay: %s@." (replay_hint r)
