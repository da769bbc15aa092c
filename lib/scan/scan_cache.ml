open Memguard_kernel
open Memguard_vmm
module Multi_search = Memguard_util.Multi_search

type t = {
  kernel : Kernel.t;
  patterns : (string * string) list;
  labels : string array;
  ms : Multi_search.t;
  gens : int array; (* generation each page was last scanned at; -1 = never *)
  page_hits : (int * int) list array; (* per page: (addr, pat), ascending, match *starts* here *)
  mutable last_scanned : int;
  mutable total_scanned : int;
  mutable scans : int;
  mutable last_clean : int;
  mutable total_clean : int;
}

type stats = {
  scans : int;
  last_pages_scanned : int;
  total_pages_scanned : int;
  last_clean_pages : int;
  total_clean_pages : int;
}

let create kernel ~patterns =
  let labels = Array.of_list (List.map fst patterns) in
  let needles = Array.of_list (List.map snd patterns) in
  Array.iter
    (fun n -> if n = "" then invalid_arg "Scan_cache.create: empty pattern")
    needles;
  let np = Phys_mem.num_pages (Kernel.mem kernel) in
  { kernel;
    patterns;
    labels;
    ms = Multi_search.compile needles;
    gens = Array.make np (-1);
    page_hits = Array.make np [];
    last_scanned = 0;
    total_scanned = 0;
    scans = 0;
    last_clean = 0;
    total_clean = 0
  }

let patterns t = t.patterns
let last_pages_scanned t = t.last_scanned
let total_pages_scanned t = t.total_scanned

let stats (t : t) =
  { scans = t.scans;
    last_pages_scanned = t.last_scanned;
    total_pages_scanned = t.total_scanned;
    last_clean_pages = t.last_clean;
    total_clean_pages = t.total_clean
  }

let refresh t =
  let mem = Kernel.mem t.kernel in
  let raw = Phys_mem.raw mem in
  let ps = Phys_mem.page_size mem in
  let np = Phys_mem.num_pages mem in
  let overlap = max 0 (Multi_search.max_len t.ms - 1) in
  (* a write in page p invalidates matches *starting* up to overlap bytes
     before p, i.e. in pages p - back .. p *)
  let back = (overlap + ps - 1) / ps in
  let stale = Array.make np false in
  for pfn = 0 to np - 1 do
    if Phys_mem.generation mem pfn <> t.gens.(pfn) then
      for q = max 0 (pfn - back) to pfn do
        stale.(q) <- true
      done
  done;
  (* sweep each contiguous stale run once, extended forward by [overlap]
     bytes so matches straddling the run's trailing page boundary are seen;
     matches starting past the run belong to clean pages and are dropped *)
  let scanned = ref 0 in
  let pfn = ref 0 in
  while !pfn < np do
    if not stale.(!pfn) then incr pfn
    else begin
      let run_start = !pfn in
      let run_end = ref !pfn in
      while !run_end + 1 < np && stale.(!run_end + 1) do
        incr run_end
      done;
      let run_limit = (!run_end + 1) * ps in
      for q = run_start to !run_end do
        t.page_hits.(q) <- []
      done;
      Multi_search.iter t.ms raw ~from:(run_start * ps)
        ~until:(min (Bytes.length raw) (run_limit + overlap))
        ~f:(fun ~pos ~pat ->
          if pos < run_limit then begin
            let q = pos / ps in
            t.page_hits.(q) <- (pos, pat) :: t.page_hits.(q)
          end);
      for q = run_start to !run_end do
        t.page_hits.(q) <- List.rev t.page_hits.(q);
        t.gens.(q) <- Phys_mem.generation mem q
      done;
      scanned := !scanned + (!run_end - run_start + 1);
      pfn := !run_end + 1
    end
  done;
  Memguard_obs.Obs.Cost.charge (Kernel.obs t.kernel) ~sub:"scan" Scan_byte (!scanned * ps);
  t.last_scanned <- !scanned;
  t.total_scanned <- t.total_scanned + !scanned;
  t.scans <- t.scans + 1;
  t.last_clean <- np - !scanned;
  t.total_clean <- t.total_clean + (np - !scanned)

let scan t =
  refresh t;
  let mem = Kernel.mem t.kernel in
  let ps = Phys_mem.page_size mem in
  let np = Phys_mem.num_pages mem in
  let acc = ref [] in
  (* locations are recomputed every query: page ownership moves without
     any byte changing (alloc / free / exit) *)
  for q = np - 1 downto 0 do
    acc :=
      List.fold_right
        (fun (addr, pat) rest ->
          let pfn = addr / ps in
          { Scanner.label = t.labels.(pat);
            addr;
            pfn;
            location = Scanner.locate t.kernel ~pfn
          }
          :: rest)
        t.page_hits.(q) !acc
  done;
  List.sort
    (fun a b -> compare (a.Scanner.addr, a.Scanner.label) (b.Scanner.addr, b.Scanner.label))
    !acc
