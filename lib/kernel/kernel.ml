open Memguard_vmm
module Obs = Memguard_obs.Obs

exception Out_of_memory

exception Segfault of { pid : int; vaddr : int }

type config = {
  page_size : int;
  num_pages : int;
  zero_on_free : bool;
  secure_dealloc : bool;
  swap_slots : int;
  swap_encrypt : bool;
}

let default_config =
  { page_size = 4096; num_pages = 8192; zero_on_free = false; secure_dealloc = false;
    swap_slots = 0; swap_encrypt = false }

type t = {
  cfg : config;
  mem : Phys_mem.t;
  buddy : Buddy.t;
  fs : Fs.t;
  page_cache : Page_cache.t;
  swap : Swap.t option;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  secure_dealloc : bool;
  mutable ext2_blocks : int list;  (* buffer-cached directory block frames *)
  (* Provos-style swap encryption: an ephemeral per-boot key that lives in
     a hardware-ish register file outside scannable RAM (the point of the
     scheme is precisely that the key is small and never written out).
     CBC with a per-slot IV derived from the slot number. *)
  swap_key : string option;
  obs : Obs.ctx;
}

(* exposure-ledger classification hook: a frame's class is a pure function
   of its descriptor (owner + lock flag) *)
let classify_phys_mem mem ~addr =
  let page = Phys_mem.page mem (Phys_mem.pfn_of_addr mem addr) in
  match page.Page.owner with
  | Page.Free -> Obs.Exposure.Free_ram
  | Page.Anon ->
    if page.Page.locked then Obs.Exposure.Mlocked_anon else Obs.Exposure.Plain_anon
  | Page.Page_cache _ -> Obs.Exposure.Cached
  | Page.Kernel -> Obs.Exposure.Kernel_buf

let create ?(config = default_config) ?(obs = Obs.null) () =
  let mem = Phys_mem.create ~page_size:config.page_size ~num_pages:config.num_pages () in
  let buddy = Buddy.create ~zero_on_free:config.zero_on_free ~obs mem in
  Obs.Exposure.set_classifier obs ~page_size:config.page_size (fun ~addr ->
      classify_phys_mem mem ~addr);
  { cfg = config;
    mem;
    buddy;
    fs = Fs.create ();
    page_cache = Page_cache.create ~obs mem buddy;
    swap =
      (if config.swap_slots > 0 then Some (Swap.create ~slots:config.swap_slots ~page_size:config.page_size ())
       else None);
    procs = Hashtbl.create 16;
    next_pid = 1;
    secure_dealloc = config.secure_dealloc;
    ext2_blocks = [];
    swap_key =
      (if config.swap_encrypt then
         Some (Memguard_crypto.Md5.digest (Printf.sprintf "boot-key-%d" config.num_pages))
       else None);
    obs
  }

let mem t = t.mem
let buddy t = t.buddy
let fs t = t.fs
let page_cache t = t.page_cache
let swap t = t.swap
let page_size t = t.cfg.page_size
let obs t = t.obs

let live_procs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)

(* ---- frame allocation with reclaim (page-cache eviction, then swap) ---- *)

(* Length-preserving CTR-mode transform for swap encryption.  XOR with an
   AES keystream keyed by the per-boot key and nonce'd by (slot, block):
   the same function encrypts and decrypts. *)
let swap_transform t ~slot content =
  match t.swap_key with
  | None -> content
  | Some key ->
    let rk = Memguard_crypto.Aes.expand_key (String.sub key 0 16) in
    let n = String.length content in
    let out = Bytes.create n in
    let nblocks = (n + 15) / 16 in
    for b = 0 to nblocks - 1 do
      let ctr = Printf.sprintf "%08u%08u" (slot land 0xFFFFFF) b in
      let ks = Memguard_crypto.Aes.encrypt_block rk ctr in
      for i = 0 to min 15 (n - (16 * b) - 1) do
        Bytes.set out ((16 * b) + i)
          (Char.chr (Char.code content.[(16 * b) + i] lxor Char.code ks.[i]))
      done
    done;
    Bytes.unsafe_to_string out

let try_swap_out t =
  match t.swap with
  | None -> false
  | Some sw ->
    Obs.Trace.causal t.obs "kernel.swap_out" @@ fun () ->
    (* victim: lowest-pid process, lowest-vpn unlocked exclusive anon page *)
    let exception Done in
    let found = ref false in
    (try
       List.iter
         (fun p ->
           List.iter
             (fun vpn ->
               match Proc.find_pte p ~vpn with
               | Some (Proc.Present pr)
                 when (not pr.Proc.locked)
                      && (not pr.Proc.cow)
                      && (Phys_mem.page t.mem pr.Proc.pfn).Page.refcount = 1 -> (
                 let content =
                   Phys_mem.read t.mem ~addr:(Phys_mem.addr_of_pfn t.mem pr.Proc.pfn)
                     ~len:t.cfg.page_size
                 in
                 match Swap.reserve sw with
                 | None -> raise Done
                 | Some slot ->
                   Swap.write_slot sw slot (swap_transform t ~slot content);
                   Obs.Cost.charge t.obs ~sub:"swap" ~origin:Obs.Swap Swap_out_page 1;
                   (* the page copy to the device, doubled when the CTR
                      transform rewrites it on the way out *)
                   Obs.Cost.charge t.obs ~sub:"swap" ~origin:Obs.Swap Byte_copied
                     (t.cfg.page_size * if t.swap_key = None then 1 else 2);
                   Obs.Trace.emit t.obs
                     (Obs.Swap_out { pid = p.Proc.pid; slot; pfn = pr.Proc.pfn });
                   Obs.Trace.emit t.obs
                     (Obs.Copy_created
                        { origin = Obs.Swap; pid = p.Proc.pid;
                          addr = slot * t.cfg.page_size; len = t.cfg.page_size });
                   Obs.Metrics.incr t.obs "swap.outs";
                   (* the frame is freed WITHOUT zeroing: its content — and
                      its provenance — survive in RAM; the slot remembers
                      the intervals for the eventual swap-in *)
                   Obs.Provenance.stash t.obs ~slot
                     ~addr:(Phys_mem.addr_of_pfn t.mem pr.Proc.pfn)
                     ~len:t.cfg.page_size;
                   Buddy.free_page t.buddy pr.Proc.pfn;
                   Hashtbl.replace p.Proc.page_table vpn (Proc.Swapped slot);
                   found := true;
                   raise Done)
               | _ -> ())
             (Proc.mapped_vpns p))
         (live_procs t)
     with Done -> ());
    !found

let rec alloc_frame t =
  match Buddy.alloc_page t.buddy with
  | Some pfn -> pfn
  | None ->
    if try_swap_out t then alloc_frame t
    else if Page_cache.evict_lru t.page_cache then alloc_frame t
    else raise Out_of_memory

(* ---- page-table plumbing ---- *)

let vpn_of_vaddr t vaddr = vaddr / t.cfg.page_size

let map_anon_page t (p : Proc.t) ~vpn =
  Obs.Trace.causal t.obs ~pid:p.Proc.pid "kernel.fault" @@ fun () ->
  let pfn = alloc_frame t in
  Obs.Cost.charge t.obs ~sub:"kernel" Page_fault 1;
  Obs.Cost.charge t.obs ~sub:"kernel" Byte_zeroed t.cfg.page_size;
  (* Linux zeroes anonymous pages before handing them to userspace *)
  Phys_mem.clear_frame t.mem pfn;
  Obs.Provenance.clear t.obs ~addr:(Phys_mem.addr_of_pfn t.mem pfn) ~len:t.cfg.page_size;
  let page = Phys_mem.page t.mem pfn in
  page.Page.owner <- Page.Anon;
  page.Page.refcount <- 1;
  Hashtbl.replace p.Proc.page_table vpn (Proc.Present { pfn; cow = false; locked = false })

let swap_in t (p : Proc.t) ~vpn ~slot =
  Obs.Trace.causal t.obs ~pid:p.Proc.pid "kernel.swap_in" @@ fun () ->
  let sw = Option.get t.swap in
  let pfn = alloc_frame t in
  let content = swap_transform t ~slot (Swap.load sw slot) in
  Obs.Cost.charge t.obs ~sub:"swap" ~origin:Obs.Swap Swap_in_page 1;
  Obs.Cost.charge t.obs ~sub:"swap" ~origin:Obs.Swap Byte_copied
    (t.cfg.page_size * if t.swap_key = None then 1 else 2);
  Phys_mem.write t.mem ~addr:(Phys_mem.addr_of_pfn t.mem pfn) content;
  Obs.Trace.emit t.obs (Obs.Swap_in { pid = p.Proc.pid; slot; pfn });
  Obs.Metrics.incr t.obs "swap.ins";
  Obs.Provenance.restore t.obs ~slot ~addr:(Phys_mem.addr_of_pfn t.mem pfn)
    ~len:t.cfg.page_size;
  (* the swap slot is released but NOT cleared: stale copy stays on disk *)
  Swap.release sw slot;
  let page = Phys_mem.page t.mem pfn in
  page.Page.owner <- Page.Anon;
  page.Page.refcount <- 1;
  let pr = { Proc.pfn; cow = false; locked = false } in
  Hashtbl.replace p.Proc.page_table vpn (Proc.Present pr);
  pr

let resolve_for_read t (p : Proc.t) ~vpn =
  match Proc.find_pte p ~vpn with
  | None -> raise (Segfault { pid = p.Proc.pid; vaddr = vpn * t.cfg.page_size })
  | Some (Proc.Present pr) -> pr
  | Some (Proc.Swapped slot) -> swap_in t p ~vpn ~slot

(* does any Present PTE of a live process still pin this frame? *)
let frame_has_locked_pte t pfn =
  List.exists
    (fun (p : Proc.t) ->
      List.exists
        (fun vpn ->
          match Proc.find_pte p ~vpn with
          | Some (Proc.Present q) -> q.Proc.pfn = pfn && q.Proc.locked
          | _ -> false)
        (Proc.mapped_vpns p))
    (live_procs t)

let cow_break t ~pid (pr : Proc.present) =
  Obs.Trace.causal t.obs ~pid "kernel.cow_break" @@ fun () ->
  let page = Phys_mem.page t.mem pr.Proc.pfn in
  if page.Page.refcount > 1 then begin
    let src_pfn = pr.Proc.pfn in
    let new_pfn = alloc_frame t in
    Obs.Cost.charge t.obs ~sub:"kernel" Cow_break 1;
    Obs.Cost.charge t.obs ~sub:"kernel" Byte_copied t.cfg.page_size;
    Phys_mem.blit_frame t.mem ~src_pfn ~dst_pfn:new_pfn;
    (* the duplicated frame carries whatever key bytes the original held:
       clone their provenance so scanner hits in the copy still attribute *)
    Obs.Trace.emit t.obs (Obs.Cow_fault { pid; src_pfn; dst_pfn = new_pfn });
    Obs.Metrics.incr t.obs "kernel.cow_faults";
    Obs.Provenance.blit t.obs
      ~src:(Phys_mem.addr_of_pfn t.mem src_pfn)
      ~dst:(Phys_mem.addr_of_pfn t.mem new_pfn)
      ~len:t.cfg.page_size;
    page.Page.refcount <- page.Page.refcount - 1;
    let np = Phys_mem.page t.mem new_pfn in
    np.Page.owner <- Page.Anon;
    np.Page.refcount <- 1;
    np.Page.locked <- pr.Proc.locked;
    pr.Proc.pfn <- new_pfn;
    (* the departing writer may have been the only locked mapping of the
       source frame: recompute so an unrelated owner's frame is not left
       pinned forever *)
    if pr.Proc.locked then page.Page.locked <- frame_has_locked_pte t src_pfn
  end;
  pr.Proc.cow <- false

let resolve_for_write t (p : Proc.t) ~vpn =
  let pr = resolve_for_read t p ~vpn in
  if pr.Proc.cow then cow_break t ~pid:p.Proc.pid pr;
  pr

let write_mem t (p : Proc.t) ~addr data =
  let len = String.length data in
  let ps = t.cfg.page_size in
  let pos = ref 0 in
  while !pos < len do
    let vaddr = addr + !pos in
    let vpn = vaddr / ps and off = vaddr mod ps in
    let chunk = min (ps - off) (len - !pos) in
    let pr = resolve_for_write t p ~vpn in
    Obs.Cost.charge t.obs ~sub:"kernel" Byte_copied chunk;
    Phys_mem.write t.mem
      ~addr:(Phys_mem.addr_of_pfn t.mem pr.Proc.pfn + off)
      (String.sub data !pos chunk);
    pos := !pos + chunk
  done

let read_mem t (p : Proc.t) ~addr ~len =
  let ps = t.cfg.page_size in
  let buf = Buffer.create len in
  let pos = ref 0 in
  while !pos < len do
    let vaddr = addr + !pos in
    let vpn = vaddr / ps and off = vaddr mod ps in
    let chunk = min (ps - off) (len - !pos) in
    let pr = resolve_for_read t p ~vpn in
    Obs.Cost.charge t.obs ~sub:"kernel" Byte_copied chunk;
    Buffer.add_string buf
      (Phys_mem.read t.mem ~addr:(Phys_mem.addr_of_pfn t.mem pr.Proc.pfn + off) ~len:chunk);
    pos := !pos + chunk
  done;
  Buffer.contents buf

(* zeroing destroys the bytes: retire any provenance interval covering the
   physical ranges (the COW break, if one fires, has already cloned the
   shared frame, so only the writer's private copy is retired) *)
let zero_mem t (p : Proc.t) ~addr ~len =
  Obs.Trace.causal t.obs ~pid:p.Proc.pid "kernel.zero_mem" @@ fun () ->
  let ps = t.cfg.page_size in
  let pos = ref 0 in
  while !pos < len do
    let vaddr = addr + !pos in
    let vpn = vaddr / ps and off = vaddr mod ps in
    let chunk = min (ps - off) (len - !pos) in
    let pr = resolve_for_write t p ~vpn in
    let phys = Phys_mem.addr_of_pfn t.mem pr.Proc.pfn + off in
    Obs.Cost.charge t.obs ~sub:"kernel" Byte_zeroed chunk;
    Phys_mem.write t.mem ~addr:phys (String.make chunk '\000');
    Obs.Provenance.clear t.obs ~addr:phys ~len:chunk;
    pos := !pos + chunk
  done

(* ---- observability: key-copy lifecycle notes from the library layer ---- *)

(* walk the *current* physical chunks backing a virtual range (skipping
   swapped-out pages — callers note copies right after writing them) *)
let iter_phys_chunks t (p : Proc.t) ~addr ~len f =
  let ps = t.cfg.page_size in
  let pos = ref 0 in
  while !pos < len do
    let vaddr = addr + !pos in
    let vpn = vaddr / ps and off = vaddr mod ps in
    let chunk = min (ps - off) (len - !pos) in
    (match Proc.find_pte p ~vpn with
     | Some (Proc.Present pr) -> f (Phys_mem.addr_of_pfn t.mem pr.Proc.pfn + off) chunk
     | Some (Proc.Swapped _) | None -> ());
    pos := !pos + chunk
  done

let note_copy t (p : Proc.t) ~origin ~addr ~len =
  if Obs.enabled t.obs then
    iter_phys_chunks t p ~addr ~len (fun phys chunk ->
        Obs.Trace.emit t.obs
          (Obs.Copy_created { origin; pid = p.Proc.pid; addr = phys; len = chunk });
        Obs.Provenance.register t.obs ~origin ~pid:p.Proc.pid ~addr:phys ~len:chunk)

let note_zeroed t (p : Proc.t) ~origin ~addr ~len =
  if Obs.enabled t.obs then
    iter_phys_chunks t p ~addr ~len (fun phys chunk ->
        Obs.Trace.emit t.obs
          (Obs.Copy_zeroed { origin; pid = p.Proc.pid; addr = phys; len = chunk }))

let note_freed_dirty t (p : Proc.t) ~origin ~addr ~len =
  if Obs.enabled t.obs then
    iter_phys_chunks t p ~addr ~len (fun phys chunk ->
        Obs.Trace.emit t.obs
          (Obs.Copy_freed_dirty { origin; pid = p.Proc.pid; addr = phys; len = chunk }))

let pfn_of_vaddr t (p : Proc.t) vaddr =
  match Proc.find_pte p ~vpn:(vpn_of_vaddr t vaddr) with
  | Some (Proc.Present pr) -> Some pr.Proc.pfn
  | Some (Proc.Swapped _) | None -> None

(* ---- heap allocator ---- *)

let heap_base_vpn t = Proc.heap_base / t.cfg.page_size

let ensure_heap_mapped t (p : Proc.t) =
  let ps = t.cfg.page_size in
  let needed = (p.Proc.brk + ps - 1) / ps in
  while p.Proc.heap_pages < needed do
    map_anon_page t p ~vpn:(heap_base_vpn t + p.Proc.heap_pages);
    p.Proc.heap_pages <- p.Proc.heap_pages + 1
  done

let align16 n = (n + 15) land lnot 15

let malloc t (p : Proc.t) size =
  if size <= 0 then invalid_arg "Kernel.malloc: non-positive size";
  let ps = t.cfg.page_size in
  let size = align16 size in
  let off =
    match Proc.take_free_run p ~size ~page_size:ps with
    | Some off -> off
    | None ->
      let off =
        if Proc.straddles ~page_size:ps ~off:p.Proc.brk ~size then begin
          (* slab behaviour: bump to the next page, recycle the gap *)
          let bumped = (p.Proc.brk / ps * ps) + ps in
          Proc.insert_free_run p ~off:p.Proc.brk ~size:(bumped - p.Proc.brk);
          bumped
        end
        else p.Proc.brk
      in
      p.Proc.brk <- off + size;
      ensure_heap_mapped t p;
      off
  in
  Hashtbl.replace p.Proc.allocs off size;
  Proc.heap_base + off

let alloc_size _t (p : Proc.t) vaddr = Hashtbl.find_opt p.Proc.allocs (vaddr - Proc.heap_base)

let free t (p : Proc.t) vaddr =
  let off = vaddr - Proc.heap_base in
  match Hashtbl.find_opt p.Proc.allocs off with
  | None -> invalid_arg "Kernel.free: not an allocation"
  | Some size ->
    Hashtbl.remove p.Proc.allocs off;
    (* Chow et al. secure deallocation: zero at (process-level) free *)
    if t.secure_dealloc then zero_mem t p ~addr:vaddr ~len:size;
    Proc.insert_free_run p ~off ~size

let memalign t (p : Proc.t) ~bytes =
  if bytes <= 0 then invalid_arg "Kernel.memalign: non-positive size";
  let ps = t.cfg.page_size in
  let size = (bytes + ps - 1) / ps * ps in
  let off =
    match Proc.take_free_run_aligned p ~size ~align:ps with
    | Some off -> off
    | None ->
      let off = (p.Proc.brk + ps - 1) / ps * ps in
      if off > p.Proc.brk then Proc.insert_free_run p ~off:p.Proc.brk ~size:(off - p.Proc.brk);
      p.Proc.brk <- off + size;
      ensure_heap_mapped t p;
      off
  in
  Hashtbl.replace p.Proc.allocs off size;
  Proc.heap_base + off

let mlock t (p : Proc.t) ~addr ~len =
  if len <= 0 then invalid_arg "Kernel.mlock: non-positive length";
  let ps = t.cfg.page_size in
  let first = addr / ps and last = (addr + len - 1) / ps in
  for vpn = first to last do
    let pr = resolve_for_read t p ~vpn in
    pr.Proc.locked <- true;
    (Phys_mem.page t.mem pr.Proc.pfn).Page.locked <- true
  done

(* ---- processes ---- *)

let register t p = Hashtbl.replace t.procs p.Proc.pid p

let spawn t ~name =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p = Proc.create ~pid ~name ~parent:None in
  register t p;
  p

let fork t (parent : Proc.t) =
  Obs.Trace.causal t.obs ~pid:parent.Proc.pid "kernel.fork" @@ fun () ->
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let child = Proc.create ~pid ~name:parent.Proc.name ~parent:(Some parent.Proc.pid) in
  child.Proc.brk <- parent.Proc.brk;
  child.Proc.heap_pages <- parent.Proc.heap_pages;
  child.Proc.free_list <- parent.Proc.free_list;
  Hashtbl.iter (fun off size -> Hashtbl.replace child.Proc.allocs off size) parent.Proc.allocs;
  (* Share each parent page COW, re-resolving the PTE at share time: a
     swap-in performed for an earlier vpn can itself trigger try_swap_out
     and re-swap a page a one-shot prologue walk had already passed, which
     would silently drop that mapping from the child.  Swapping in at the
     moment of sharing closes the race — once shared the frame's refcount
     is 2, so it can no longer be picked as a swap victim. *)
  (try
     List.iter
       (fun vpn ->
         let pr =
           match Proc.find_pte parent ~vpn with
           | Some (Proc.Present pr) -> pr
           | Some (Proc.Swapped slot) -> swap_in t parent ~vpn ~slot
           | None -> assert false (* PTEs are never removed *)
         in
         pr.Proc.cow <- true;
         let page = Phys_mem.page t.mem pr.Proc.pfn in
         page.Page.refcount <- page.Page.refcount + 1;
         Hashtbl.replace child.Proc.page_table vpn
           (Proc.Present { pfn = pr.Proc.pfn; cow = true; locked = pr.Proc.locked }))
       (Proc.mapped_vpns parent)
   with e ->
     (* fork failed (ENOMEM mid-walk): unwind the partial address space so
        refcounts stay consistent, as fork(2) does on -ENOMEM *)
     Hashtbl.iter
       (fun _ pte ->
         match pte with
         | Proc.Present pr ->
           let page = Phys_mem.page t.mem pr.Proc.pfn in
           page.Page.refcount <- page.Page.refcount - 1
         | Proc.Swapped _ -> ())
       child.Proc.page_table;
     Hashtbl.reset child.Proc.page_table;
     raise e);
  register t child;
  child

let exit t (p : Proc.t) =
  (* deregister first so the lock recomputation below only sees survivors *)
  Hashtbl.remove t.procs p.Proc.pid;
  List.iter
    (fun vpn ->
      match Proc.find_pte p ~vpn with
      | Some (Proc.Present pr) ->
        let page = Phys_mem.page t.mem pr.Proc.pfn in
        page.Page.refcount <- page.Page.refcount - 1;
        if page.Page.refcount = 0 then
          (* frame content survives into the free lists unless zero_on_free *)
          Buddy.free_page t.buddy pr.Proc.pfn
        else if pr.Proc.locked then
          (* the exiting process may have held the only lock on a frame it
             shared: recompute instead of leaving the frame pinned *)
          page.Page.locked <- frame_has_locked_pte t pr.Proc.pfn
      | Some (Proc.Swapped slot) ->
        (* slot released; its content persists on the swap device *)
        (match t.swap with Some sw -> Swap.release sw slot | None -> ())
      | None -> ())
    (Proc.mapped_vpns p);
  Hashtbl.reset p.Proc.page_table;
  p.Proc.alive <- false

(* ---- files ---- *)

let write_file t ~path content = Fs.write_file t.fs ~path content

let read_file t (p : Proc.t) ~path ~nocache =
  Obs.Trace.causal t.obs ~pid:p.Proc.pid "kernel.read_file" @@ fun () ->
  match Fs.ino_of_path t.fs path with
  | None -> raise Not_found
  | Some ino ->
    let content = Option.get (Fs.content_of_ino t.fs ino) in
    let ps = t.cfg.page_size in
    let len = String.length content in
    let npages = max 1 ((len + ps - 1) / ps) in
    (* populate the page cache page by page.  A failed insert reclaims —
       swap out, then evict another cached page — and retries, exactly as
       [alloc_frame] does; a busy machine must not spuriously OOM a read. *)
    for index = 0 to npages - 1 do
      match Page_cache.lookup t.page_cache ~ino ~index with
      | Some _ -> ()
      | None ->
        let chunk = String.sub content (index * ps) (min ps (len - (index * ps))) in
        let rec insert_with_reclaim () =
          match Page_cache.insert t.page_cache ~ino ~index chunk with
          | Some _ -> ()
          | None ->
            if try_swap_out t then insert_with_reclaim ()
            else if Page_cache.evict_lru t.page_cache then insert_with_reclaim ()
            else raise Out_of_memory
        in
        insert_with_reclaim ()
    done;
    (* copy into a fresh user buffer *)
    let buf = malloc t p (max len 1) in
    if len > 0 then write_mem t p ~addr:buf content;
    (* O_NOCACHE: remove_from_page_cache + clear_highpage + __free_pages *)
    if nocache then Page_cache.evict_ino t.page_cache ~ino;
    (buf, len)

let ext2_mkdir_leak t =
  let ps = t.cfg.page_size in
  let pfn = alloc_frame t in
  (* kernel block buffer: NOT cleared — this is the [17] bug *)
  let page = Phys_mem.page t.mem pfn in
  page.Page.owner <- Page.Kernel;
  page.Page.refcount <- 1;
  let addr = Phys_mem.addr_of_pfn t.mem pfn in
  (* ext2 make_empty initialises only the "." and ".." dirents (24 bytes) *)
  let dirents =
    let b = Bytes.create 24 in
    Bytes.fill b 0 24 '\000';
    Bytes.set b 4 '\012';
    Bytes.set b 6 '\001';
    Bytes.set b 8 '.';
    Bytes.set b 16 '\244';
    Bytes.set b 18 '\002';
    Bytes.set b 20 '.';
    Bytes.set b 21 '.';
    Bytes.unsafe_to_string b
  in
  Obs.Cost.charge t.obs ~sub:"kernel" Byte_copied (String.length dirents);
  Phys_mem.write t.mem ~addr dirents;
  let block = Phys_mem.read t.mem ~addr ~len:ps in
  (* the block buffer stays cached while the directory exists, so every
     further mkdir samples a DIFFERENT free page — which is what makes the
     disclosure grow with the number of directories *)
  t.ext2_blocks <- pfn :: t.ext2_blocks;
  block

let ext2_unmount t =
  List.iter (fun pfn -> Buddy.free_page t.buddy pfn) t.ext2_blocks;
  t.ext2_blocks <- []

(* ---- introspection ---- *)

let classify_phys t ~addr = classify_phys_mem t.mem ~addr

let frame_owners t ~pfn =
  List.filter_map
    (fun (p : Proc.t) ->
      let maps =
        List.exists
          (fun vpn ->
            match Proc.find_pte p ~vpn with
            | Some (Proc.Present pr) -> pr.Proc.pfn = pfn
            | _ -> false)
          (Proc.mapped_vpns p)
      in
      if maps then Some p.Proc.pid else None)
    (live_procs t)

type stats = {
  free_pages : int;
  allocated_pages : int;
  cached_frames : int;
  live_proc_count : int;
  swap_slots_used : int;
}

let stats t =
  { free_pages = Buddy.free_pages t.buddy;
    allocated_pages = Buddy.allocated_pages t.buddy;
    cached_frames = Page_cache.cached_frames t.page_cache;
    live_proc_count = Hashtbl.length t.procs;
    swap_slots_used = (match t.swap with Some sw -> Swap.used_slots sw | None -> 0)
  }

let locked_frames t =
  let n = ref 0 in
  for pfn = 0 to Phys_mem.num_pages t.mem - 1 do
    if (Phys_mem.page t.mem pfn).Page.locked then incr n
  done;
  !n

let check_invariants t =
  match Buddy.check_invariants t.buddy with
  | Error e -> Error ("buddy: " ^ e)
  | Ok () ->
    let n = Phys_mem.num_pages t.mem in
    let refs = Array.make n 0 in
    List.iter
      (fun (p : Proc.t) ->
        List.iter
          (fun vpn ->
            match Proc.find_pte p ~vpn with
            | Some (Proc.Present pr) -> refs.(pr.Proc.pfn) <- refs.(pr.Proc.pfn) + 1
            | _ -> ())
          (Proc.mapped_vpns p))
      (live_procs t);
    let error = ref None in
    for pfn = 0 to n - 1 do
      let page = Phys_mem.page t.mem pfn in
      (match page.Page.owner with
       | Page.Anon ->
         if page.Page.refcount <> refs.(pfn) then
           error :=
             Some
               (Printf.sprintf "anon frame %d refcount %d but %d ptes" pfn page.Page.refcount
                  refs.(pfn))
       | Page.Free ->
         if refs.(pfn) > 0 then error := Some (Printf.sprintf "pte points at free frame %d" pfn)
       | Page.Page_cache _ | Page.Kernel ->
         if refs.(pfn) > 0 then
           error := Some (Printf.sprintf "pte points at non-anon frame %d" pfn))
    done;
    (match !error with Some e -> Error e | None -> Ok ())
