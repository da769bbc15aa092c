open Memguard_vmm
module Obs = Memguard_obs.Obs

type entry = { pfn : int; mutable last_used : int }

type t = {
  mem : Phys_mem.t;
  buddy : Buddy.t;
  entries : (int * int, entry) Hashtbl.t;  (* (ino, index) -> frame *)
  mutable clock : int;
  obs : Obs.ctx;
}

let create ?(obs = Obs.null) mem buddy =
  { mem; buddy; entries = Hashtbl.create 64; clock = 0; obs }

let touch t e =
  t.clock <- t.clock + 1;
  e.last_used <- t.clock

let lookup t ~ino ~index =
  match Hashtbl.find_opt t.entries (ino, index) with
  | Some e ->
    touch t e;
    Obs.Cost.charge t.obs ~sub:"page_cache" ~origin:Obs.Page_cache Page_cache_hit 1;
    Some e.pfn
  | None -> None

let drop_frame t ~ino ~index pfn =
  Obs.Trace.causal t.obs "page_cache.evict" @@ fun () ->
  (* remove_from_page_cache + clear_highpage + __free_pages *)
  Obs.Cost.charge t.obs ~sub:"page_cache" ~origin:Obs.Page_cache Byte_zeroed
    (Phys_mem.page_size t.mem);
  Phys_mem.clear_frame t.mem pfn;
  Obs.Provenance.clear t.obs ~addr:(Phys_mem.addr_of_pfn t.mem pfn)
    ~len:(Phys_mem.page_size t.mem);
  Obs.Trace.emit t.obs (Obs.Page_cache_evict { ino; index; pfn; cleared = true });
  Obs.Metrics.incr t.obs "page_cache.evictions_clean";
  Buddy.free_page t.buddy pfn

let insert t ~ino ~index content =
  let ps = Phys_mem.page_size t.mem in
  if String.length content > ps then invalid_arg "Page_cache.insert: content exceeds a page";
  (match Hashtbl.find_opt t.entries (ino, index) with
   | Some old ->
     Hashtbl.remove t.entries (ino, index);
     drop_frame t ~ino ~index old.pfn
   | None -> ());
  match Buddy.alloc_page t.buddy with
  | None -> None
  | Some pfn ->
    Obs.Trace.causal t.obs "page_cache.insert" @@ fun () ->
    Obs.Cost.charge t.obs ~sub:"page_cache" ~origin:Obs.Page_cache Page_cache_miss 1;
    Obs.Cost.charge t.obs ~sub:"page_cache" ~origin:Obs.Page_cache Disk_read_byte
      (String.length content);
    Obs.Cost.charge t.obs ~sub:"page_cache" ~origin:Obs.Page_cache Byte_zeroed ps;
    Obs.Cost.charge t.obs ~sub:"page_cache" ~origin:Obs.Page_cache Byte_copied
      (String.length content);
    (* readpage zeroes the tail of a partial page *)
    Phys_mem.clear_frame t.mem pfn;
    let addr = Phys_mem.addr_of_pfn t.mem pfn in
    Obs.Provenance.clear t.obs ~addr ~len:(Phys_mem.page_size t.mem);
    Phys_mem.write t.mem ~addr content;
    let p = Phys_mem.page t.mem pfn in
    p.Page.owner <- Page.Page_cache { ino; index };
    p.Page.refcount <- 1;
    Phys_mem.touch_class t.mem pfn;
    Obs.Trace.emit t.obs (Obs.Page_cache_insert { ino; index; pfn });
    Obs.Trace.emit t.obs
      (Obs.Copy_created
         { origin = Obs.Page_cache; pid = 0; addr; len = String.length content });
    Obs.Provenance.register t.obs ~origin:Obs.Page_cache ~pid:0 ~addr
      ~len:(String.length content);
    Obs.Metrics.incr t.obs "page_cache.inserts";
    let e = { pfn; last_used = 0 } in
    touch t e;
    Hashtbl.replace t.entries (ino, index) e;
    Some pfn

let entries_of_ino t ~ino =
  Hashtbl.fold (fun (i, idx) e acc -> if i = ino then (idx, e.pfn) :: acc else acc) t.entries []

let evict_ino t ~ino =
  List.iter
    (fun (idx, pfn) ->
      Hashtbl.remove t.entries (ino, idx);
      drop_frame t ~ino ~index:idx pfn)
    (entries_of_ino t ~ino)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.last_used <= e.last_used -> acc
        | _ -> Some (key, e))
      t.entries None
  in
  match victim with
  | None -> false
  | Some (((ino, index) as key), e) ->
    Hashtbl.remove t.entries key;
    (* plain reclaim: the frame is freed but NOT cleared — its provenance
       interval stays live, attributing the stale copy to Page_cache *)
    Obs.Trace.emit t.obs (Obs.Page_cache_evict { ino; index; pfn = e.pfn; cleared = false });
    Obs.Metrics.incr t.obs "page_cache.evictions_dirty";
    Buddy.free_page t.buddy e.pfn;
    true

let cached_frames t = Hashtbl.length t.entries

let entries t =
  Hashtbl.fold (fun (ino, index) e acc -> (ino, index, e.pfn) :: acc) t.entries []
  |> List.sort compare
