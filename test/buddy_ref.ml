(* Reference model for the buddy allocator's equivalence test: the earlier
   implementation over balanced-tree sets ([Set.Make (Int)]) and a Hashtbl
   of allocated blocks.  [Memguard_vmm.Buddy] must make exactly the same
   choices (see test_vmm.ml "buddy equivalence"). *)

open Memguard_vmm

module Iset = Set.Make (Int)
module Obs = Memguard_obs.Obs

let max_order = 10

type t = {
  mem : Phys_mem.t;
  free_lists : Iset.t array;  (* indexed by order; elements are base pfns *)
  allocated : (int, int) Hashtbl.t;  (* base pfn -> order *)
  mutable hot : int list;  (* LIFO of recently freed single pages *)
  mutable hot_members : Iset.t;  (* same contents, for membership tests *)
  mutable zero_on_free : bool;
  mutable free_count : int;
  obs : Obs.ctx;
}

let create ?(zero_on_free = false) ?(obs = Obs.null) mem =
  let n = Phys_mem.num_pages mem in
  let t =
    { mem;
      free_lists = Array.make (max_order + 1) Iset.empty;
      allocated = Hashtbl.create 64;
      hot = [];
      hot_members = Iset.empty;
      zero_on_free;
      free_count = n;
      obs
    }
  in
  (* carve the whole of memory into the largest aligned blocks *)
  let rec seed pfn remaining order =
    if remaining = 0 then ()
    else begin
      let size = 1 lsl order in
      if size <= remaining && pfn land (size - 1) = 0 then begin
        t.free_lists.(order) <- Iset.add pfn t.free_lists.(order);
        seed (pfn + size) (remaining - size) order
      end
      else seed pfn remaining (order - 1)
    end
  in
  seed 0 n max_order;
  t

let zero_on_free t = t.zero_on_free
let set_zero_on_free t v = t.zero_on_free <- v

let mark_allocated t pfn order =
  Obs.Metrics.incr ~by:(1 lsl order) t.obs "buddy.alloc_pages";
  Hashtbl.replace t.allocated pfn order;
  for i = pfn to pfn + (1 lsl order) - 1 do
    let p = Phys_mem.page t.mem i in
    p.Page.owner <- Page.Kernel;
    p.Page.refcount <- 1
  done;
  t.free_count <- t.free_count - (1 lsl order)

(* insert a block into the per-order sets, coalescing with buddies *)
let rec insert_coalescing t pfn order =
  if order >= max_order then t.free_lists.(order) <- Iset.add pfn t.free_lists.(order)
  else begin
    let buddy = pfn lxor (1 lsl order) in
    if Iset.mem buddy t.free_lists.(order) then begin
      t.free_lists.(order) <- Iset.remove buddy t.free_lists.(order);
      insert_coalescing t (min pfn buddy) (order + 1)
    end
    else t.free_lists.(order) <- Iset.add pfn t.free_lists.(order)
  end

let drain_hot t =
  List.iter (fun pfn -> insert_coalescing t pfn 0) t.hot;
  t.hot <- [];
  t.hot_members <- Iset.empty

let alloc_from_sets t ~order =
  let rec find j =
    if j > max_order then None
    else if Iset.is_empty t.free_lists.(j) then find (j + 1)
    else Some j
  in
  match find order with
  | None -> None
  | Some j ->
    let pfn = Iset.min_elt t.free_lists.(j) in
    t.free_lists.(j) <- Iset.remove pfn t.free_lists.(j);
    (* split down to the requested order, parking the upper halves *)
    let rec split cur =
      if cur > order then begin
        let half = cur - 1 in
        t.free_lists.(half) <- Iset.add (pfn + (1 lsl half)) t.free_lists.(half);
        split half
      end
    in
    split j;
    Some pfn

let alloc t ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc: bad order";
  let block =
    if order = 0 then begin
      match t.hot with
      | pfn :: rest ->
        t.hot <- rest;
        t.hot_members <- Iset.remove pfn t.hot_members;
        Some pfn
      | [] -> alloc_from_sets t ~order:0
    end
    else begin
      match alloc_from_sets t ~order with
      | Some pfn -> Some pfn
      | None ->
        if t.hot <> [] then begin
          drain_hot t;
          alloc_from_sets t ~order
        end
        else None
    end
  in
  Option.iter (fun pfn -> mark_allocated t pfn order) block;
  block

let alloc_page t = alloc t ~order:0

let free t ~pfn ~order =
  (match Hashtbl.find_opt t.allocated pfn with
   | None -> invalid_arg "Buddy.free: block is not allocated (double free?)"
   | Some o when o <> order -> invalid_arg "Buddy.free: order mismatch"
   | Some _ -> ());
  Hashtbl.remove t.allocated pfn;
  Obs.Metrics.incr ~by:(1 lsl order) t.obs "buddy.free_pages";
  for i = pfn to pfn + (1 lsl order) - 1 do
    let p = Phys_mem.page t.mem i in
    p.Page.owner <- Page.Free;
    p.Page.refcount <- 0;
    p.Page.locked <- false;
    (* the paper's kernel patch: clear_highpage before entering free lists *)
    if t.zero_on_free then begin
      Obs.Trace.causal t.obs "buddy.zero_on_free" @@ fun () ->
      Phys_mem.clear_frame t.mem i;
      Obs.Cost.charge t.obs ~sub:"vmm" Byte_zeroed (Phys_mem.page_size t.mem);
      Obs.Metrics.incr ~by:(Phys_mem.page_size t.mem) t.obs "buddy.zero_on_free_bytes";
      Obs.Provenance.clear t.obs ~addr:(Phys_mem.addr_of_pfn t.mem i)
        ~len:(Phys_mem.page_size t.mem)
    end
  done;
  t.free_count <- t.free_count + (1 lsl order);
  if order = 0 then begin
    t.hot <- pfn :: t.hot;
    t.hot_members <- Iset.add pfn t.hot_members
  end
  else insert_coalescing t pfn order

let free_page t pfn = free t ~pfn ~order:0

let free_pages t = t.free_count
let allocated_pages t = Phys_mem.num_pages t.mem - t.free_count

let free_blocks_by_order t =
  Array.to_list (Array.mapi (fun order set -> (order, Iset.cardinal set)) t.free_lists)

let hot_list_size t = List.length t.hot

let is_free_block t ~pfn =
  (* membership, not base identity: a pfn in the interior of a coalesced
     order>0 block is just as free as its base *)
  Iset.mem pfn t.hot_members
  ||
  let rec covered order =
    order <= max_order
    && (Iset.mem (pfn land lnot ((1 lsl order) - 1)) t.free_lists.(order)
        || covered (order + 1))
  in
  covered 0
