module Obs = Memguard_obs.Obs

let max_order = 10

(* The free set of order [o] is a bitmap over block numbers [pfn lsr o],
   [word_bits] to an int, with a count and a lower bound on the first
   non-zero word: membership is one bit test and the lowest free block is
   found by skipping zero words from that bound.  Nothing allocates per
   operation. *)
let word_bits = 32
let word_shift = 5

type t = {
  mem : Phys_mem.t;
  free_bits : int array array;  (* indexed by order, then word *)
  free_blocks : int array;  (* indexed by order: blocks in the set *)
  low_word : int array;  (* indexed by order: every word below is zero *)
  alloc_order : Bytes.t;  (* per pfn: 1 + order if an allocated block's base, else 0 *)
  hot : int array;  (* LIFO of recently freed single pages, [hot_top] deep *)
  mutable hot_top : int;
  on_hot : Bytes.t;  (* per pfn: 1 while on the hot list *)
  mutable zero_on_free : bool;
  mutable free_count : int;
  obs : Obs.ctx;
}

let in_set t order pfn =
  let b = pfn lsr order in
  t.free_bits.(order).(b lsr word_shift) land (1 lsl (b land (word_bits - 1))) <> 0

let add t order pfn =
  let b = pfn lsr order in
  let w = b lsr word_shift in
  let bits = t.free_bits.(order) in
  bits.(w) <- bits.(w) lor (1 lsl (b land (word_bits - 1)));
  t.free_blocks.(order) <- t.free_blocks.(order) + 1;
  if w < t.low_word.(order) then t.low_word.(order) <- w

let remove t order pfn =
  let b = pfn lsr order in
  let w = b lsr word_shift in
  let bits = t.free_bits.(order) in
  bits.(w) <- bits.(w) land lnot (1 lsl (b land (word_bits - 1)));
  t.free_blocks.(order) <- t.free_blocks.(order) - 1

(* index of the lowest set bit of a non-zero [word_bits]-bit word *)
let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFF = 0 then (n := 16; w := !w lsr 16);
  if !w land 0xFF = 0 then (n := !n + 8; w := !w lsr 8);
  if !w land 0xF = 0 then (n := !n + 4; w := !w lsr 4);
  if !w land 0x3 = 0 then (n := !n + 2; w := !w lsr 2);
  if !w land 0x1 = 0 then incr n;
  !n

(* base pfn of the lowest block in a non-empty set *)
let min_elt t order =
  let bits = t.free_bits.(order) in
  let w = ref t.low_word.(order) in
  while bits.(!w) = 0 do incr w done;
  t.low_word.(order) <- !w;
  ((!w lsl word_shift) + lowest_bit bits.(!w)) lsl order

let create ?(zero_on_free = false) ?(obs = Obs.null) mem =
  let n = Phys_mem.num_pages mem in
  let t =
    { mem;
      free_bits =
        Array.init (max_order + 1) (fun order -> Array.make (((n lsr order) lsr word_shift) + 1) 0);
      free_blocks = Array.make (max_order + 1) 0;
      low_word = Array.make (max_order + 1) 0;
      alloc_order = Bytes.make n '\000';
      hot = Array.make n 0;
      hot_top = 0;
      on_hot = Bytes.make n '\000';
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
        add t order pfn;
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
  Bytes.set t.alloc_order pfn (Char.chr (order + 1));
  for i = pfn to pfn + (1 lsl order) - 1 do
    let p = Phys_mem.page t.mem i in
    p.Page.owner <- Page.Kernel;
    p.Page.refcount <- 1;
    Phys_mem.touch_class t.mem i
  done;
  t.free_count <- t.free_count - (1 lsl order)

(* insert a block into the per-order sets, coalescing with buddies *)
let rec insert_coalescing t pfn order =
  if order >= max_order then add t order pfn
  else begin
    let buddy = pfn lxor (1 lsl order) in
    if in_set t order buddy then begin
      remove t order buddy;
      insert_coalescing t (min pfn buddy) (order + 1)
    end
    else add t order pfn
  end

let drain_hot t =
  for i = t.hot_top - 1 downto 0 do
    let pfn = t.hot.(i) in
    Bytes.set t.on_hot pfn '\000';
    insert_coalescing t pfn 0
  done;
  t.hot_top <- 0

let alloc_from_sets t ~order =
  let rec find j =
    if j > max_order then None
    else if t.free_blocks.(j) = 0 then find (j + 1)
    else Some j
  in
  match find order with
  | None -> None
  | Some j ->
    let pfn = min_elt t j in
    remove t j pfn;
    (* split down to the requested order, parking the upper halves *)
    let rec split cur =
      if cur > order then begin
        let half = cur - 1 in
        add t half (pfn + (1 lsl half));
        split half
      end
    in
    split j;
    Some pfn

let alloc t ~order =
  if order < 0 || order > max_order then invalid_arg "Buddy.alloc: bad order";
  let block =
    if order = 0 then begin
      if t.hot_top > 0 then begin
        t.hot_top <- t.hot_top - 1;
        let pfn = t.hot.(t.hot_top) in
        Bytes.set t.on_hot pfn '\000';
        Some pfn
      end
      else alloc_from_sets t ~order:0
    end
    else begin
      match alloc_from_sets t ~order with
      | Some pfn -> Some pfn
      | None ->
        if t.hot_top > 0 then begin
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
  let allocated =
    if pfn < 0 || pfn >= Phys_mem.num_pages t.mem then 0
    else Char.code (Bytes.get t.alloc_order pfn)
  in
  if allocated = 0 then invalid_arg "Buddy.free: block is not allocated (double free?)";
  if allocated - 1 <> order then invalid_arg "Buddy.free: order mismatch";
  Bytes.set t.alloc_order pfn '\000';
  Obs.Metrics.incr ~by:(1 lsl order) t.obs "buddy.free_pages";
  for i = pfn to pfn + (1 lsl order) - 1 do
    let p = Phys_mem.page t.mem i in
    p.Page.owner <- Page.Free;
    p.Page.refcount <- 0;
    p.Page.locked <- false;
    Phys_mem.touch_class t.mem i;
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
    t.hot.(t.hot_top) <- pfn;
    t.hot_top <- t.hot_top + 1;
    Bytes.set t.on_hot pfn '\001'
  end
  else insert_coalescing t pfn order

let free_page t pfn = free t ~pfn ~order:0

let free_pages t = t.free_count
let allocated_pages t = Phys_mem.num_pages t.mem - t.free_count

let free_blocks_by_order t = List.init (max_order + 1) (fun order -> (order, t.free_blocks.(order)))

let hot_list_size t = t.hot_top

let is_free_block t ~pfn =
  (* membership, not base identity: a pfn in the interior of a coalesced
     order>0 block is just as free as its base *)
  pfn >= 0
  && pfn < Phys_mem.num_pages t.mem
  && (Bytes.get t.on_hot pfn <> '\000'
      ||
      let rec covered order =
        order <= max_order
        && (in_set t order (pfn land lnot ((1 lsl order) - 1)) || covered (order + 1))
      in
      covered 0)

let check_invariants t =
  let n = Phys_mem.num_pages t.mem in
  let covered = Array.make n false in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let cover_free pfn order =
    let size = 1 lsl order in
    if pfn land (size - 1) <> 0 then fail "free block %d misaligned for order %d" pfn order;
    if pfn + size > n then fail "free block %d overruns memory" pfn;
    for i = pfn to min (pfn + size - 1) (n - 1) do
      if covered.(i) then fail "page %d covered by two free blocks" i;
      covered.(i) <- true;
      if not (Page.is_free (Phys_mem.page t.mem i)) then
        fail "page %d on free list but descriptor says %s" i
          (Format.asprintf "%a" Page.pp_owner (Phys_mem.page t.mem i).Page.owner)
    done
  in
  let free_sum = ref 0 in
  Array.iteri
    (fun order bits ->
      let blocks = ref 0 in
      Array.iteri
        (fun w word ->
          if word <> 0 && w < t.low_word.(order) then
            fail "order %d has a free block below its lower bound" order;
          for b = 0 to word_bits - 1 do
            if word land (1 lsl b) <> 0 then begin
              incr blocks;
              cover_free (((w lsl word_shift) + b) lsl order) order
            end
          done)
        bits;
      if !blocks <> t.free_blocks.(order) then
        fail "order %d counts %d blocks but holds %d" order t.free_blocks.(order) !blocks;
      free_sum := !free_sum + (!blocks lsl order))
    t.free_bits;
  for i = 0 to t.hot_top - 1 do
    cover_free t.hot.(i) 0;
    if Bytes.get t.on_hot t.hot.(i) = '\000' then fail "hot list and membership set disagree"
  done;
  let flagged = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr flagged) t.on_hot;
  if !flagged <> t.hot_top then fail "hot list and membership set disagree";
  Bytes.iteri
    (fun pfn c ->
      if c <> '\000' then
        for i = pfn to min (pfn + (1 lsl (Char.code c - 1)) - 1) (n - 1) do
          if covered.(i) then fail "page %d both free and allocated" i;
          covered.(i) <- true
        done)
    t.alloc_order;
  let covered_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 covered in
  if covered_count <> n then fail "%d pages unaccounted for" (n - covered_count);
  if !free_sum + t.hot_top <> t.free_count then
    fail "free_count %d but lists hold %d" t.free_count (!free_sum + t.hot_top);
  match !error with None -> Ok () | Some e -> Error e
