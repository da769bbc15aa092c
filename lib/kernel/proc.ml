type present = { mutable pfn : int; mutable cow : bool; mutable locked : bool }

type pte = Present of present | Swapped of int

type t = {
  pid : int;
  name : string;
  parent : int option;
  page_table : (int, pte) Hashtbl.t;
  mutable brk : int;
  mutable heap_pages : int;
  mutable free_list : (int * int) list;
  allocs : (int, int) Hashtbl.t;
  mutable alive : bool;
}

(* Heap starts high enough that vpn 0 stays unmapped (null-page tradition). *)
let heap_base = 16 * 4096

let create ~pid ~name ~parent =
  { pid;
    name;
    parent;
    page_table = Hashtbl.create 64;
    brk = 0;
    heap_pages = 0;
    free_list = [];
    allocs = Hashtbl.create 32;
    alive = true
  }

let mapped_vpns t = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.page_table [] |> List.sort compare

let find_pte t ~vpn = Hashtbl.find_opt t.page_table vpn

let straddles ~page_size ~off ~size =
  size <= page_size && off / page_size <> (off + size - 1) / page_size

let take_free_run t ~size ~page_size =
  let rec go acc runs =
    match runs with
    | [] -> None
    | (off, run_size) :: rest ->
      (* first candidate placement inside this run that does not straddle *)
      let candidate =
        if straddles ~page_size ~off ~size then (off / page_size * page_size) + page_size
        else off
      in
      if candidate + size <= off + run_size then begin
        let before = if candidate > off then [ (off, candidate - off) ] else [] in
        let after_off = candidate + size in
        let after =
          if after_off < off + run_size then [ (after_off, off + run_size - after_off) ] else []
        in
        t.free_list <- List.rev_append acc (before @ after @ rest);
        Some candidate
      end
      else go ((off, run_size) :: acc) rest
  in
  go [] t.free_list

let insert_free_run t ~off ~size =
  if size <= 0 then invalid_arg "Proc.insert_free_run: non-positive size";
  (* keep the list offset-sorted and merge adjacent runs *)
  let rec place runs =
    match runs with
    | [] -> [ (off, size) ]
    | (o, s) :: rest ->
      if off + size < o then (off, size) :: runs
      else if off + size = o then (off, size + s) :: rest
      else if o + s = off then place_merged (o, s + size) rest
      else if off > o + s then (o, s) :: place rest
      else invalid_arg "Proc.insert_free_run: overlapping free (double free?)"
  and place_merged (o, s) rest =
    match rest with
    | (o2, s2) :: rest2 when o + s = o2 -> (o, s + s2) :: rest2
    | _ -> (o, s) :: rest
  in
  t.free_list <- place t.free_list

let take_free_run_aligned t ~size ~align =
  let rec go acc runs =
    match runs with
    | [] -> None
    | (off, run_size) :: rest ->
      let candidate = (off + align - 1) / align * align in
      if candidate + size <= off + run_size then begin
        let before = if candidate > off then [ (off, candidate - off) ] else [] in
        let after_off = candidate + size in
        let after =
          if after_off < off + run_size then [ (after_off, off + run_size - after_off) ] else []
        in
        t.free_list <- List.rev_append acc (before @ after @ rest);
        Some candidate
      end
      else go ((off, run_size) :: acc) rest
  in
  go [] t.free_list

