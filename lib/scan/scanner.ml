open Memguard_kernel
open Memguard_vmm
module Obs = Memguard_obs.Obs
module Bytes_util = Memguard_util.Bytes_util
module Multi_search = Memguard_util.Multi_search
module Rsa = Memguard_crypto.Rsa

type location =
  | Allocated_anon of int list
  | Allocated_page_cache of { ino : int; index : int }
  | Allocated_kernel
  | Unallocated

type hit = { label : string; addr : int; pfn : int; location : location }

let is_allocated loc = match loc with Unallocated -> false | _ -> true

let locate k ~pfn =
  let page = Phys_mem.page (Kernel.mem k) pfn in
  match page.Page.owner with
  | Page.Free -> Unallocated
  | Page.Anon -> Allocated_anon (Kernel.frame_owners k ~pfn)
  | Page.Page_cache { ino; index } -> Allocated_page_cache { ino; index }
  | Page.Kernel -> Allocated_kernel

let compile_patterns ~who patterns =
  let labels = Array.of_list (List.map fst patterns) in
  let needles = Array.of_list (List.map snd patterns) in
  Array.iter
    (fun n -> if n = "" then invalid_arg (who ^ ": empty pattern"))
    needles;
  (labels, Multi_search.compile needles)

let sort_hits hits =
  List.sort (fun a b -> compare (a.addr, a.label) (b.addr, b.label)) hits

let scan k ~patterns =
  let mem = Kernel.mem k in
  let raw = Phys_mem.raw mem in
  let ps = Phys_mem.page_size mem in
  let labels, ms = compile_patterns ~who:"Scanner.scan" patterns in
  Obs.Cost.charge (Kernel.obs k) ~sub:"scan" Scan_byte (Bytes.length raw);
  let acc = ref [] in
  (* one sweep reports every pattern's hits at once *)
  Multi_search.iter ms raw ~f:(fun ~pos ~pat ->
      let pfn = pos / ps in
      acc := { label = labels.(pat); addr = pos; pfn; location = locate k ~pfn } :: !acc);
  sort_hits (List.rev !acc)

let scan_swap k ~patterns =
  match Kernel.swap k with
  | None -> []
  | Some sw ->
    let raw = Swap.raw sw in
    Obs.Cost.charge (Kernel.obs k) ~sub:"scan" Scan_byte (Bytes.length raw);
    let labels, ms = compile_patterns ~who:"Scanner.scan_swap" patterns in
    let acc = ref [] in
    Multi_search.iter ms raw ~f:(fun ~pos ~pat -> acc := (labels.(pat), pos) :: !acc);
    List.sort compare !acc

(* The Integrated solution's promise: the only key bytes left in RAM live in
   the server's mlocked, process-mapped anonymous buffer.  A hit anywhere
   else is a confinement violation. *)
let confined k (h : hit) =
  let page = Phys_mem.page (Kernel.mem k) h.pfn in
  match page.Page.owner with
  | Page.Anon ->
    page.Page.locked && Kernel.frame_owners k ~pfn:h.pfn <> []
  | Page.Free | Page.Page_cache _ | Page.Kernel -> false

let key_patterns ?pem priv =
  let base =
    [ ("d", Rsa.pattern_d priv); ("p", Rsa.pattern_p priv); ("q", Rsa.pattern_q priv) ]
  in
  match pem with Some text -> base @ [ ("pem", text) ] | None -> base

let pp_location fmt loc =
  match loc with
  | Allocated_anon [] -> Format.pp_print_string fmt "allocated(kernel-only anon)"
  | Allocated_anon pids ->
    Format.fprintf fmt "allocated(pids:%s)" (String.concat "," (List.map string_of_int pids))
  | Allocated_page_cache { ino; index } -> Format.fprintf fmt "pagecache(ino=%d,idx=%d)" ino index
  | Allocated_kernel -> Format.pp_print_string fmt "allocated(kernel)"
  | Unallocated -> Format.pp_print_string fmt "unallocated"

let pp_hit fmt h =
  Format.fprintf fmt "%s at %#x (pfn %d) in %a" h.label h.addr h.pfn pp_location h.location

type detailed_hit = { base : hit; matched_bytes : int; full : bool }

let scan_detailed k ~patterns ?(min_bytes = 20) () =
  let mem = Kernel.mem k in
  let raw = Phys_mem.raw mem in
  let size = Bytes.length raw in
  let ps = Phys_mem.page_size mem in
  let labels = Array.of_list (List.map fst patterns) in
  let needles = Array.of_list (List.map snd patterns) in
  Array.iter
    (fun n ->
      if String.length n < 4 then
        invalid_arg "Scanner.scan_detailed: pattern shorter than the 4-byte anchor")
    needles;
  (* one pass over the 4-byte anchors of every pattern, then extend each
     anchor hit against its own full needle *)
  let ms = Multi_search.compile (Array.map (fun n -> String.sub n 0 4) needles) in
  Obs.Cost.charge (Kernel.obs k) ~sub:"scan" Scan_byte size;
  let acc = ref [] in
  Multi_search.iter ms raw ~f:(fun ~pos:addr ~pat ->
      let needle = needles.(pat) in
      let n = String.length needle in
      let rec extend i =
        if i >= n || addr + i >= size then i
        else if Bytes.get raw (addr + i) = needle.[i] then extend (i + 1)
        else i
      in
      let matched = extend 4 in
      let full = matched = n in
      if full || matched >= min_bytes then begin
        let pfn = addr / ps in
        acc :=
          { base = { label = labels.(pat); addr; pfn; location = locate k ~pfn };
            matched_bytes = matched;
            full
          }
          :: !acc
      end);
  List.sort (fun a b -> compare (a.base.addr, a.base.label) (b.base.addr, b.base.label))
    (List.rev !acc)

let render_proc_output k ~patterns =
  let hits = scan_detailed k ~patterns () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Request recieved\n" (* sic — faithful to the LKM *);
  List.iter
    (fun h ->
      let kind = if h.full then "Full" else "Partial" in
      let procs =
        match h.base.location with
        | Allocated_anon [] -> " 0"
        | Allocated_anon pids -> String.concat "" (List.map (Printf.sprintf " %u") pids)
        | Allocated_page_cache _ | Allocated_kernel -> " 0"
        | Unallocated -> " none"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s match found for %s of size %u bytes at: %09u, in page: %06u, processes:%s\n"
           kind h.base.label h.matched_bytes h.base.addr h.base.pfn procs))
    hits;
  Buffer.contents buf
