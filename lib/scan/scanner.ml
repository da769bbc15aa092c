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

(* built on the first anon lookup, then shared by every hit of the scan *)
type owners = { kernel : Kernel.t; mutable table : int list array; mutable filled : bool }

let owners k = { kernel = k; table = [||]; filled = false }
let reset_owners o = o.filled <- false

let owner_pids o ~pfn =
  if not o.filled then begin
    if Array.length o.table = 0 then
      o.table <- Array.make (Phys_mem.num_pages (Kernel.mem o.kernel)) [];
    Kernel.fill_owner_table o.kernel o.table;
    o.filled <- true
  end;
  o.table.(pfn)

let locate o ~pfn =
  let page = Phys_mem.page (Kernel.mem o.kernel) pfn in
  match page.Page.owner with
  | Page.Free -> Unallocated
  | Page.Anon -> Allocated_anon (owner_pids o ~pfn)
  | Page.Page_cache { ino; index } -> Allocated_page_cache { ino; index }
  | Page.Kernel -> Allocated_kernel

type matcher = { labels : string array; ms : Multi_search.t }

let compile_patterns ~who patterns =
  let labels = Array.of_list (List.map fst patterns) in
  let needles = Array.of_list (List.map snd patterns) in
  Array.iter
    (fun n -> if n = "" then invalid_arg (who ^ ": empty pattern"))
    needles;
  { labels; ms = Multi_search.compile needles }

let matcher patterns = compile_patterns ~who:"Scanner.matcher" patterns

(* Inlined on purpose: perfbench's calibration kernel, whose speed depends
   on its placement mod 64 (ROADMAP calibration item), follows perfbench's
   Drive, and inlining this there (+32 bytes) offsets the startup code's
   lost caml_apply9 (224 bytes, no 9-argument closure call is left). *)
let count_copies ~patterns data =
  Multi_search.count (compile_patterns ~who:"Scanner.count_copies" patterns).ms data

let sort_hits hits =
  List.sort (fun a b -> compare (a.addr, a.label) (b.addr, b.label)) hits

let sweep k { labels; ms } =
  let mem = Kernel.mem k in
  let raw = Phys_mem.raw mem in
  let ps = Phys_mem.page_size mem in
  let owners = owners k in
  let acc = ref [] in
  (* one sweep reports every pattern's hits at once *)
  Multi_search.iter ms raw ~f:(fun ~pos ~pat ->
      let pfn = pos / ps in
      acc := { label = labels.(pat); addr = pos; pfn; location = locate owners ~pfn } :: !acc);
  sort_hits (List.rev !acc)

let scan k ~patterns =
  Obs.Cost.charge (Kernel.obs k) ~sub:"scan" Scan_byte (Phys_mem.size_bytes (Kernel.mem k));
  sweep k (compile_patterns ~who:"Scanner.scan" patterns)

let scan_swap k { labels; ms } =
  match Kernel.swap k with
  | None -> []
  | Some sw ->
    let raw = Swap.raw sw in
    Obs.Cost.charge (Kernel.obs k) ~sub:"scan" Scan_byte (Bytes.length raw);
    let acc = ref [] in
    Multi_search.iter ms raw ~f:(fun ~pos ~pat -> acc := (labels.(pat), pos) :: !acc);
    List.sort compare !acc

(* The Integrated solution's promise: the only key bytes left in RAM live in
   the server's mlocked, process-mapped anonymous buffer.  A hit anywhere
   else is a confinement violation. *)
let confined o (h : hit) =
  let page = Phys_mem.page (Kernel.mem o.kernel) h.pfn in
  match page.Page.owner with
  | Page.Anon -> page.Page.locked && owner_pids o ~pfn:h.pfn <> []
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
