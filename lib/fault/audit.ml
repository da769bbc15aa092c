open Memguard_kernel
open Memguard_vmm
module Obs = Memguard_obs.Obs
module Scanner = Memguard_scan.Scanner
module Protection = Memguard.Protection
module Iset = Set.Make (Int)

type violation = { check : string; detail : string }

let to_string v = Printf.sprintf "[%s] %s" v.check v.detail

let report k acc ~check detail =
  let obs = Kernel.obs k in
  Obs.Trace.emit obs (Obs.Audit_violation { check; detail });
  Obs.Metrics.incr obs "fault.audit.violations";
  acc := { check; detail } :: !acc

(* layer 1: the kernel's own structural check *)
let check_kernel k acc =
  match Kernel.check_invariants k with
  | Ok () -> ()
  | Error e -> report k acc ~check:"kernel" e

(* layer 2: both sides of the swap mapping must agree — every Swapped PTE
   names an in-use slot, no slot is shared, and nothing on the device is
   orphaned (slots are released at swap-in and at process exit) *)
let check_swap k acc =
  match Kernel.swap k with
  | None -> ()
  | Some sw ->
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (p : Proc.t) ->
        List.iter
          (fun vpn ->
            match Proc.find_pte p ~vpn with
            | Some (Proc.Swapped slot) ->
              if not (Swap.slot_in_use sw slot) then
                report k acc ~check:"swap"
                  (Printf.sprintf "pid %d vpn %d references released slot %d" p.Proc.pid vpn
                     slot);
              (match Hashtbl.find_opt seen slot with
               | Some (pid0, vpn0) ->
                 report k acc ~check:"swap"
                   (Printf.sprintf "slot %d mapped twice: pid %d vpn %d and pid %d vpn %d"
                      slot pid0 vpn0 p.Proc.pid vpn)
               | None -> Hashtbl.replace seen slot (p.Proc.pid, vpn))
            | _ -> ())
          (Proc.mapped_vpns p))
      (Kernel.live_procs k);
    let referenced =
      Hashtbl.fold (fun slot _ l -> slot :: l) seen [] |> List.sort compare
    in
    let used = Swap.used_slot_list sw in
    if referenced <> used then
      report k acc ~check:"swap"
        (Printf.sprintf "page tables reference %d slot(s) but the device has %d in use"
           (List.length referenced) (List.length used))

(* layer 3: frame flags vs page tables.  [Page.locked] must mean "some
   live process maps this frame through an mlocked PTE" — a stale flag
   pins a stranger's frame forever (and, under Integrated, makes the
   confinement oracle lie); a missing flag lets a pinned page swap out.
   And a [Free]-owned frame must actually sit on the buddy free lists. *)
let check_frames k acc =
  let mem = Kernel.mem k in
  let buddy = Kernel.buddy k in
  let locked_pfns =
    List.fold_left
      (fun set (p : Proc.t) ->
        List.fold_left
          (fun set vpn ->
            match Proc.find_pte p ~vpn with
            | Some (Proc.Present pr) when pr.Proc.locked -> Iset.add pr.Proc.pfn set
            | _ -> set)
          set (Proc.mapped_vpns p))
      Iset.empty (Kernel.live_procs k)
  in
  for pfn = 0 to Phys_mem.num_pages mem - 1 do
    let page = Phys_mem.page mem pfn in
    match page.Page.owner with
    | Page.Anon ->
      let pinned = Iset.mem pfn locked_pfns in
      if page.Page.locked && not pinned then
        report k acc ~check:"locked_flag"
          (Printf.sprintf "anon frame %d flagged locked but no locked pte maps it" pfn)
      else if pinned && not page.Page.locked then
        report k acc ~check:"locked_flag"
          (Printf.sprintf "anon frame %d has a locked pte but is not flagged locked" pfn)
    | Page.Free ->
      if page.Page.locked then
        report k acc ~check:"locked_flag"
          (Printf.sprintf "free frame %d still flagged locked" pfn);
      if not (Buddy.is_free_block buddy ~pfn) then
        report k acc ~check:"free_frame"
          (Printf.sprintf "frame %d is owner=free but on no free list" pfn)
    | Page.Page_cache _ | Page.Kernel ->
      if page.Page.locked then
        report k acc ~check:"locked_flag"
          (Printf.sprintf "non-anon frame %d flagged locked" pfn)
  done

(* layer 4: the provenance registry must describe physical RAM sensibly,
   and its index must agree with its interval list: a lookup at either
   end of an interval finds that interval, and the live count is the
   list's length *)
let check_provenance k acc =
  let obs = Kernel.obs k in
  if Obs.enabled obs then begin
    let size = Phys_mem.size_bytes (Kernel.mem k) in
    let prev_end = ref 0 in
    let ivs = Obs.Provenance.intervals obs in
    List.iter
      (fun (addr, len, (info : Obs.Provenance.info)) ->
        let where =
          Printf.sprintf "interval [%#x,+%d) origin=%s" addr len
            (Obs.origin_name info.Obs.Provenance.origin)
        in
        if len <= 0 then
          report k acc ~check:"provenance" (where ^ ": non-positive length")
        else if addr < 0 || addr + len > size then
          report k acc ~check:"provenance" (where ^ ": out of physical bounds")
        else if addr < !prev_end then
          report k acc ~check:"provenance" (where ^ ": overlaps the previous interval")
        else if
          Obs.Provenance.lookup obs ~addr <> Some info
          || Obs.Provenance.lookup obs ~addr:(addr + len - 1) <> Some info
        then report k acc ~check:"provenance" (where ^ ": lookup misses its own bytes");
        prev_end := max !prev_end (addr + len))
      ivs;
    let n = List.length ivs in
    if Obs.Provenance.count obs <> n then
      report k acc ~check:"provenance"
        (Printf.sprintf "count %d but %d intervals listed" (Obs.Provenance.count obs) n)
  end

let run k =
  let acc = ref [] in
  check_kernel k acc;
  check_swap k acc;
  check_frames k acc;
  check_provenance k acc;
  List.rev !acc

let confinement k ~level matcher ~hits =
  let acc = ref [] in
  if Protection.kernel_zero_on_free level then
    List.iter
      (fun (h : Scanner.hit) ->
        match h.Scanner.location with
        | Scanner.Unallocated ->
          report k acc ~check:"confinement"
            (Format.asprintf "key bytes in unallocated memory: %a" Scanner.pp_hit h)
        | _ -> ())
      hits;
  (match level with
   | Protection.Integrated ->
     let owners = Scanner.owners k in
     List.iter
       (fun (h : Scanner.hit) ->
         if not (Scanner.confined owners h) then
           report k acc ~check:"confinement"
             (Format.asprintf "hit outside the mlocked key region: %a" Scanner.pp_hit h))
       hits;
     (match Scanner.scan_swap k matcher with
      | [] -> ()
      | leaks ->
        report k acc ~check:"confinement"
          (Printf.sprintf "%d key pattern match(es) on the swap device"
             (List.length leaks)))
   | Protection.Unprotected | Protection.Secure_dealloc | Protection.Application
   | Protection.Library | Protection.Kernel_level -> ());
  List.rev !acc

(* [Scanner.sweep], not [Scanner.scan]: the check must not charge the cost
   model, so campaign totals stay what they are without it *)
let scan_agreement k matcher ~hits =
  let acc = ref [] in
  let cold = Scanner.sweep k matcher in
  if cold <> hits then begin
    let rec first_diff = function
      | a :: ra, b :: rb -> if a = b then first_diff (ra, rb) else Some (a, b)
      | _ -> None
    in
    let where =
      match first_diff (hits, cold) with
      | Some (a, b) -> Format.asprintf ": %a, cold scan has %a" Scanner.pp_hit a Scanner.pp_hit b
      | None -> ""
    in
    report k acc ~check:"scan_agreement"
      (Printf.sprintf "incremental scan has %d hit(s), a cold scan %d%s" (List.length hits)
         (List.length cold) where)
  end;
  List.rev !acc
