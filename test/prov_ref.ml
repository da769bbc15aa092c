(* Reference model for the provenance-index equivalence test: the earlier
   registry, one interval list kept newest first and walked in full by
   every operation.  [Obs.Provenance] must report the same intervals,
   lookups, stash contents (whose entry order is the list order), count
   and per-origin lifetime order (see test_obs.ml "provenance index
   matches list reference").  Copies are stamped untraced: the property
   opens no causal span. *)

module Obs = Memguard_obs.Obs

type info = Obs.Provenance.info
type interval = { start : int; ilen : int; info : info }

type t = {
  mutable tick : int;
  mutable intervals : interval list;  (* newest first *)
  stashes : (int, (int * int * info) list) Hashtbl.t;
  lifetimes : (Obs.origin, int list ref) Hashtbl.t;  (* newest first *)
}

let create () =
  { tick = 0; intervals = []; stashes = Hashtbl.create 8; lifetimes = Hashtbl.create 8 }

let record_lifetime t (info : info) =
  let age = t.tick - info.Obs.Provenance.birth_tick in
  match Hashtbl.find_opt t.lifetimes info.Obs.Provenance.origin with
  | Some r -> r := age :: !r
  | None -> Hashtbl.replace t.lifetimes info.Obs.Provenance.origin (ref [ age ])

let clear t ~addr ~len =
  if len > 0 then begin
    let e = addr + len in
    t.intervals <-
      List.concat_map
        (fun iv ->
          let s = iv.start and ie = iv.start + iv.ilen in
          if ie <= addr || s >= e then [ iv ]
          else begin
            record_lifetime t iv.info;
            (if s < addr then [ { iv with ilen = addr - s } ] else [])
            @ if ie > e then [ { start = e; ilen = ie - e; info = iv.info } ] else []
          end)
        t.intervals
  end

let register t ~origin ~pid ~addr ~len =
  if len > 0 then begin
    clear t ~addr ~len;
    let info =
      { Obs.Provenance.origin; pid; birth_tick = t.tick; birth_trace = 0; birth_span = 0 }
    in
    t.intervals <- { start = addr; ilen = len; info } :: t.intervals
  end

let overlaps t ~addr ~len =
  let e = addr + len in
  List.filter_map
    (fun iv ->
      let s = max iv.start addr and ie = min (iv.start + iv.ilen) e in
      if ie > s then Some (s - addr, ie - s, iv.info) else None)
    t.intervals

let blit t ~src ~dst ~len =
  if len > 0 then begin
    let clones =
      List.map
        (fun (off, l, info) -> { start = dst + off; ilen = l; info })
        (overlaps t ~addr:src ~len)
    in
    clear t ~addr:dst ~len;
    t.intervals <- clones @ t.intervals
  end

let stash t ~slot ~addr ~len = Hashtbl.replace t.stashes slot (overlaps t ~addr ~len)

let restore t ~slot ~addr ~len =
  clear t ~addr ~len;
  (match Hashtbl.find_opt t.stashes slot with
   | Some entries ->
     t.intervals <-
       List.map (fun (off, l, info) -> { start = addr + off; ilen = l; info }) entries
       @ t.intervals
   | None -> ());
  Hashtbl.remove t.stashes slot

let lookup t ~addr =
  List.find_opt (fun iv -> iv.start <= addr && addr < iv.start + iv.ilen) t.intervals
  |> Option.map (fun iv -> iv.info)

let count t = List.length t.intervals

let intervals t =
  List.map (fun iv -> (iv.start, iv.ilen, iv.info)) t.intervals |> List.sort compare

let stashed t =
  Hashtbl.fold (fun slot entries acc -> (slot, entries) :: acc) t.stashes []
  |> List.sort compare

let lifetimes t origin =
  match Hashtbl.find_opt t.lifetimes origin with Some r -> List.rev !r | None -> []
