module Obs = Memguard_obs.Obs

type origin_info = { origin : Obs.origin; age_ticks : int }
type annotated = { hit : Scanner.hit; info : origin_info option }

type snapshot = {
  time : int;
  total : int;
  allocated : int;
  unallocated : int;
  hits : Scanner.hit list;
  annotated : annotated list;
}

let annotate obs ~time hits =
  if not (Obs.enabled obs) then []
  else
    List.map
      (fun (h : Scanner.hit) ->
        let info =
          match Obs.Provenance.lookup obs ~addr:h.Scanner.addr with
          | Some i ->
            Some { origin = i.Obs.Provenance.origin;
                   age_ticks = time - i.Obs.Provenance.birth_tick }
          | None -> None
        in
        { hit = h; info })
      hits

let of_hits ?(obs = Obs.null) ~time hits =
  let allocated =
    List.length (List.filter (fun h -> Scanner.is_allocated h.Scanner.location) hits)
  in
  let total = List.length hits in
  { time;
    total;
    allocated;
    unallocated = total - allocated;
    hits;
    annotated = annotate obs ~time hits
  }

let by_label s =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun h ->
      let l = h.Scanner.label in
      Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    s.hits;
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) tbl [] |> List.sort compare

let by_origin s =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let name =
        match a.info with Some i -> Obs.origin_name i.origin | None -> "unknown"
      in
      Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    s.annotated;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) tbl [] |> List.sort compare

let locations s =
  List.map (fun h -> (h.Scanner.addr, Scanner.is_allocated h.Scanner.location)) s.hits

let pp_series fmt series =
  Format.fprintf fmt "%6s %10s %12s %6s@." "time" "allocated" "unallocated" "total";
  List.iter
    (fun s ->
      Format.fprintf fmt "%6d %10d %12d %6d@." s.time s.allocated s.unallocated s.total)
    series

let pp_series_origins fmt series =
  Format.fprintf fmt "%6s  %s@." "time" "copies by origin (age in ticks)";
  List.iter
    (fun s ->
      let ages = Hashtbl.create 8 in
      List.iter
        (fun a ->
          let name, age =
            match a.info with
            | Some i -> (Obs.origin_name i.origin, Some i.age_ticks)
            | None -> ("unknown", None)
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt ages name) in
          Hashtbl.replace ages name (age :: prev))
        s.annotated;
      let cells =
        Hashtbl.fold (fun name l acc -> (name, l) :: acc) ages []
        |> List.sort compare
        |> List.map (fun (name, l) ->
               let n = List.length l in
               let known = List.filter_map Fun.id l in
               match known with
               | [] -> Printf.sprintf "%s:%d" name n
               | _ ->
                 let lo = List.fold_left min max_int known in
                 let hi = List.fold_left max min_int known in
                 if lo = hi then Printf.sprintf "%s:%d(age %d)" name n lo
                 else Printf.sprintf "%s:%d(age %d-%d)" name n lo hi)
      in
      Format.fprintf fmt "%6d  %s@." s.time
        (if cells = [] then "-" else String.concat "  " cells))
    series
