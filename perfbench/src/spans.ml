(* The benchmark's own span recorder.  Spans are recorded from the outside,
   around each call the benchmark makes into a library layer; one root span
   per pass.  Everything stays in memory until [write_chrome] at the end. *)

type t = {
  mutable names : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;  (** -1 for a pass root *)
  mutable pass : int array;
  mutable len : int;
  mutable open_ : int list;  (** stack of open span ids *)
}

let create () =
  { names = Array.make 1024 "";
    start = Array.make 1024 0.;
    stop = Array.make 1024 0.;
    parent = Array.make 1024 (-1);
    pass = Array.make 1024 0;
    len = 0;
    open_ = []
  }

let length t = t.len
let name t i = t.names.(i)
let parent t i = t.parent.(i)
let duration t i = t.stop.(i) -. t.start.(i)

let grow t =
  let n = 2 * Array.length t.names in
  let ext a fill = let b = Array.make n fill in Array.blit a 0 b 0 t.len; b in
  t.names <- ext t.names "";
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.parent <- ext t.parent (-1);
  t.pass <- ext t.pass 0

(* Append a finished or still-open span.  Tests build trees with it. *)
let add t ~name ~start ~stop ~parent ~pass =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.pass.(i) <- pass;
  t.len <- i + 1;
  i

let now = Unix.gettimeofday

let enter t ~pass name =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let i = add t ~name ~start:(now ()) ~stop:nan ~parent ~pass in
  t.open_ <- i :: t.open_;
  i

let leave t i =
  t.stop.(i) <- now ();
  t.open_ <- (match t.open_ with j :: rest when j = i -> rest | l -> List.filter (( <> ) i) l)

let with_span t ~pass name f =
  let i = enter t ~pass name in
  Fun.protect ~finally:(fun () -> leave t i) f

(* Self time of every span: its duration minus the part of its interval
   covered by its direct children (the union of the children's intervals,
   clipped to the parent, so overlapping children are not counted twice). *)
let self_times t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.len (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let ivs =
        List.filter_map
          (fun c ->
            let a = Float.max lo t.start.(c) and b = Float.min hi t.stop.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., lo) ivs
      in
      hi -. lo -. covered)

(* Layer of a span name: the part before the first dot ("sshd.open" ->
   "sshd").  Pass roots are named "pass" and own the uncovered remainder. *)
let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Summed self time per layer, name-sorted. *)
let self_by_layer t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let l = layer t.names.(i) in
      Hashtbl.replace tbl l (s +. Option.value (Hashtbl.find_opt tbl l) ~default:0.))
    self;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Durations of every span with exactly this name. *)
let durations t name =
  let s = Stats.samples () in
  for i = 0 to t.len - 1 do
    if t.names.(i) = name then Stats.add s (duration t i)
  done;
  s

let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
      t.names.(i) (1e6 *. t.start.(i)) (1e6 *. duration t i) t.pass.(i) i t.parent.(i)
  done;
  output_string oc "]}\n";
  close_out oc
