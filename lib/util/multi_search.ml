(* Wu–Manber multi-needle search.  Let m be the shortest pattern length and
   B the block size (2, or 1 when m = 1).  The sweep probes the B-byte
   block ending at the last byte of the current m-byte window:

   - shift.[block] is the minimum, over every occurrence of [block] inside
     the first m bytes of any pattern, of the distance from that occurrence
     to the window end (default m - B + 1 when the block occurs nowhere),
     capped at 255 to fit a byte.  Advancing by it can never step over an
     occurrence of any pattern — a smaller shift is always safe — so
     overlapping matches are all found.
   - a zero shift means some pattern's length-m prefix ends in this block;
     [candidates] lists those patterns for each such block, each verified
     in full, and the window then advances by one byte.

   Compiling touches the patterns' bytes and one memset of the table, so
   a matcher costs microseconds to build. *)

type t = {
  patterns : string array;
  min_len : int;
  max_len : int;
  block : int; (* B *)
  shift : Bytes.t; (* indexed by block value: 256^B entries *)
  candidates : (int, int list) Hashtbl.t;
      (* zero-shift block value -> patterns whose m-prefix ends in it *)
}

let max_len t = t.max_len

let compile patterns =
  let patterns = Array.copy patterns in
  Array.iter
    (fun p -> if p = "" then invalid_arg "Multi_search.compile: empty pattern")
    patterns;
  let candidates = Hashtbl.create 8 in
  if Array.length patterns = 0 then
    { patterns; min_len = 0; max_len = 0; block = 1; shift = Bytes.empty; candidates }
  else begin
    let m = Array.fold_left (fun acc p -> min acc (String.length p)) max_int patterns in
    let maxl = Array.fold_left (fun acc p -> max acc (String.length p)) 0 patterns in
    let block = if m >= 2 then 2 else 1 in
    let table_size = if block = 2 then 0x10000 else 0x100 in
    let shift = Bytes.make table_size (Char.chr (min 255 (m - block + 1))) in
    (* only the last 255 block positions of a prefix can lower a shift
       below the cap *)
    let from = max (block - 1) (m - 255) in
    (* pattern indices walked downwards, so each candidate list ends up
       ascending: matches at one position are delivered in pattern order *)
    for idx = Array.length patterns - 1 downto 0 do
      let p = patterns.(idx) in
      for j = from to m - 1 do
        let v =
          if block = 2 then (Char.code p.[j - 1] lsl 8) lor Char.code p.[j]
          else Char.code p.[j]
        in
        let s = m - 1 - j in
        if s < Char.code (Bytes.unsafe_get shift v) then
          Bytes.unsafe_set shift v (Char.chr s);
        if s = 0 then
          Hashtbl.replace candidates v
            (idx :: Option.value (Hashtbl.find_opt candidates v) ~default:[])
      done
    done;
    { patterns; min_len = m; max_len = maxl; block; shift; candidates }
  end

let iter ?(from = 0) ?until t haystack ~f =
  let until = match until with Some u -> u | None -> Bytes.length haystack in
  if from < 0 || until > Bytes.length haystack || from > until then
    invalid_arg "Multi_search.iter: bad range";
  if Array.length t.patterns > 0 && t.min_len <= until - from then begin
    let m = t.min_len in
    let last = until - m in
    let pos = ref from in
    while !pos <= last do
      let j = !pos + m - 1 in
      let v =
        if t.block = 2 then
          (Char.code (Bytes.unsafe_get haystack (j - 1)) lsl 8)
          lor Char.code (Bytes.unsafe_get haystack j)
        else Char.code (Bytes.unsafe_get haystack j)
      in
      let s = Char.code (Bytes.unsafe_get t.shift v) in
      if s = 0 then begin
        List.iter
          (fun idx ->
            let p = t.patterns.(idx) in
            let n = String.length p in
            if !pos + n <= until then begin
              let ok = ref true in
              let k = ref 0 in
              while !ok && !k < n do
                if Bytes.unsafe_get haystack (!pos + !k) <> String.unsafe_get p !k then
                  ok := false;
                incr k
              done;
              if !ok then f ~pos:!pos ~pat:idx
            end)
          (Hashtbl.find t.candidates v);
        incr pos
      end
      else pos := !pos + s
    done
  end

let find_all ?from ?until t haystack =
  let acc = ref [] in
  iter ?from ?until t haystack ~f:(fun ~pos ~pat -> acc := (pos, pat) :: !acc);
  List.rev !acc

let count t haystack =
  let n = ref 0 in
  iter t haystack ~f:(fun ~pos:_ ~pat:_ -> incr n);
  !n
