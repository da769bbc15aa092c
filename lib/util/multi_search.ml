(* Wu–Manber multi-needle search.  Let m be the shortest pattern length and
   B the block size (2, or 1 when m = 1).  The sweep probes the B-byte
   block ending at the last byte of the current m-byte window:

   - shift.(block) is the minimum, over every occurrence of [block] inside
     the first m bytes of any pattern, of the distance from that occurrence
     to the window end (default m - B + 1 when the block occurs nowhere).
     Advancing by it can never step over an occurrence of any pattern, so
     overlapping matches are all found.
   - a zero shift means some pattern's length-m prefix ends in this block;
     hash.(block) lists those candidate patterns, each verified in full,
     and the window then advances by one byte. *)

type t = {
  patterns : string array;
  min_len : int;
  max_len : int;
  block : int; (* B *)
  shift : int array; (* indexed by block value: 256^B entries *)
  hash : int list array; (* block value -> patterns whose m-prefix ends in it *)
}

let max_len t = t.max_len

let compile patterns =
  let patterns = Array.copy patterns in
  Array.iter
    (fun p -> if p = "" then invalid_arg "Multi_search.compile: empty pattern")
    patterns;
  if Array.length patterns = 0 then
    { patterns; min_len = 0; max_len = 0; block = 1; shift = [||]; hash = [||] }
  else begin
    let m = Array.fold_left (fun acc p -> min acc (String.length p)) max_int patterns in
    let maxl = Array.fold_left (fun acc p -> max acc (String.length p)) 0 patterns in
    let block = if m >= 2 then 2 else 1 in
    let table_size = if block = 2 then 0x10000 else 0x100 in
    let shift = Array.make table_size (m - block + 1) in
    let hash = Array.make table_size [] in
    Array.iteri
      (fun idx p ->
        for j = block - 1 to m - 1 do
          let v =
            if block = 2 then (Char.code p.[j - 1] lsl 8) lor Char.code p.[j]
            else Char.code p.[j]
          in
          let s = m - 1 - j in
          if s < shift.(v) then shift.(v) <- s;
          if s = 0 then hash.(v) <- idx :: hash.(v)
        done)
      patterns;
    (* candidate lists were built backwards; matches at one position must be
       delivered in ascending pattern order *)
    Array.iteri (fun v l -> hash.(v) <- List.rev l) hash;
    { patterns; min_len = m; max_len = maxl; block; shift; hash }
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
      let s = Array.unsafe_get t.shift v in
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
          (Array.unsafe_get t.hash v);
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
