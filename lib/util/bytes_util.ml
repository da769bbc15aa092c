let check_range ~haystack ~from ~until =
  if from < 0 || until > Bytes.length haystack || from > until then
    invalid_arg "Bytes_util: bad range"

(* Short needles: memchr on the first byte, then verify.  Long needles
   (the key fragments of 16-128 bytes the scanner hunts over tens of MiB):
   Boyer–Moore–Horspool, which skips up to |needle| bytes per probe.
   Horspool's shift never steps over an occurrence, so overlapping matches
   are still all reported (property-tested against a naive reference). *)
let find_all_first_byte ~from ~until ~needle haystack =
  let n = String.length needle in
  let c0 = needle.[0] in
  let last = until - n in
  let acc = ref [] in
  let i = ref from in
  while !i <= last do
    (match Bytes.index_from haystack !i c0 with
     | exception Not_found -> i := last + 1
     | j ->
       if j > last then i := last + 1
       else begin
         let ok = ref true in
         let k = ref 1 in
         while !ok && !k < n do
           if Bytes.unsafe_get haystack (j + !k) <> String.unsafe_get needle !k then ok := false;
           incr k
         done;
         if !ok then acc := j :: !acc;
         i := j + 1
       end)
  done;
  List.rev !acc

let find_all_horspool ~from ~until ~needle haystack =
  let n = String.length needle in
  let shift = Array.make 256 n in
  for i = 0 to n - 2 do
    shift.(Char.code needle.[i]) <- n - 1 - i
  done;
  let last = until - n in
  let acc = ref [] in
  let pos = ref from in
  while !pos <= last do
    let tail = Bytes.unsafe_get haystack (!pos + n - 1) in
    if tail = String.unsafe_get needle (n - 1) then begin
      let ok = ref true in
      let k = ref 0 in
      while !ok && !k < n - 1 do
        if Bytes.unsafe_get haystack (!pos + !k) <> String.unsafe_get needle !k then ok := false;
        incr k
      done;
      if !ok then acc := !pos :: !acc
    end;
    pos := !pos + shift.(Char.code tail)
  done;
  List.rev !acc

let find_all ?(from = 0) ?until ~needle haystack =
  let until = match until with Some u -> u | None -> Bytes.length haystack in
  check_range ~haystack ~from ~until;
  let n = String.length needle in
  if n = 0 then invalid_arg "Bytes_util.find_all: empty needle";
  if n > until - from then []
  else if n < 8 then find_all_first_byte ~from ~until ~needle haystack
  else find_all_horspool ~from ~until ~needle haystack

let find_first ?(from = 0) ?until ~needle haystack =
  let until = match until with Some u -> u | None -> Bytes.length haystack in
  check_range ~haystack ~from ~until;
  let n = String.length needle in
  if n = 0 then invalid_arg "Bytes_util.find_first: empty needle";
  if n > until - from then None
  else begin
    let c0 = needle.[0] in
    let last = until - n in
    let rec go i =
      if i > last then None
      else
        match Bytes.index_from haystack i c0 with
        | exception Not_found -> None
        | j ->
          if j > last then None
          else begin
            let rec cmp k =
              if k = n then true
              else if Bytes.unsafe_get haystack (j + k) = String.unsafe_get needle k then
                cmp (k + 1)
              else false
            in
            if cmp 1 then Some j else go (j + 1)
          end
    in
    go from
  end

let count ?(from = 0) ?until ~needle haystack =
  List.length (find_all ~from ?until ~needle haystack)

(* Word-wise: this backs [Phys_mem.frame_is_zero], which the zero-on-free
   audit calls on every frame, so it runs over whole memories. *)
let is_zero b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Bytes_util.is_zero: bad range";
  let limit = pos + len in
  let i = ref pos in
  let ok = ref true in
  while !ok && !i + 8 <= limit do
    if Bytes.get_int64_ne b !i <> 0L then ok := false else i := !i + 8
  done;
  while !ok && !i < limit do
    if Bytes.unsafe_get b !i <> '\000' then ok := false else incr i
  done;
  !ok

let hex_digit = "0123456789abcdef"

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter
    (fun c ->
      let n = Char.code c in
      Buffer.add_char b hex_digit.[n lsr 4];
      Buffer.add_char b hex_digit.[n land 0xf])
    s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Bytes_util.string_of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytes_util.string_of_hex: bad digit"
  in
  String.init (n / 2) (fun i -> Char.chr ((digit h.[2 * i] lsl 4) lor digit h.[(2 * i) + 1]))

let human_size n =
  let f = float_of_int n in
  if n < 1024 then Printf.sprintf "%dB" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1fKiB" (f /. 1024.)
  else if n < 1024 * 1024 * 1024 then Printf.sprintf "%.1fMiB" (f /. (1024. *. 1024.))
  else Printf.sprintf "%.1fGiB" (f /. (1024. *. 1024. *. 1024.))
