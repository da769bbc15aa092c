open Memguard_bignum

type t =
  | Integer of Bn.t
  | Octet_string of string
  | Sequence of t list

let tag_integer = 0x02
let tag_octet_string = 0x04
let tag_sequence = 0x30

let encode_length n =
  if n < 0x80 then String.make 1 (Char.chr n)
  else begin
    let rec bytes acc v = if v = 0 then acc else bytes (Char.chr (v land 0xff) :: acc) (v lsr 8) in
    let bl = bytes [] n in
    let len_bytes = String.init (List.length bl) (List.nth bl) in
    String.make 1 (Char.chr (0x80 lor String.length len_bytes)) ^ len_bytes
  end

(* minimal two's complement encoding of an INTEGER *)
let encode_integer_body v =
  if Bn.is_zero v then "\000"
  else if Bn.sign v > 0 then begin
    let mag = Bn.to_bytes_be v in
    if Char.code mag.[0] land 0x80 <> 0 then "\000" ^ mag else mag
  end
  else begin
    (* two's complement: the minimal width w satisfies v >= -2^(8w-1) *)
    let w = ref 1 in
    while Bn.compare v (Bn.neg (Bn.shift_left Bn.one ((8 * !w) - 1))) < 0 do
      incr w
    done;
    let two_pow = Bn.shift_left Bn.one (8 * !w) in
    Bn.to_bytes_be_pad (Bn.add two_pow v) !w
  end

let rec encode v =
  match v with
  | Integer i ->
    let body = encode_integer_body i in
    String.make 1 (Char.chr tag_integer) ^ encode_length (String.length body) ^ body
  | Octet_string s ->
    String.make 1 (Char.chr tag_octet_string) ^ encode_length (String.length s) ^ s
  | Sequence items ->
    let body = String.concat "" (List.map encode items) in
    String.make 1 (Char.chr tag_sequence) ^ encode_length (String.length body) ^ body

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* returns (value, next_offset) *)
let rec parse s off =
  if off + 2 > String.length s then parse_error "truncated TLV header at %d" off;
  let tag = Char.code s.[off] in
  let len0 = Char.code s.[off + 1] in
  let len, body_off =
    if len0 < 0x80 then (len0, off + 2)
    else begin
      let nlen = len0 land 0x7f in
      if nlen = 0 then parse_error "indefinite length not allowed in DER";
      if nlen > 4 then parse_error "length too large";
      if off + 2 + nlen > String.length s then parse_error "truncated long length";
      let v = ref 0 in
      for i = 0 to nlen - 1 do
        v := (!v lsl 8) lor Char.code s.[off + 2 + i]
      done;
      if !v < 0x80 then parse_error "non-minimal long-form length";
      (!v, off + 2 + nlen)
    end
  in
  if body_off + len > String.length s then parse_error "value overruns input";
  let next = body_off + len in
  if tag = tag_integer then begin
    if len = 0 then parse_error "empty INTEGER";
    let body = String.sub s body_off len in
    if len >= 2 then begin
      let b0 = Char.code body.[0] and b1 = Char.code body.[1] in
      if (b0 = 0 && b1 land 0x80 = 0) || (b0 = 0xff && b1 land 0x80 <> 0) then
        parse_error "non-minimal INTEGER encoding"
    end;
    let v =
      if Char.code body.[0] land 0x80 = 0 then Bn.of_bytes_be body
      else
        (* negative: value = mag - 2^(8*len) *)
        Bn.sub (Bn.of_bytes_be body) (Bn.shift_left Bn.one (8 * len))
    in
    (Integer v, next)
  end
  else if tag = tag_octet_string then (Octet_string (String.sub s body_off len), next)
  else if tag = tag_sequence then begin
    let items = ref [] in
    let pos = ref body_off in
    while !pos < next do
      let v, p = parse s !pos in
      items := v :: !items;
      pos := p
    done;
    if !pos <> next then parse_error "sequence element overruns sequence";
    (Sequence (List.rev !items), next)
  end
  else parse_error "unsupported tag 0x%02x" tag

let decode s =
  match parse s 0 with
  | v, next -> if next <> String.length s then Error "trailing bytes after DER value" else Ok v
  | exception Parse_error e -> Error e
