let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let encode s =
  let n = String.length s in
  let buf = Buffer.create ((n + 2) / 3 * 4) in
  let i = ref 0 in
  while !i + 2 < n do
    let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] and b2 = Char.code s.[!i + 2] in
    Buffer.add_char buf alphabet.[b0 lsr 2];
    Buffer.add_char buf alphabet.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
    Buffer.add_char buf alphabet.[((b1 land 15) lsl 2) lor (b2 lsr 6)];
    Buffer.add_char buf alphabet.[b2 land 63];
    i := !i + 3
  done;
  (match n - !i with
   | 1 ->
     let b0 = Char.code s.[!i] in
     Buffer.add_char buf alphabet.[b0 lsr 2];
     Buffer.add_char buf alphabet.[(b0 land 3) lsl 4];
     Buffer.add_string buf "=="
   | 2 ->
     let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] in
     Buffer.add_char buf alphabet.[b0 lsr 2];
     Buffer.add_char buf alphabet.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
     Buffer.add_char buf alphabet.[(b1 land 15) lsl 2];
     Buffer.add_char buf '='
   | _ -> ());
  Buffer.contents buf

let encode_wrapped ?(width = 64) s =
  let flat = encode s in
  let n = String.length flat in
  let buf = Buffer.create (n + (n / width) + 2) in
  let i = ref 0 in
  while !i < n do
    let len = min width (n - !i) in
    Buffer.add_substring buf flat !i len;
    Buffer.add_char buf '\n';
    i := !i + len
  done;
  Buffer.contents buf

let value_of_char c =
  match c with
  | 'A' .. 'Z' -> Some (Char.code c - Char.code 'A')
  | 'a' .. 'z' -> Some (Char.code c - Char.code 'a' + 26)
  | '0' .. '9' -> Some (Char.code c - Char.code '0' + 52)
  | '+' -> Some 62
  | '/' -> Some 63
  | _ -> None

let decode s =
  let buf = Buffer.create (String.length s * 3 / 4) in
  let acc = ref 0 and nbits = ref 0 and pad = ref 0 in
  let error = ref None in
  String.iter
    (fun c ->
      if !error = None then
        match c with
        | ' ' | '\t' | '\n' | '\r' -> ()
        | '=' -> incr pad
        | c -> (
          if !pad > 0 then error := Some "data after padding"
          else
            match value_of_char c with
            | None -> error := Some (Printf.sprintf "invalid base64 character %C" c)
            | Some v ->
              acc := (!acc lsl 6) lor v;
              nbits := !nbits + 6;
              if !nbits >= 8 then begin
                nbits := !nbits - 8;
                Buffer.add_char buf (Char.chr ((!acc lsr !nbits) land 0xff))
              end))
    s;
  match !error with
  | Some e -> Error e
  | None ->
    if !pad > 2 then Error "too much padding"
    else if !nbits = 6 then Error "truncated base64 quantum"
    else if (!nbits = 4 && !pad <> 2) || (!nbits = 2 && !pad <> 1) || (!nbits = 0 && !pad <> 0)
    then Error "bad padding"
    else if !acc land ((1 lsl !nbits) - 1) <> 0 then Error "non-zero trailing bits"
    else Ok (Buffer.contents buf)
