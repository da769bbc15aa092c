let begin_marker label = "-----BEGIN " ^ label ^ "-----"
let end_marker label = "-----END " ^ label ^ "-----"

let encode ~label der =
  String.concat ""
    [ begin_marker label; "\n"; Base64.encode_wrapped der; end_marker label; "\n" ]

let derive_key ~passphrase ~iv =
  (* EVP_BytesToKey(md5, count=1): salt = first 8 bytes of the IV *)
  Md5.bytes_to_key ~passphrase ~salt:(String.sub iv 0 8) ~length:16

let encode_encrypted ~label ~passphrase ~iv der =
  if String.length iv <> 16 then invalid_arg "Pem.encode_encrypted: iv must be 16 bytes";
  let key = derive_key ~passphrase ~iv in
  let ciphertext = Aes.cbc_encrypt ~key ~iv der in
  String.concat ""
    [ begin_marker label; "\n";
      "Proc-Type: 4,ENCRYPTED\n";
      "DEK-Info: AES-128-CBC,";
      String.uppercase_ascii (Memguard_util.Bytes_util.hex_of_string iv);
      "\n\n";
      Base64.encode_wrapped ciphertext;
      end_marker label; "\n"
    ]

(* parse the first block: label, header lines (the "Key: value" ones), body *)
type block = { label : string; headers : (string * string) list; payload : string }

let parse_block text =
  let lines = String.split_on_char '\n' text in
  let is_begin line =
    let line = String.trim line in
    if String.length line > 16
       && String.sub line 0 11 = "-----BEGIN "
       && String.sub line (String.length line - 5) 5 = "-----"
    then Some (String.sub line 11 (String.length line - 16))
    else None
  in
  let rec find_begin lines =
    match lines with
    | [] -> Error "no PEM BEGIN marker found"
    | line :: rest -> (
      match is_begin line with
      | Some label -> headers label [] rest
      | None -> find_begin rest)
  and headers label acc lines =
    match lines with
    | [] -> Error "no PEM END marker found"
    | line :: rest -> (
      let line = String.trim line in
      match String.index_opt line ':' with
      | Some i when line <> end_marker label ->
        let k = String.trim (String.sub line 0 i) in
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        headers label ((k, v) :: acc) rest
      | _ -> body label (List.rev acc) [] (line :: rest))
  and body label hdrs acc lines =
    match lines with
    | [] -> Error "no PEM END marker found"
    | line :: rest ->
      let line = String.trim line in
      if line = end_marker label then
        Result.map
          (fun payload -> { label; headers = hdrs; payload })
          (Base64.decode (String.concat "" (List.rev acc)))
      else body label hdrs (line :: acc) rest
  in
  find_begin lines

let check_label expected block =
  match expected with
  | Some l when l <> block.label ->
    Error (Printf.sprintf "PEM label mismatch: expected %S, found %S" l block.label)
  | _ -> Ok block

let is_encrypted text =
  match parse_block text with
  | Ok b -> List.assoc_opt "Proc-Type" b.headers = Some "4,ENCRYPTED"
  | Error _ -> false

let decode ?label text =
  Result.bind (Result.bind (parse_block text) (check_label label)) (fun b ->
      if List.assoc_opt "Proc-Type" b.headers = Some "4,ENCRYPTED" then
        Error "PEM block is encrypted (passphrase required)"
      else Ok b.payload)

let decode_encrypted ?label ~passphrase text =
  Result.bind (Result.bind (parse_block text) (check_label label)) (fun b ->
      match List.assoc_opt "DEK-Info" b.headers with
      | None -> Error "no DEK-Info header (not an encrypted PEM?)"
      | Some info -> (
        match String.split_on_char ',' info with
        | [ "AES-128-CBC"; iv_hex ] -> (
          match Memguard_util.Bytes_util.string_of_hex (String.lowercase_ascii iv_hex) with
          | exception Invalid_argument _ -> Error "bad DEK-Info IV"
          | iv when String.length iv <> 16 -> Error "bad DEK-Info IV length"
          | iv ->
            let key = derive_key ~passphrase ~iv in
            Aes.cbc_decrypt ~key ~iv b.payload)
        | _ -> Error "unsupported DEK-Info cipher"))
