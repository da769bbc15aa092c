type t = {
  data : bytes;
  page_size : int;
  slots : int;
  used : bool array;
  mutable used_count : int;
}

let create ?(slots = 1024) ~page_size () =
  { data = Bytes.make (slots * page_size) '\000';
    page_size;
    slots;
    used = Array.make slots false;
    used_count = 0
  }

let total_slots t = t.slots
let used_slots t = t.used_count
let free_slots t = t.slots - t.used_count

let slot_in_use t slot = slot >= 0 && slot < t.slots && t.used.(slot)

let used_slot_list t =
  let acc = ref [] in
  for slot = t.slots - 1 downto 0 do
    if t.used.(slot) then acc := slot :: !acc
  done;
  !acc

let reserve t =
  let rec find i = if i >= t.slots then None else if t.used.(i) then find (i + 1) else Some i in
  match find 0 with
  | None -> None
  | Some slot ->
    t.used.(slot) <- true;
    t.used_count <- t.used_count + 1;
    Some slot

let write_slot t slot content =
  if String.length content <> t.page_size then invalid_arg "Swap.write_slot: content must be one page";
  if slot < 0 || slot >= t.slots || not t.used.(slot) then invalid_arg "Swap.write_slot: bad slot";
  Bytes.blit_string content 0 t.data (slot * t.page_size) t.page_size

let store t content =
  if String.length content <> t.page_size then invalid_arg "Swap.store: content must be one page";
  match reserve t with
  | None -> None
  | Some slot ->
    write_slot t slot content;
    Some slot

let load t slot =
  if slot < 0 || slot >= t.slots || not t.used.(slot) then invalid_arg "Swap.load: bad slot";
  Bytes.sub_string t.data (slot * t.page_size) t.page_size

let release t slot =
  if slot < 0 || slot >= t.slots || not t.used.(slot) then invalid_arg "Swap.release: bad slot";
  t.used.(slot) <- false;
  t.used_count <- t.used_count - 1

let raw t = t.data
