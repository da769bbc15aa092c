(* FIPS 180-1, 32-bit words on native ints. *)

let mask = 0xFFFFFFFF

let rotl x c = ((x lsl c) lor (x lsr (32 - c))) land mask

let digest msg =
  let len = String.length msg in
  let padded_len = ((len + 8) / 64 * 64) + 64 in
  let buf = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 buf 0 len;
  Bytes.set buf len '\x80';
  let bitlen = len * 8 in
  for i = 0 to 7 do
    (* big-endian length *)
    Bytes.set buf (padded_len - 1 - i) (Char.chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  let h0 = ref 0x67452301 and h1 = ref 0xEFCDAB89 and h2 = ref 0x98BADCFE in
  let h3 = ref 0x10325476 and h4 = ref 0xC3D2E1F0 in
  let w = Array.make 80 0 in
  for chunk = 0 to (padded_len / 64) - 1 do
    for j = 0 to 15 do
      let off = (chunk * 64) + (j * 4) in
      w.(j) <-
        (Char.code (Bytes.get buf off) lsl 24)
        lor (Char.code (Bytes.get buf (off + 1)) lsl 16)
        lor (Char.code (Bytes.get buf (off + 2)) lsl 8)
        lor Char.code (Bytes.get buf (off + 3))
    done;
    for j = 16 to 79 do
      w.(j) <- rotl (w.(j - 3) lxor w.(j - 8) lxor w.(j - 14) lxor w.(j - 16)) 1
    done;
    let a = ref !h0 and b = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
    for j = 0 to 79 do
      let f, kc =
        if j < 20 then ((!b land !c) lor (lnot !b land !d) land mask, 0x5A827999)
        else if j < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
        else if j < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
        else (!b lxor !c lxor !d, 0xCA62C1D6)
      in
      let temp = (rotl !a 5 + f + !e + kc + w.(j)) land mask in
      e := !d;
      d := !c;
      c := rotl !b 30;
      b := !a;
      a := temp
    done;
    h0 := (!h0 + !a) land mask;
    h1 := (!h1 + !b) land mask;
    h2 := (!h2 + !c) land mask;
    h3 := (!h3 + !d) land mask;
    h4 := (!h4 + !e) land mask
  done;
  let out = Bytes.create 20 in
  List.iteri
    (fun idx v ->
      for i = 0 to 3 do
        Bytes.set out ((idx * 4) + i) (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
      done)
    [ !h0; !h1; !h2; !h3; !h4 ];
  Bytes.unsafe_to_string out
