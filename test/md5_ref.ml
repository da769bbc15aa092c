(* Reference model for the MD5 equivalence test: the earlier
   implementation, which pads a copy of the whole message and picks each
   step's function and message word through a tuple.
   [Memguard_crypto.Md5] must produce exactly the same bytes (see
   test_cipher.ml "md5 matches reference"). *)

let mask = 0xFFFFFFFF

let s =
  [| 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
     5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
     4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
     6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21 |]

let k =
  [| 0xd76aa478; 0xe8c7b756; 0x242070db; 0xc1bdceee; 0xf57c0faf; 0x4787c62a;
     0xa8304613; 0xfd469501; 0x698098d8; 0x8b44f7af; 0xffff5bb1; 0x895cd7be;
     0x6b901122; 0xfd987193; 0xa679438e; 0x49b40821; 0xf61e2562; 0xc040b340;
     0x265e5a51; 0xe9b6c7aa; 0xd62f105d; 0x02441453; 0xd8a1e681; 0xe7d3fbc8;
     0x21e1cde6; 0xc33707d6; 0xf4d50d87; 0x455a14ed; 0xa9e3e905; 0xfcefa3f8;
     0x676f02d9; 0x8d2a4c8a; 0xfffa3942; 0x8771f681; 0x6d9d6122; 0xfde5380c;
     0xa4beea44; 0x4bdecfa9; 0xf6bb4b60; 0xbebfbc70; 0x289b7ec6; 0xeaa127fa;
     0xd4ef3085; 0x04881d05; 0xd9d4d039; 0xe6db99e5; 0x1fa27cf8; 0xc4ac5665;
     0xf4292244; 0x432aff97; 0xab9423a7; 0xfc93a039; 0x655b59c3; 0x8f0ccc92;
     0xffeff47d; 0x85845dd1; 0x6fa87e4f; 0xfe2ce6e0; 0xa3014314; 0x4e0811a1;
     0xf7537e82; 0xbd3af235; 0x2ad7d2bb; 0xeb86d391 |]

let rotl x c = ((x lsl c) lor (x lsr (32 - c))) land mask

let digest msg =
  let len = String.length msg in
  (* padding: 0x80, zeros, 64-bit little-endian bit length *)
  let padded_len = ((len + 8) / 64 * 64) + 64 in
  let buf = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 buf 0 len;
  Bytes.set buf len '\x80';
  let bitlen = len * 8 in
  for i = 0 to 7 do
    Bytes.set buf (padded_len - 8 + i) (Char.chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  let a0 = ref 0x67452301 and b0 = ref 0xefcdab89 and c0 = ref 0x98badcfe and d0 = ref 0x10325476 in
  let m = Array.make 16 0 in
  for chunk = 0 to (padded_len / 64) - 1 do
    for j = 0 to 15 do
      let off = (chunk * 64) + (j * 4) in
      m.(j) <-
        Char.code (Bytes.get buf off)
        lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
        lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
        lor (Char.code (Bytes.get buf (off + 3)) lsl 24)
    done;
    let a = ref !a0 and b = ref !b0 and c = ref !c0 and d = ref !d0 in
    for i = 0 to 63 do
      let f, g =
        if i < 16 then ((!b land !c) lor (lnot !b land !d) land mask, i)
        else if i < 32 then ((!d land !b) lor (lnot !d land !c) land mask, ((5 * i) + 1) mod 16)
        else if i < 48 then (!b lxor !c lxor !d, ((3 * i) + 5) mod 16)
        else (!c lxor (!b lor (lnot !d land mask)) land mask, (7 * i) mod 16)
      in
      let f = (f + !a + k.(i) + m.(g)) land mask in
      a := !d;
      d := !c;
      c := !b;
      b := (!b + rotl f s.(i)) land mask
    done;
    a0 := (!a0 + !a) land mask;
    b0 := (!b0 + !b) land mask;
    c0 := (!c0 + !c) land mask;
    d0 := (!d0 + !d) land mask
  done;
  let out = Bytes.create 16 in
  List.iteri
    (fun idx v ->
      for i = 0 to 3 do
        Bytes.set out ((idx * 4) + i) (Char.chr ((v lsr (8 * i)) land 0xff))
      done)
    [ !a0; !b0; !c0; !d0 ];
  Bytes.unsafe_to_string out
