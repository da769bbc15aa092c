(* RFC 1321 on native ints, one 32-bit word per int.  The 64 steps of a
   block are written out, each with its own round function, message word,
   shift and constant, so hashing a block allocates nothing.  Whole blocks
   are read straight from the message; only the last one or two, which
   carry the padding and the bit length, are copied. *)

let mask = 0xFFFFFFFF

let rotl x c = ((x lsl c) lor (x lsr (32 - c))) land mask
let word src off = Int32.to_int (Bytes.get_int32_le src off) land mask

(* one step: [a] becomes [b + (a + f(b, c, d) + x + t) <<< s] *)
let[@inline] step f a b x s t = (b + rotl ((a + f + x + t) land mask) s) land mask
let[@inline] ff a b c d x s t = step ((b land c) lor (lnot b land d)) a b x s t
let[@inline] gg a b c d x s t = step ((d land b) lor (lnot d land c)) a b x s t
let[@inline] hh a b c d x s t = step (b lxor c lxor d) a b x s t
let[@inline] ii a b c d x s t = step (c lxor (b lor (lnot d land mask))) a b x s t

(* fold the 64-byte block at [src.(off)] into the state [h] *)
let compress h src off =
  let m0 = word src off in
  let m1 = word src (off + 4) in
  let m2 = word src (off + 8) in
  let m3 = word src (off + 12) in
  let m4 = word src (off + 16) in
  let m5 = word src (off + 20) in
  let m6 = word src (off + 24) in
  let m7 = word src (off + 28) in
  let m8 = word src (off + 32) in
  let m9 = word src (off + 36) in
  let m10 = word src (off + 40) in
  let m11 = word src (off + 44) in
  let m12 = word src (off + 48) in
  let m13 = word src (off + 52) in
  let m14 = word src (off + 56) in
  let m15 = word src (off + 60) in
  let a = h.(0) and b = h.(1) and c = h.(2) and d = h.(3) in
  let a = ff a b c d m0 7 0xd76aa478 in
  let d = ff d a b c m1 12 0xe8c7b756 in
  let c = ff c d a b m2 17 0x242070db in
  let b = ff b c d a m3 22 0xc1bdceee in
  let a = ff a b c d m4 7 0xf57c0faf in
  let d = ff d a b c m5 12 0x4787c62a in
  let c = ff c d a b m6 17 0xa8304613 in
  let b = ff b c d a m7 22 0xfd469501 in
  let a = ff a b c d m8 7 0x698098d8 in
  let d = ff d a b c m9 12 0x8b44f7af in
  let c = ff c d a b m10 17 0xffff5bb1 in
  let b = ff b c d a m11 22 0x895cd7be in
  let a = ff a b c d m12 7 0x6b901122 in
  let d = ff d a b c m13 12 0xfd987193 in
  let c = ff c d a b m14 17 0xa679438e in
  let b = ff b c d a m15 22 0x49b40821 in
  let a = gg a b c d m1 5 0xf61e2562 in
  let d = gg d a b c m6 9 0xc040b340 in
  let c = gg c d a b m11 14 0x265e5a51 in
  let b = gg b c d a m0 20 0xe9b6c7aa in
  let a = gg a b c d m5 5 0xd62f105d in
  let d = gg d a b c m10 9 0x02441453 in
  let c = gg c d a b m15 14 0xd8a1e681 in
  let b = gg b c d a m4 20 0xe7d3fbc8 in
  let a = gg a b c d m9 5 0x21e1cde6 in
  let d = gg d a b c m14 9 0xc33707d6 in
  let c = gg c d a b m3 14 0xf4d50d87 in
  let b = gg b c d a m8 20 0x455a14ed in
  let a = gg a b c d m13 5 0xa9e3e905 in
  let d = gg d a b c m2 9 0xfcefa3f8 in
  let c = gg c d a b m7 14 0x676f02d9 in
  let b = gg b c d a m12 20 0x8d2a4c8a in
  let a = hh a b c d m5 4 0xfffa3942 in
  let d = hh d a b c m8 11 0x8771f681 in
  let c = hh c d a b m11 16 0x6d9d6122 in
  let b = hh b c d a m14 23 0xfde5380c in
  let a = hh a b c d m1 4 0xa4beea44 in
  let d = hh d a b c m4 11 0x4bdecfa9 in
  let c = hh c d a b m7 16 0xf6bb4b60 in
  let b = hh b c d a m10 23 0xbebfbc70 in
  let a = hh a b c d m13 4 0x289b7ec6 in
  let d = hh d a b c m0 11 0xeaa127fa in
  let c = hh c d a b m3 16 0xd4ef3085 in
  let b = hh b c d a m6 23 0x04881d05 in
  let a = hh a b c d m9 4 0xd9d4d039 in
  let d = hh d a b c m12 11 0xe6db99e5 in
  let c = hh c d a b m15 16 0x1fa27cf8 in
  let b = hh b c d a m2 23 0xc4ac5665 in
  let a = ii a b c d m0 6 0xf4292244 in
  let d = ii d a b c m7 10 0x432aff97 in
  let c = ii c d a b m14 15 0xab9423a7 in
  let b = ii b c d a m5 21 0xfc93a039 in
  let a = ii a b c d m12 6 0x655b59c3 in
  let d = ii d a b c m3 10 0x8f0ccc92 in
  let c = ii c d a b m10 15 0xffeff47d in
  let b = ii b c d a m1 21 0x85845dd1 in
  let a = ii a b c d m8 6 0x6fa87e4f in
  let d = ii d a b c m15 10 0xfe2ce6e0 in
  let c = ii c d a b m6 15 0xa3014314 in
  let b = ii b c d a m13 21 0x4e0811a1 in
  let a = ii a b c d m4 6 0xf7537e82 in
  let d = ii d a b c m11 10 0xbd3af235 in
  let c = ii c d a b m2 15 0x2ad7d2bb in
  let b = ii b c d a m9 21 0xeb86d391 in
  h.(0) <- (h.(0) + a) land mask;
  h.(1) <- (h.(1) + b) land mask;
  h.(2) <- (h.(2) + c) land mask;
  h.(3) <- (h.(3) + d) land mask

let digest msg =
  let len = String.length msg in
  let h = [| 0x67452301; 0xefcdab89; 0x98badcfe; 0x10325476 |] in
  let full = len / 64 in
  for i = 0 to full - 1 do
    compress h (Bytes.unsafe_of_string msg) (i * 64)
  done;
  (* the rest, 0x80, zeros and the 64-bit little-endian bit length: two
     blocks when fewer than 9 bytes of the last one are free *)
  let rest = len - (full * 64) in
  let tail = Bytes.make (if rest < 56 then 64 else 128) '\000' in
  Bytes.blit_string msg (full * 64) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_le tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
  compress h tail 0;
  if Bytes.length tail = 128 then compress h tail 64;
  let out = Bytes.create 16 in
  for i = 0 to 3 do
    Bytes.set_int32_le out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

let bytes_to_key ~passphrase ~salt ~length =
  let buf = Buffer.create length in
  let d = ref "" in
  while Buffer.length buf < length do
    d := digest (!d ^ passphrase ^ salt);
    Buffer.add_string buf !d
  done;
  String.sub (Buffer.contents buf) 0 length
