(* AES-128 (FIPS 197), word-oriented.  The state is four 32-bit big-endian
   column words held in native ints.  A middle round is one lookup per
   state byte into the T-tables, which fold SubBytes, ShiftRows and
   MixColumns (or their inverses) into one step; the last round uses the
   S-box alone.  Every table is built at module init from the S-boxes,
   themselves generated from the GF(2^8) inverse, and never written after,
   so domains share them safely.  Each block is encrypted in place in the
   output buffer, a word at a time. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else b lsl 1

let gmul a b =
  let acc = ref 0 in
  let a = ref a and b = ref b in
  for _ = 0 to 7 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc land 0xff

let sbox, inv_sbox =
  (* multiplicative inverse table by brute force (256^2 at init is free) *)
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for x = 0 to 255 do
    let i = inv.(x) in
    let rot v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
    let y = i lxor rot i 1 lxor rot i 2 lxor rot i 3 lxor rot i 4 lxor 0x63 in
    s.(x) <- y;
    si.(y) <- x
  done;
  (s, si)

(* [t0.(x)] is the column [c0•s(x), c1•s(x), c2•s(x), c3•s(x)]; t1..t3 are
   it rotated right by one, two and three bytes, for rows 1..3. *)
let tables s (c0, c1, c2, c3) =
  let ror w = ((w lsr 8) lor (w lsl 24)) land 0xFFFFFFFF in
  let t0 =
    Array.init 256 (fun x ->
        let v = s.(x) in
        (gmul v c0 lsl 24) lor (gmul v c1 lsl 16) lor (gmul v c2 lsl 8) lor gmul v c3)
  in
  let t1 = Array.map ror t0 in
  let t2 = Array.map ror t1 in
  (t0, t1, t2, Array.map ror t2)

let te0, te1, te2, te3 = tables sbox (2, 1, 1, 3)
let td0, td1, td2, td3 = tables inv_sbox (14, 9, 13, 11)

type key = int array
(* the 44-word schedule: round key r is words 4r..4r+3 *)

let word_of_string s i = Int32.to_int (String.get_int32_be s i) land 0xFFFFFFFF
let word b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFFFFFF
let set_word b i v = Bytes.set_int32_be b i (Int32.of_int v)

(* the S-box on each byte of a word, byte r taken from column word r *)
let[@inline] sub_word s a b c d =
  (s.(a lsr 24) lsl 24)
  lor (s.((b lsr 16) land 0xff) lsl 16)
  lor (s.((c lsr 8) land 0xff) lsl 8)
  lor s.(d land 0xff)

let expand_key keystr =
  if String.length keystr <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- word_of_string keystr (4 * i)
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        let rot = ((temp lsl 8) lor (temp lsr 24)) land 0xFFFFFFFF in
        let t = sub_word sbox rot rot rot rot lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        t
      end
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* The equivalent inverse cipher's schedule (FIPS 197 5.3.5): round keys
   1..9 through InvMixColumns, so decryption rounds use the [td] tables
   the way encryption rounds use [te]. *)
let inv_schedule (rk : key) =
  Array.mapi
    (fun i w ->
      if i < 4 || i >= 40 then w
      else
        td0.(sbox.(w lsr 24))
        lxor td1.(sbox.((w lsr 16) land 0xff))
        lxor td2.(sbox.((w lsr 8) land 0xff))
        lxor td3.(sbox.(w land 0xff)))
    rk

(* Encrypts the block at [off] in [b] in place, after XORing (x0, x1, x2,
   x3) into it: the CBC chaining value, or zeros for a bare block. *)
let encrypt_at rk b off x0 x1 x2 x3 =
  let s0 = ref (word b off lxor x0 lxor rk.(0))
  and s1 = ref (word b (off + 4) lxor x1 lxor rk.(1))
  and s2 = ref (word b (off + 8) lxor x2 lxor rk.(2))
  and s3 = ref (word b (off + 12) lxor x3 lxor rk.(3)) in
  for round = 1 to 9 do
    let k = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := te0.(a0 lsr 24) lxor te1.((a1 lsr 16) land 0xff) lxor te2.((a2 lsr 8) land 0xff)
          lxor te3.(a3 land 0xff) lxor rk.(k);
    s1 := te0.(a1 lsr 24) lxor te1.((a2 lsr 16) land 0xff) lxor te2.((a3 lsr 8) land 0xff)
          lxor te3.(a0 land 0xff) lxor rk.(k + 1);
    s2 := te0.(a2 lsr 24) lxor te1.((a3 lsr 16) land 0xff) lxor te2.((a0 lsr 8) land 0xff)
          lxor te3.(a1 land 0xff) lxor rk.(k + 2);
    s3 := te0.(a3 lsr 24) lxor te1.((a0 lsr 16) land 0xff) lxor te2.((a1 lsr 8) land 0xff)
          lxor te3.(a2 land 0xff) lxor rk.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  set_word b off (sub_word sbox a0 a1 a2 a3 lxor rk.(40));
  set_word b (off + 4) (sub_word sbox a1 a2 a3 a0 lxor rk.(41));
  set_word b (off + 8) (sub_word sbox a2 a3 a0 a1 lxor rk.(42));
  set_word b (off + 12) (sub_word sbox a3 a0 a1 a2 lxor rk.(43))

(* Decrypts the block at [off] in [b] in place under [dk] (an
   [inv_schedule]), then XORs (x0, x1, x2, x3) into it. *)
let decrypt_at dk b off x0 x1 x2 x3 =
  let s0 = ref (word b off lxor dk.(40))
  and s1 = ref (word b (off + 4) lxor dk.(41))
  and s2 = ref (word b (off + 8) lxor dk.(42))
  and s3 = ref (word b (off + 12) lxor dk.(43)) in
  for round = 9 downto 1 do
    let k = 4 * round and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := td0.(a0 lsr 24) lxor td1.((a3 lsr 16) land 0xff) lxor td2.((a2 lsr 8) land 0xff)
          lxor td3.(a1 land 0xff) lxor dk.(k);
    s1 := td0.(a1 lsr 24) lxor td1.((a0 lsr 16) land 0xff) lxor td2.((a3 lsr 8) land 0xff)
          lxor td3.(a2 land 0xff) lxor dk.(k + 1);
    s2 := td0.(a2 lsr 24) lxor td1.((a1 lsr 16) land 0xff) lxor td2.((a0 lsr 8) land 0xff)
          lxor td3.(a3 land 0xff) lxor dk.(k + 2);
    s3 := td0.(a3 lsr 24) lxor td1.((a2 lsr 16) land 0xff) lxor td2.((a1 lsr 8) land 0xff)
          lxor td3.(a0 land 0xff) lxor dk.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  set_word b off (sub_word inv_sbox a0 a3 a2 a1 lxor dk.(0) lxor x0);
  set_word b (off + 4) (sub_word inv_sbox a1 a0 a3 a2 lxor dk.(1) lxor x1);
  set_word b (off + 8) (sub_word inv_sbox a2 a1 a0 a3 lxor dk.(2) lxor x2);
  set_word b (off + 12) (sub_word inv_sbox a3 a2 a1 a0 lxor dk.(3) lxor x3)

let encrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block: block must be 16 bytes";
  let b = Bytes.of_string block in
  encrypt_at rk b 0 0 0 0 0;
  Bytes.unsafe_to_string b

let decrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes.decrypt_block: block must be 16 bytes";
  let b = Bytes.of_string block in
  decrypt_at (inv_schedule rk) b 0 0 0 0 0;
  Bytes.unsafe_to_string b

let cbc_encrypt ~key ~iv plaintext =
  if String.length iv <> 16 then invalid_arg "Aes.cbc_encrypt: iv must be 16 bytes";
  let rk = expand_key key in
  let n = String.length plaintext in
  let pad = 16 - (n mod 16) in
  let out = Bytes.make (n + pad) (Char.chr pad) in
  Bytes.blit_string plaintext 0 out 0 n;
  encrypt_at rk out 0 (word_of_string iv 0) (word_of_string iv 4) (word_of_string iv 8)
    (word_of_string iv 12);
  for i = 1 to ((n + pad) / 16) - 1 do
    let off = 16 * i in
    encrypt_at rk out off (word out (off - 16)) (word out (off - 12)) (word out (off - 8))
      (word out (off - 4))
  done;
  Bytes.unsafe_to_string out

let cbc_decrypt ~key ~iv ciphertext =
  if String.length iv <> 16 then invalid_arg "Aes.cbc_decrypt: iv must be 16 bytes";
  let n = String.length ciphertext in
  if n = 0 || n mod 16 <> 0 then Error "ciphertext length not a positive multiple of 16"
  else begin
    let dk = inv_schedule (expand_key key) in
    let out = Bytes.of_string ciphertext in
    decrypt_at dk out 0 (word_of_string iv 0) (word_of_string iv 4) (word_of_string iv 8)
      (word_of_string iv 12);
    for i = 1 to (n / 16) - 1 do
      let off = 16 * i in
      decrypt_at dk out off (word_of_string ciphertext (off - 16))
        (word_of_string ciphertext (off - 12)) (word_of_string ciphertext (off - 8))
        (word_of_string ciphertext (off - 4))
    done;
    let pad = Char.code (Bytes.get out (n - 1)) in
    if pad < 1 || pad > 16 then Error "bad padding"
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code (Bytes.get out i) <> pad then ok := false
      done;
      if !ok then Ok (Bytes.sub_string out 0 (n - pad)) else Error "bad padding"
    end
  end
