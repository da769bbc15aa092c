(* Reference model for the AES equivalence test: the earlier byte-oriented
   implementation, one 16-byte int array per state and a copy per round
   step.  [Memguard_crypto.Aes] must produce exactly the same bytes (see
   test_cipher.ml "matches byte-oriented reference"). *)

(* AES-128, byte-oriented (FIPS 197).  Table-free except the S-boxes, which
   are generated at module init from the GF(2^8) inverse. *)

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

type key = int array array
(* 11 round keys of 16 bytes each *)

let expand_key keystr =
  if String.length keystr <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  (* 32-bit words, big-endian byte order within the word *)
  for i = 0 to 3 do
    w.(i) <-
      (Char.code keystr.[4 * i] lsl 24)
      lor (Char.code keystr.[(4 * i) + 1] lsl 16)
      lor (Char.code keystr.[(4 * i) + 2] lsl 8)
      lor Char.code keystr.[(4 * i) + 3]
  done;
  let sub_word v =
    (sbox.((v lsr 24) land 0xff) lsl 24)
    lor (sbox.((v lsr 16) land 0xff) lsl 16)
    lor (sbox.((v lsr 8) land 0xff) lsl 8)
    lor sbox.(v land 0xff)
  in
  let rot_word v = ((v lsl 8) lor (v lsr 24)) land 0xFFFFFFFF in
  let rcon = ref 1 in
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        let t = sub_word (rot_word temp) lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        t
      end
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  Array.init 11 (fun round ->
      Array.init 16 (fun b ->
          let word = w.((round * 4) + (b / 4)) in
          (word lsr (8 * (3 - (b mod 4)))) land 0xff))

(* state is a 16-element int array in column-major order (FIPS layout:
   state[r + 4c] = input[4c + r], i.e. input bytes fill columns) *)

let add_round_key state rk = Array.iteri (fun i v -> state.(i) <- v lxor rk.(i)) (Array.copy state)

let sub_bytes state = Array.iteri (fun i v -> state.(i) <- sbox.(v)) (Array.copy state)
let inv_sub_bytes state = Array.iteri (fun i v -> state.(i) <- inv_sbox.(v)) (Array.copy state)

(* with our layout state.(4*c + r), ShiftRows rotates bytes r across columns *)
let shift_rows state =
  let old = Array.copy state in
  for r = 0 to 3 do
    for c = 0 to 3 do
      state.((4 * c) + r) <- old.((4 * ((c + r) mod 4)) + r)
    done
  done

let inv_shift_rows state =
  let old = Array.copy state in
  for r = 0 to 3 do
    for c = 0 to 3 do
      state.((4 * ((c + r) mod 4)) + r) <- old.((4 * c) + r)
    done
  done

(* per-constant multiplication tables: MixColumns runs per record byte *)
let mul_table c = Array.init 256 (fun x -> gmul x c)

let m2 = mul_table 2
let m3 = mul_table 3
let m9 = mul_table 9
let m11 = mul_table 11
let m13 = mul_table 13
let m14 = mul_table 14

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) and a2 = state.((4 * c) + 2)
    and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- m2.(a0) lxor m3.(a1) lxor a2 lxor a3;
    state.((4 * c) + 1) <- a0 lxor m2.(a1) lxor m3.(a2) lxor a3;
    state.((4 * c) + 2) <- a0 lxor a1 lxor m2.(a2) lxor m3.(a3);
    state.((4 * c) + 3) <- m3.(a0) lxor a1 lxor a2 lxor m2.(a3)
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) and a2 = state.((4 * c) + 2)
    and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- m14.(a0) lxor m11.(a1) lxor m13.(a2) lxor m9.(a3);
    state.((4 * c) + 1) <- m9.(a0) lxor m14.(a1) lxor m11.(a2) lxor m13.(a3);
    state.((4 * c) + 2) <- m13.(a0) lxor m9.(a1) lxor m14.(a2) lxor m11.(a3);
    state.((4 * c) + 3) <- m11.(a0) lxor m13.(a1) lxor m9.(a2) lxor m14.(a3)
  done

let state_of_block block = Array.init 16 (fun i -> Char.code block.[i])
let block_of_state state = String.init 16 (fun i -> Char.chr state.(i))

let encrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block: block must be 16 bytes";
  let state = state_of_block block in
  add_round_key state rk.(0);
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state rk.(round)
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state rk.(10);
  block_of_state state

let decrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes.decrypt_block: block must be 16 bytes";
  let state = state_of_block block in
  add_round_key state rk.(10);
  inv_shift_rows state;
  inv_sub_bytes state;
  for round = 9 downto 1 do
    add_round_key state rk.(round);
    inv_mix_columns state;
    inv_shift_rows state;
    inv_sub_bytes state
  done;
  add_round_key state rk.(0);
  block_of_state state

let xor_block a b = String.init 16 (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let cbc_encrypt ~key ~iv plaintext =
  if String.length iv <> 16 then invalid_arg "Aes.cbc_encrypt: iv must be 16 bytes";
  let rk = expand_key key in
  let pad = 16 - (String.length plaintext mod 16) in
  let padded = plaintext ^ String.make pad (Char.chr pad) in
  let out = Buffer.create (String.length padded) in
  let prev = ref iv in
  for i = 0 to (String.length padded / 16) - 1 do
    let block = xor_block (String.sub padded (16 * i) 16) !prev in
    let c = encrypt_block rk block in
    Buffer.add_string out c;
    prev := c
  done;
  Buffer.contents out

let cbc_decrypt ~key ~iv ciphertext =
  if String.length iv <> 16 then invalid_arg "Aes.cbc_decrypt: iv must be 16 bytes";
  let n = String.length ciphertext in
  if n = 0 || n mod 16 <> 0 then Error "ciphertext length not a positive multiple of 16"
  else begin
    let rk = expand_key key in
    let out = Buffer.create n in
    let prev = ref iv in
    for i = 0 to (n / 16) - 1 do
      let c = String.sub ciphertext (16 * i) 16 in
      Buffer.add_string out (xor_block (decrypt_block rk c) !prev);
      prev := c
    done;
    let padded = Buffer.contents out in
    let pad = Char.code padded.[n - 1] in
    if pad < 1 || pad > 16 then Error "bad padding"
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code padded.[i] <> pad then ok := false
      done;
      if !ok then Ok (String.sub padded 0 (n - pad)) else Error "bad padding"
    end
  end
