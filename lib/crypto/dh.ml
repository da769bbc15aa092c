open Memguard_bignum
module Prng = Memguard_util.Prng

type params = { p : Bn.t; g : Bn.t }

let generate_params rng ~bits =
  if bits < 16 then invalid_arg "Dh.generate_params: too small";
  (* safe prime: p = 2q + 1 with q prime *)
  let rec find () =
    let q = Bn.gen_prime rng ~bits:(bits - 1) in
    let p = Bn.add (Bn.shift_left q 1) Bn.one in
    if Bn.is_probable_prime rng p then p else find ()
  in
  let p = find () in
  let rec find_g () =
    let h = Bn.add (Bn.random_below rng (Bn.sub p (Bn.of_int 3))) Bn.two in
    (* g = h^2 generates the order-q subgroup (quadratic residues) *)
    let g = Bn.mod_pow ~base:h ~exp:Bn.two ~modulus:p in
    if Bn.is_one g then find_g () else g
  in
  { p; g = find_g () }

let validate_params { p; g } =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let q = Bn.shift_right (Bn.sub p Bn.one) 1 in
  let* () = check (Bn.is_odd p) "p is even" in
  let* () = check (Bn.compare g Bn.one > 0 && Bn.compare g (Bn.sub p Bn.one) < 0) "g out of range" in
  let* () = check (Bn.is_one (Bn.mod_pow ~base:g ~exp:q ~modulus:p)) "g not in the q-subgroup" in
  Ok ()

(* pre-generated safe-prime groups (see generate_params); fast for tests *)
let group_small =
  { p = Bn.of_hex "c07fb2aa9db9c27fedbb1822dff7c873";
    g = Bn.of_hex "1246792399b379a8b459bd68aacc1e76"
  }

let group_medium =
  { p = Bn.of_hex "c0e21bd59f0cddf6ee623b6a13c873f170419dd0e7e35ed1a2e50eab169b3ffb";
    g = Bn.of_hex "af33b00c1ce3c4c1c0f3d0e3414e5f90265b7c20529899cd55f8fcfe40c26cba"
  }

type keypair = { secret : Bn.t; public : Bn.t }

let keypair_of_secret params secret =
  { secret; public = Bn.mod_pow_fixed_base ~base:params.g ~exp:secret ~modulus:params.p }

let generate_keypair rng params =
  keypair_of_secret params (Bn.add (Bn.random_below rng (Bn.sub params.p (Bn.of_int 3))) Bn.two)

let shared_secret params ~secret ~peer_public =
  if Bn.compare peer_public Bn.two < 0
     || Bn.compare peer_public (Bn.sub params.p Bn.two) > 0
  then invalid_arg "Dh.shared_secret: peer public out of range";
  Bn.mod_pow ~base:peer_public ~exp:secret ~modulus:params.p
