open Memguard_bignum

type params = { p : Bn.t; g : Bn.t }

(* pre-generated safe primes p = 2q + 1 with g = h^2 mod p, a generator
   of the order-q subgroup; fast for tests *)
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
