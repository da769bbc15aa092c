(** Finite-field Diffie–Hellman, as used by the SSHv2 key exchange the
    simulated OpenSSH performs (the host RSA key *signs* the exchange; the
    session secret comes from DH). *)

open Memguard_bignum

type params = { p : Bn.t; g : Bn.t }

val generate_params : Memguard_util.Prng.t -> bits:int -> params
(** A safe prime [p = 2q+1] with generator of the order-q subgroup. *)

val validate_params : params -> (unit, string) result

val group_small : params
(** A fixed 128-bit safe-prime group (pre-generated): fast handshakes for
    simulations and tests.  Far too small for real use, obviously. *)

val group_medium : params
(** A fixed 256-bit safe-prime group. *)

type keypair = { secret : Bn.t; public : Bn.t }

val keypair_of_secret : params -> Bn.t -> keypair
(** [secret] and its public value [g^secret mod p], computed by
    [Bn.mod_pow_fixed_base]: the generator is fixed per group, so a
    per-domain comb table for [(p, g)] turns the exponentiation into one
    masked gather per 4-bit window plus one Montgomery multiply per
    window, with no squarings — the same value as [Bn.mod_pow], at a
    cost that depends on the width of [p] alone (for [secret < p]).  The
    first keypair of a group on a domain also pays for the table. *)

val generate_keypair : Memguard_util.Prng.t -> params -> keypair
(** [keypair_of_secret] of a secret drawn uniformly from [\[2, p-2\]]. *)

val shared_secret : params -> secret:Bn.t -> peer_public:Bn.t -> Bn.t
(** [peer_public^secret mod p], by the windowed [Bn.mod_pow] (the base
    changes with every peer, so no table would be reused).  Raises [Invalid_argument] on a peer value
    outside [\[2, p-2\]] (small-subgroup hygiene). *)
