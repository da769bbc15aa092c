(** Arbitrary-precision integers, written from scratch for this project
    (the sealed environment has no zarith).

    Values are immutable.  Magnitudes are little-endian arrays of 24-bit
    limbs, so every intermediate product fits comfortably in OCaml's native
    63-bit [int].  The sizes involved in the reproduction (512–2048-bit RSA)
    are small enough that schoolbook multiplication and Knuth's algorithm D
    are the right tools. *)

type t

val zero : t
val one : t
val two : t

(** {1 Construction and conversion} *)

val of_int : int -> t
val to_int : t -> int
(** Raises [Failure] if the value does not fit in an OCaml [int]. *)

val of_dec : string -> t
(** Parse a decimal string, with optional leading ['-']. *)

val to_dec : t -> string

val of_hex : string -> t
(** Parse a hex string (no [0x] prefix), optional leading ['-']. *)

val to_hex : t -> string

val of_bytes_be : string -> t
(** Big-endian unsigned magnitude; [""] is zero. *)

val to_bytes_be : t -> string
(** Minimal big-endian magnitude of [abs t]; [zero] encodes as [""]. *)

val to_bytes_be_pad : t -> int -> string
(** [to_bytes_be_pad t n] left-pads with zero bytes to exactly [n] bytes.
    Raises [Invalid_argument] if the magnitude needs more than [n] bytes. *)

(** {1 Queries} *)

val sign : t -> int
(** -1, 0 or 1. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val bit_length : t -> int
(** Bits in the magnitude; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool
(** Bit [i] of the magnitude (bit 0 = least significant). *)

val num_limbs : t -> int
(** Number of 24-bit limbs in the magnitude (0 for zero). *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val sqr : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < |b|] (Euclidean
    remainder: [r] is always non-negative).  Raises [Division_by_zero]. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val add_int : t -> int -> t
val mul_int : t -> int -> t
val rem_int : t -> int -> int
(** Remainder by a positive [int] modulus (non-negative result). *)

(** {1 Modular arithmetic} *)

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** [mod_pow ~base ~exp ~modulus] with [exp >= 0], [modulus > 0].
    Odd multi-limb moduli ride Montgomery exponentiation (what OpenSSL's
    [BN_MONT_CTX] buys); even or single-limb moduli — outside
    Montgomery's gcd(m, R) = 1 domain — take a constant-shape
    square-and-always-multiply ladder whose operation sequence depends
    only on [bit_length exp], never on its bits.  No secret in the
    simulated stack reaches the fallback (RSA/DSA moduli are odd
    primes); the even-modulus tests pin both the routing and the
    fallback's correctness. *)

val mod_pow_fixed_base : base:t -> exp:t -> modulus:t -> t
(** Same value as [mod_pow], for a base that recurs across calls (the
    Diffie–Hellman generator).  The first call for a [(modulus, base)]
    pair builds a fixed-base comb — [base^(j * 16^w)] in the Montgomery
    domain for every 4-bit window [w] of a modulus-width exponent —
    cached per domain; every call then costs one masked table gather per
    window and one Montgomery multiply per window after the first, with
    no squarings.  The schedule, [Mont.word_muls] and [Ct.limb_traffic]
    depend only on the modulus width, never on the exponent's bits.
    Exponents wider than the modulus and moduli outside Montgomery's
    domain take [mod_pow]. *)

(** Montgomery arithmetic (REDC), exposed for callers that reuse a context
    across many exponentiations — the real-world behaviour behind the
    [RSA_FLAG_CACHE_PRIVATE] copies the paper tracks. *)
module Mont : sig
  type ctx

  val create : t -> ctx option
  (** [create m] precomputes a context for an odd modulus [m > 1];
      [None] otherwise. *)

  val create_width : ?width:int -> t -> ctx option
  (** [create_width ~width m] works at [max width (num_limbs m)] limbs,
      so moduli of different sizes can share one fixed operand width.
      [None] for the moduli [create] rejects and for working widths above
      8191 limbs: the product-scanning kernels sum each output column —
      up to 2k limb products of at most (2^24-1)^2 plus a carry — in one
      native int, and the guard keeps 2k * 2^48 within 2^62. *)

  val modulus : ctx -> t

  val to_mont : ctx -> t -> t
  (** Map [x] (with [0 <= x < m]) into the Montgomery domain. *)

  val from_mont : ctx -> t -> t

  val mul : ctx -> t -> t -> t
  (** Montgomery product of two domain values: [a * b * R^-1 mod m] with
      [R = 2^(24k)].  The kernels scan by product (column-wise, one
      carry per output column) with the reduction interleaved, over
      fixed-width limb vectors and branch-free. *)

  val pow : ctx -> base:t -> exp:t -> t
  (** [pow ctx ~base ~exp] = [base^exp mod m] for plain (non-domain)
      [base] with [0 <= base < m], [exp >= 0]. *)

  val word_muls : unit -> int
  (** Monotone count of limb multiply-accumulates performed by the
      Montgomery kernels since program start.  Host-side bookkeeping (no
      simulated state involved): cost-model callers read it before and
      after an operation and charge the delta.  Domain-local, like the
      context caches. *)

  val inject_test_leak : bool -> unit
  (** Test-only hook: when armed, [pow] and [mod_pow_fixed_base] add the
      exponent's popcount to both [word_muls] and [Ct.limb_traffic] — a
      deliberate secret-dependent cost that the ct-leakage sentinels must
      catch.
      Never enable outside tests/CI smoke runs. *)
end

(** Constant-time fixed-width limb operations — the branchless engine
    below [Mont.pow].  Every function here performs an instruction and
    memory-access sequence that depends only on the width argument
    (resp. the modulus size), never on operand {e values}: no
    data-dependent branches, no data-dependent indices.  Limb traffic is
    counted so the telemetry sentinel can prove it. *)
module Ct : sig
  val limb_traffic : unit -> int
  (** Monotone count of limbs read/written by the constant-time
      primitives since program start (domain-local, host-side
      bookkeeping like [Mont.word_muls]). *)

  val select : width:int -> bit:int -> t -> t -> t
  (** [select ~width ~bit a b] is [a] when [bit land 1 = 1] else [b],
      via a masked sweep over [width] limbs.  Operands must be
      non-negative and fit in [width] limbs. *)

  val add : width:int -> t -> t -> t * int
  (** Fixed-width sum and carry-out bit. *)

  val sub : width:int -> t -> t -> t * int
  (** Fixed-width difference modulo [base^width] and borrow-out bit. *)

  val ge : width:int -> t -> t -> bool
  (** [a >= b] via a full-width borrow chain (no early exit). *)

  val mul : width:int -> t -> t -> t
  (** Fixed schoolbook product over [width * width] limb pairs, no
      zero-limb skipping. *)

  val mod_add : m:t -> t -> t -> t
  (** [(a + b) mod m] for [0 <= a, b < m] via add + always-subtract +
      masked select.  Raises [Invalid_argument] out of range. *)

  val mod_sub : m:t -> t -> t -> t
  (** [(a - b) mod m] for [0 <= a, b < m] via sub + always-add +
      masked select.  Raises [Invalid_argument] out of range. *)

  val crt_exp : p:t -> q:t -> dp:t -> dq:t -> qinv:t -> t -> t * t * t * t
  (** [crt_exp ~p ~q ~dp ~dq ~qinv c] is [(m, m1, m2, h)] — Garner's
      CRT recombination [m = m2 + (qinv*(m1 - m2) mod p) * q] with
      [m1 = c^dp mod p] and [m2 = c^dq mod q], computed in constant
      shape: both halves are padded to [max (num_limbs p) (num_limbs q)]
      limbs, the recombination runs at twice that width, and every step
      below the exponentiation uses the branchless primitives above.
      Montgomery contexts for [(p, q)] are cached per domain.  Falls
      back to the variable-time formula only for degenerate inputs the
      Montgomery engine rejects (even/non-positive moduli, [c >= p*q],
      negative operands). *)
end

val gcd : t -> t -> t

val egcd : t -> t -> t * t * t
(** [egcd a b = (g, x, y)] with [g = gcd a b = a*x + b*y]. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)], or [None] if
    [gcd a m <> 1].  Result in [\[0, m)]. *)

(** {1 Randomness and primality} *)

val random_bits : Memguard_util.Prng.t -> int -> t
(** Uniform in [\[0, 2^bits)]. *)

val random_below : Memguard_util.Prng.t -> t -> t
(** Uniform in [\[0, bound)]; requires [bound > 0]. *)

val is_probable_prime : ?rounds:int -> Memguard_util.Prng.t -> t -> bool
(** Trial division by small primes then Miller–Rabin ([rounds] defaults to 20). *)

val gen_prime : ?rounds:int -> Memguard_util.Prng.t -> bits:int -> t
(** Random probable prime with exactly [bits] bits (top two bits set so that
    products of two such primes have full size).  Requires [bits >= 8]. *)

val pp : Format.formatter -> t -> unit
