(* Test-side stand-ins for conveniences the library does not need: each is
   built from public library parts only. *)

open Memguard_kernel
open Memguard_apps
module Bn = Memguard_bignum.Bn
module Dh = Memguard_crypto.Dh
module Pem = Memguard_crypto.Pem
module Rsa = Memguard_crypto.Rsa
module Ssl = Memguard_ssl.Ssl

(* vanilla OpenSSH 4.3p2: re-exec per connection, stock OpenSSL, cached
   key file *)
let sshd_vanilla = { Sshd.no_reexec = false; ssl_mode = Ssl.Vanilla; nocache = false }

(* Apache 2.0.55 prefork defaults, scaled: 8 workers, MaxClients 150,
   recycle after 100 requests *)
let apache_vanilla =
  { Apache.workers = 8; max_clients = 150; max_spare_servers = 10; ssl_mode = Ssl.Vanilla;
    nocache = false; max_requests_per_child = 100 }

(* [n] short-lived scp-style connections one after another *)
let sshd_sequential srv rng ~n =
  for _ = 1 to n do
    let conn = Sshd.open_connection srv rng in
    Sshd.transfer srv conn rng ~kib:4;
    Sshd.close_connection srv conn
  done

(* [n] request/response cycles back-to-back (skipped when saturated) *)
let apache_sequential ap rng ~n =
  for _ = 1 to n do
    match Apache.open_connection ap rng with
    | Some conn ->
      Apache.serve ap conn rng ~kib:8;
      Apache.close_connection ap conn
    | None -> ()
  done

(* SIGKILL of an sshd with no open connections: the listener dies without
   the Hardened server's scrub *)
let sshd_crash k srv = Kernel.exit k (Sshd.listener srv)

(* Euclidean quotient and remainder *)
let divmod a b = (Bn.div a b, Bn.rem a b)

let equal_priv (a : Rsa.priv) (b : Rsa.priv) =
  List.for_all2 Bn.equal
    [ a.n; a.e; a.d; a.p; a.q; a.dp; a.dq; a.qinv ]
    [ b.n; b.e; b.d; b.p; b.q; b.dp; b.dq; b.qinv ]

(* consistency of every CRT component *)
let rsa_validate (k : Rsa.priv) =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) r f = Result.bind r f in
  let p1 = Bn.sub k.p Bn.one and q1 = Bn.sub k.q Bn.one in
  let* () = check (Bn.equal k.n (Bn.mul k.p k.q)) "n <> p*q" in
  let* () = check (Bn.equal k.dp (Bn.rem k.d p1)) "dp <> d mod p-1" in
  let* () = check (Bn.equal k.dq (Bn.rem k.d q1)) "dq <> d mod q-1" in
  let* () = check (Bn.is_one (Bn.rem (Bn.mul k.qinv k.q) k.p)) "qinv*q <> 1 mod p" in
  check
    (Bn.is_one (Bn.rem (Bn.mul k.e k.d) (Bn.div (Bn.mul p1 q1) (Bn.gcd p1 q1))))
    "e*d <> 1 mod lcm(p-1,q-1)"

let priv_of_pem text = Result.bind (Pem.decode ~label:"RSA PRIVATE KEY" text) Rsa.priv_of_der

let priv_of_pem_encrypted ~passphrase text =
  Result.bind (Pem.decode_encrypted ~label:"RSA PRIVATE KEY" ~passphrase text) Rsa.priv_of_der

(* p odd, 1 < g < p-1, and g in the order-q subgroup, q = (p-1)/2 *)
let dh_validate { Dh.p; g } =
  let q = Bn.shift_right (Bn.sub p Bn.one) 1 in
  if not (Bn.is_odd p) then Error "p is even"
  else if not (Bn.compare g Bn.one > 0 && Bn.compare g (Bn.sub p Bn.one) < 0) then
    Error "g out of range"
  else if not (Bn.is_one (Bn.mod_pow ~base:g ~exp:q ~modulus:p)) then
    Error "g not in the q-subgroup"
  else Ok ()
