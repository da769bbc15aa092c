open Memguard_bignum

type public = { n : Bn.t; e : Bn.t }

type priv = {
  n : Bn.t;
  e : Bn.t;
  d : Bn.t;
  p : Bn.t;
  q : Bn.t;
  dp : Bn.t;
  dq : Bn.t;
  qinv : Bn.t;
}

let pem_label = "RSA PRIVATE KEY"

let public_of_priv (k : priv) : public = { n = k.n; e = k.e }

let generate rng ~bits =
  if bits < 32 || bits mod 2 <> 0 then invalid_arg "Rsa.generate: bits must be even and >= 32";
  let e_bn = Bn.of_int 65537 in
  let half = bits / 2 in
  let rec attempt () =
    let p = Bn.gen_prime rng ~bits:half in
    let q = Bn.gen_prime rng ~bits:half in
    if Bn.equal p q then attempt ()
    else begin
      let n = Bn.mul p q in
      if Bn.bit_length n <> bits then attempt ()
      else begin
        let p1 = Bn.sub p Bn.one and q1 = Bn.sub q Bn.one in
        let phi = Bn.mul p1 q1 in
        match Bn.mod_inverse e_bn phi with
        | None -> attempt ()
        | Some d ->
          let dp = Bn.rem d p1 and dq = Bn.rem d q1 in
          (* q < p not guaranteed; qinv = q^-1 mod p must exist since p,q coprime *)
          let qinv =
            match Bn.mod_inverse q p with
            | Some v -> v
            | None -> assert false
          in
          { n; e = e_bn; d; p; q; dp; dq; qinv }
      end
    end
  in
  attempt ()

let encrypt_raw (pub : public) m =
  if Bn.sign m < 0 || Bn.compare m pub.n >= 0 then invalid_arg "Rsa.encrypt_raw: m out of range";
  Bn.mod_pow ~base:m ~exp:pub.e ~modulus:pub.n

let decrypt_crt k c =
  (* m1 = c^dp mod p; m2 = c^dq mod q; h = qinv (m1 - m2) mod p; m = m2 + h q
     — computed in constant shape by the branchless fixed-width engine *)
  let m, _m1, _m2, _h = Bn.Ct.crt_exp ~p:k.p ~q:k.q ~dp:k.dp ~dq:k.dq ~qinv:k.qinv c in
  m

let decrypt_raw ?(crt = true) k c =
  if Bn.sign c < 0 || Bn.compare c k.n >= 0 then invalid_arg "Rsa.decrypt_raw: c out of range";
  if crt then decrypt_crt k c else Bn.mod_pow ~base:c ~exp:k.d ~modulus:k.n

let sign_raw ?crt k m = decrypt_raw ?crt k m

let verify_raw pub ~msg ~signature = Bn.equal msg (encrypt_raw pub signature)

let der_of_priv k =
  Asn1.encode
    (Asn1.Sequence
       [ Asn1.Integer Bn.zero (* version *);
         Asn1.Integer k.n;
         Asn1.Integer k.e;
         Asn1.Integer k.d;
         Asn1.Integer k.p;
         Asn1.Integer k.q;
         Asn1.Integer k.dp;
         Asn1.Integer k.dq;
         Asn1.Integer k.qinv
       ])

let priv_of_der der =
  match Asn1.decode der with
  | Error e -> Error ("bad DER: " ^ e)
  | Ok (Asn1.Sequence
          [ Asn1.Integer version;
            Asn1.Integer n;
            Asn1.Integer e;
            Asn1.Integer d;
            Asn1.Integer p;
            Asn1.Integer q;
            Asn1.Integer dp;
            Asn1.Integer dq;
            Asn1.Integer qinv
          ]) ->
    if not (Bn.is_zero version) then Error "unsupported RSAPrivateKey version"
    else Ok { n; e; d; p; q; dp; dq; qinv }
  | Ok _ -> Error "not an RSAPrivateKey structure"

let pem_of_priv k = Pem.encode ~label:pem_label (der_of_priv k)

let pem_of_priv_encrypted ~passphrase ~iv k =
  Pem.encode_encrypted ~label:pem_label ~passphrase ~iv (der_of_priv k)

let pattern_d k = Bn.to_bytes_be k.d
let pattern_p k = Bn.to_bytes_be k.p
let pattern_q k = Bn.to_bytes_be k.q
