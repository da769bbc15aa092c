(* Test-side stand-ins for conveniences the library does not need: each is
   built from public library parts only. *)

open Memguard_kernel
open Memguard_apps
module Bn = Memguard_bignum.Bn
module Dh = Memguard_crypto.Dh
module Multi_search = Memguard_util.Multi_search
module Obs = Memguard_obs.Obs
module Pem = Memguard_crypto.Pem
module Phys_mem = Memguard_vmm.Phys_mem
module Report = Memguard_scan.Report
module Rsa = Memguard_crypto.Rsa
module Scanner = Memguard_scan.Scanner
module Ssl = Memguard_ssl.Ssl

(* The kernel's reverse map as a fresh table: [(owner_table k).(pfn)] is
   the pids mapping [pfn]. *)
let owner_table k =
  let tbl = Array.make (Phys_mem.num_pages (Kernel.mem k)) [] in
  Kernel.fill_owner_table k tbl;
  tbl

(* Reference for [Kernel.fill_owner_table], one frame at a time: the live
   processes, ascending by pid, whose page table has a present PTE for
   [pfn]. *)
let frame_owners k ~pfn =
  List.filter_map
    (fun (p : Proc.t) ->
      let maps =
        List.exists
          (fun vpn ->
            match Proc.find_pte p ~vpn with
            | Some (Proc.Present pr) -> pr.Proc.pfn = pfn
            | _ -> false)
          (Proc.mapped_vpns p)
      in
      if maps then Some p.Proc.pid else None)
    (Kernel.live_procs k)

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

(* ---- report rendering, snapshot diff and the partial-match scanner ---- *)

let pp_snapshot fmt (s : Report.snapshot) =
  Format.fprintf fmt "t=%d: %d copies (%d allocated, %d unallocated)" s.time s.total s.allocated
    s.unallocated

let pp_workload fmt (Workload.Steps changes) =
  Format.fprintf fmt "steps(%s)"
    (String.concat ";" (List.map (fun (t, c) -> Printf.sprintf "%d->%d" t c) changes))

type delta = {
  appeared : Scanner.hit list;  (* present now, absent before *)
  vanished : Scanner.hit list;  (* present before, absent now *)
  migrated : Scanner.hit list;
      (* same physical location, allocation state changed: the paper's
         "copies are not erased before entering unallocated memory" *)
}

(* Compare two snapshots by (label, address), the way Section 3.2 reads its
   figures: which copies appeared with the connections, which sank into
   free memory when they closed. *)
let diff ~(before : Report.snapshot) ~(after : Report.snapshot) =
  let key (h : Scanner.hit) = (h.label, h.addr) in
  let index (snap : Report.snapshot) =
    let tbl = Hashtbl.create 64 in
    List.iter (fun h -> Hashtbl.replace tbl (key h) h) snap.hits;
    tbl
  in
  let b = index before and a = index after in
  let appeared = List.filter (fun h -> not (Hashtbl.mem b (key h))) after.hits in
  let vanished = List.filter (fun h -> not (Hashtbl.mem a (key h))) before.hits in
  let migrated =
    List.filter
      (fun (h : Scanner.hit) ->
        match Hashtbl.find_opt b (key h) with
        | Some (old : Scanner.hit) ->
          Scanner.is_allocated old.location <> Scanner.is_allocated h.location
        | None -> false)
      after.hits
  in
  { appeared; vanished; migrated }

type detailed_hit = {
  base : Scanner.hit;
  matched_bytes : int;  (* length of the matching run *)
  full : bool;
}

(* The paper's module anchors on the first 32-bit word of each pattern and
   extends as far as memory keeps matching, reporting a partial match from
   [MIN = 5] words (20 bytes) up: fragments of a key are still worth
   reporting because big-number arithmetic can reconstruct the rest.  Like
   [Scanner.scan], but also reports partial matches of at least [min_bytes];
   a full match is never double reported as its own prefix. *)
let scan_detailed k ~patterns ?(min_bytes = 20) () =
  let mem = Kernel.mem k in
  let raw = Phys_mem.raw mem in
  let size = Bytes.length raw in
  let ps = Phys_mem.page_size mem in
  let labels = Array.of_list (List.map fst patterns) in
  let needles = Array.of_list (List.map snd patterns) in
  Array.iter
    (fun n ->
      if String.length n < 4 then
        invalid_arg "Helpers.scan_detailed: pattern shorter than the 4-byte anchor")
    needles;
  (* one pass over the 4-byte anchors of every pattern, then extend each
     anchor hit against its own full needle *)
  let ms = Multi_search.compile (Array.map (fun n -> String.sub n 0 4) needles) in
  Obs.Cost.charge (Kernel.obs k) ~sub:"scan" Scan_byte size;
  let owners = Scanner.owners k in
  let acc = ref [] in
  Multi_search.iter ms raw ~f:(fun ~pos:addr ~pat ->
      let needle = needles.(pat) in
      let n = String.length needle in
      let rec extend i =
        if i >= n || addr + i >= size then i
        else if Bytes.get raw (addr + i) = needle.[i] then extend (i + 1)
        else i
      in
      let matched = extend 4 in
      let full = matched = n in
      if full || matched >= min_bytes then begin
        let pfn = addr / ps in
        acc :=
          { base = { label = labels.(pat); addr; pfn; location = Scanner.locate owners ~pfn };
            matched_bytes = matched;
            full
          }
          :: !acc
      end);
  List.sort (fun a b -> compare (a.base.addr, a.base.label) (b.base.addr, b.base.label))
    (List.rev !acc)

(* Exports read as values: [json text] parses or fails the test, [field k v]
   is member [k] of object [v] or fails, [items v] the entries of array [v]
   or fails. *)
let json text =
  match Obs.Json.parse text with Ok v -> v | Error e -> Alcotest.failf "malformed JSON: %s" e

let field k v =
  match Obs.Json.mem k v with Some x -> x | None -> Alcotest.failf "no member %S" k

let items = function Obs.Json.Arr l -> l | _ -> Alcotest.fail "not a JSON array"
