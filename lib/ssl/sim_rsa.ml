open Memguard_kernel
open Memguard_bignum
module Rsa = Memguard_crypto.Rsa
module Obs = Memguard_obs.Obs

type t = {
  pub : Rsa.public;
  d : Sim_bn.t;
  p : Sim_bn.t;
  q : Sim_bn.t;
  dp : Sim_bn.t;
  dq : Sim_bn.t;
  qinv : Sim_bn.t;
  mutable flag_cache_private : bool;
  mont : (int, Sim_bn.t * Sim_bn.t) Hashtbl.t;
  mutable aligned_region : int option;
}

(* Secret key parts are stored at a fixed byte width derived from the
   public modulus alone: a minimal encoding would shrink whenever a part
   happens to have leading zero bytes — a length side channel on the
   secret value (and an interop bug against fixed-width key formats). *)
let part_width (priv : Rsa.priv) = (Bn.bit_length priv.Rsa.n + 7) / 8

let of_priv k proc (priv : Rsa.priv) =
  let width = part_width priv in
  let salloc = Sim_bn.alloc ~width k proc in
  { pub = Rsa.public_of_priv priv;
    d = salloc priv.Rsa.d;
    p = salloc priv.Rsa.p;
    q = salloc priv.Rsa.q;
    dp = salloc priv.Rsa.dp;
    dq = salloc priv.Rsa.dq;
    qinv = salloc priv.Rsa.qinv;
    flag_cache_private = true;
    mont = Hashtbl.create 4;
    aligned_region = None
  }

let recover_priv k proc t =
  let v b = Sim_bn.value k proc b in
  let p = v t.p and q = v t.q in
  { Rsa.n = t.pub.Rsa.n;
    e = t.pub.Rsa.e;
    d = v t.d;
    p;
    q;
    dp = v t.dp;
    dq = v t.dq;
    qinv = v t.qinv
  }

let populate_mont_cache k (proc : Proc.t) t =
  (* BN_MONT_CTX_set copies the modulus (p, q) into the context, in the
     heap of whichever process performs the operation *)
  if not (Hashtbl.mem t.mont proc.Proc.pid) then begin
    let width = (Bn.bit_length t.pub.Rsa.n + 7) / 8 in
    let mp =
      Sim_bn.alloc ~origin:Obs.Mont_cache ~width k proc (Sim_bn.value k proc t.p)
    in
    let mq =
      Sim_bn.alloc ~origin:Obs.Mont_cache ~width k proc (Sim_bn.value k proc t.q)
    in
    Hashtbl.replace t.mont proc.Proc.pid (mp, mq)
  end

let mont_cache_size t = Hashtbl.length t.mont

let private_op k proc t c =
  if Bn.sign c < 0 || Bn.compare c t.pub.Rsa.n >= 0 then
    invalid_arg "Sim_rsa.private_op: input out of range";
  let obs = Kernel.obs k in
  Obs.Trace.with_span ~pid:proc.Proc.pid obs "rsa.private_op" @@ fun () ->
  if t.flag_cache_private then populate_mont_cache k proc t;
  let p = Sim_bn.value k proc t.p in
  let q = Sim_bn.value k proc t.q in
  let dp = Sim_bn.value k proc t.dp in
  let dq = Sim_bn.value k proc t.dq in
  let qinv = Sim_bn.value k proc t.qinv in
  (* Price the modular exponentiations by the limb multiply-accumulates
     the Mont kernels actually performed: read the host-side counters
     around the CRT core and charge the deltas.  This is the only place
     BN arithmetic is priced — protocol-level DH/keygen math is constant
     across protection levels and would only add noise. *)
  let muls_before = Bn.Mont.word_muls () in
  let limbs_before = Bn.Ct.limb_traffic () in
  (* constant-shape Garner CRT: both halves padded to the wider prime's
     limb count, every step below the ladder branchless (Bn.Ct) *)
  let result, m1, m2, h = Bn.Ct.crt_exp ~p ~q ~dp ~dq ~qinv c in
  let muls = Bn.Mont.word_muls () - muls_before in
  let limbs = Bn.Ct.limb_traffic () - limbs_before in
  Obs.Cost.charge obs ~sub:"bignum" Mont_word_mul muls;
  Obs.Cost.charge obs ~sub:"bignum" Ct_limb_op limbs;
  (* One sample per op: the fixed-window Montgomery kernels and the
     fixed-width limb engine make both counts functions of the modulus
     limb count alone, so the constant-time leakage sentinels (zero-
     spread alerts over these series) can assert secret-independence of
     the charged cost — any variance across ops, or across same-size
     keys, fires. *)
  Obs.Timeseries.record obs "rsa.private_op.word_muls" (float_of_int muls);
  Obs.Timeseries.record obs "rsa.private_op.limb_traffic" (float_of_int limbs);
  Obs.Metrics.incr obs "rsa.private_ops";
  (* BN_CTX temporaries: reduced intermediates (not key parts) that are
     freed WITHOUT zeroing — realistic allocator churn in the heap.  The
     Bn_temp origin marks them non-sensitive for the exposure SLO. *)
  let t1 = Sim_bn.alloc ~origin:Obs.Bn_temp k proc m1 in
  let t2 = Sim_bn.alloc ~origin:Obs.Bn_temp k proc m2 in
  let t3 = Sim_bn.alloc ~origin:Obs.Bn_temp k proc (Bn.abs h) in
  Sim_bn.free_insecure k proc t3;
  Sim_bn.free_insecure k proc t2;
  Sim_bn.free_insecure k proc t1;
  result

let all_parts t = [ t.d; t.p; t.q; t.dp; t.dq; t.qinv ]

let memory_align k proc t =
  if t.aligned_region = None then begin
    Obs.Trace.causal ~pid:proc.Proc.pid (Kernel.obs k) "rsa.memory_align" @@ fun () ->
    let total = List.fold_left (fun acc (b : Sim_bn.t) -> acc + b.Sim_bn.size) 0 (all_parts t) in
    (* posix_memalign: whole pages, page-aligned *)
    let region = Kernel.memalign k proc ~bytes:total in
    let region_size = Option.get (Kernel.alloc_size k proc region) in
    (* mlock: the key must never reach swap *)
    Kernel.mlock k proc ~addr:region ~len:region_size;
    let cursor = ref region in
    List.iter
      (fun (b : Sim_bn.t) ->
        let payload = Kernel.read_mem k proc ~addr:b.Sim_bn.data ~len:b.Sim_bn.size in
        Kernel.write_mem k proc ~addr:!cursor payload;
        Kernel.note_copy k proc ~origin:b.Sim_bn.origin ~addr:!cursor ~len:b.Sim_bn.size;
        (* zero and free the original location *)
        Kernel.zero_mem k proc ~addr:b.Sim_bn.data ~len:b.Sim_bn.size;
        Kernel.note_zeroed k proc ~origin:b.Sim_bn.origin ~addr:b.Sim_bn.data
          ~len:b.Sim_bn.size;
        Kernel.free k proc b.Sim_bn.data;
        b.Sim_bn.data <- !cursor;
        b.Sim_bn.static_data <- true;
        cursor := !cursor + b.Sim_bn.size)
      (all_parts t);
    (* drop the caller's Montgomery cache and prevent repopulation *)
    (match Hashtbl.find_opt t.mont proc.Proc.pid with
     | Some (mp, mq) ->
       Sim_bn.clear_free k proc mp;
       Sim_bn.clear_free k proc mq;
       Hashtbl.remove t.mont proc.Proc.pid
     | None -> ());
    t.flag_cache_private <- false;
    t.aligned_region <- Some region
  end

let drop_cache ~secure k (proc : Proc.t) t =
  let drop m = if secure then Sim_bn.clear_free k proc m else Sim_bn.free_insecure k proc m in
  match Hashtbl.find_opt t.mont proc.Proc.pid with
  | Some (mp, mq) ->
    drop mp;
    drop mq;
    Hashtbl.remove t.mont proc.Proc.pid
  | None -> ()

let clear_free k proc t =
  drop_cache ~secure:true k proc t;
  (match t.aligned_region with
   | Some region ->
     let size = Option.get (Kernel.alloc_size k proc region) in
     Kernel.zero_mem k proc ~addr:region ~len:size;
     Kernel.free k proc region;
     t.aligned_region <- None
   | None -> List.iter (Sim_bn.clear_free k proc) (all_parts t))

let free_insecure k proc t =
  drop_cache ~secure:false k proc t;
  match t.aligned_region with
  | Some region ->
    Kernel.free k proc region;
    t.aligned_region <- None
  | None -> List.iter (Sim_bn.free_insecure k proc) (all_parts t)
