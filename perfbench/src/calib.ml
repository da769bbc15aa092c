(* A fixed reference computation that shares no code with memguard: limb
   multiply-accumulate, byte copies and scans over a buffer the size of a
   simulated machine's RAM, and short-lived allocation, roughly the mix the
   simulator spends its time on.  The host this benchmark runs on is shared
   and its speed drifts by tens of percent from minute to minute; timing
   this kernel around the passes measures how fast the host is running. *)

let limbs = 16
let mask = (1 lsl 30) - 1
let a = Array.init limbs (fun i -> (i * 0x2545F491) land mask)
let b = Array.init limbs (fun i -> (i * 0x1B873593 + 7) land mask)
let prod = Array.make (2 * limbs) 0
let ram = 1 lsl 24

(* outside the OCaml heap, so the benchmark's heap figures are memguard's *)
let buffer () = Bigarray.Array1.create Bigarray.char Bigarray.c_layout ram
let src = buffer ()
let dst = buffer ()
let () = for i = 0 to ram - 1 do Bigarray.Array1.unsafe_set src i (Char.unsafe_chr ((i * 131) land 0xFF)) done

(* schoolbook product of two 16-limb numbers with 30-bit limbs *)
let mul () =
  Array.fill prod 0 (2 * limbs) 0;
  for i = 0 to limbs - 1 do
    let carry = ref 0 in
    let ai = Array.unsafe_get a i in
    for j = 0 to limbs - 1 do
      let t = Array.unsafe_get prod (i + j) + (ai * Array.unsafe_get b j) + !carry in
      Array.unsafe_set prod (i + j) (t land mask);
      carry := t lsr 30
    done;
    prod.(i + limbs) <- !carry
  done;
  (* feed the product back so the work cannot be hoisted *)
  a.(0) <- prod.(limbs) lxor 1

let run () =
  for _ = 1 to 10_000 do mul () done;
  Bigarray.Array1.blit src dst;
  let hits = ref 0 in
  let i = ref 0 in
  while !i < ram do
    if Bigarray.Array1.unsafe_get dst !i = '\x42' then incr hits;
    i := !i + 1
  done;
  let l = ref [] in
  for i = 1 to 400_000 do
    l := (i, !hits) :: !l;
    if i land 4095 = 0 then l := []
  done;
  !hits + prod.(0) + List.length !l

(* Host seconds of one run of the kernel. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run ()));
  Unix.gettimeofday () -. t0

(* The kernel's time at the reference host speed.  Multiplying a measured
   time by [reference /. kernel time] expresses it at that speed. *)
let reference = 0.04
