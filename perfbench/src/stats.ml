(* Order statistics for host-time samples. *)

(* A growable float buffer: passes append thousands of latency samples, and a
   list would allocate a cell per sample inside the timed region. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len
let of_list l = let s = samples () in List.iter (add s) l; s

let sorted s =
  let a = to_array s in
  Array.sort Float.compare a;
  a

let sum s =
  let t = ref 0. in
  for i = 0 to s.len - 1 do t := !t +. s.data.(i) done;
  !t

(* Midpoint median; 0 for no samples (callers print the sample count). *)
let median s =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank of the [p]th percentile among [n] samples; the epsilon keeps
   binary rounding (99.9% of 10000 = 9990.000000000002) from adding a rank. *)
let rank n p = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))

let rank_value a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank n p - 1)))

(* Samples strictly above the [p]th percentile's rank. *)
let beyond n p = n - rank n p

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The tail percentile to report: the highest rung of [ladder], at most
   [cap], that still has at least ten samples beyond it.  Falls back to the
   median when even that has fewer than ten.  Returns (percentile, value,
   sample count); (50, 0, 0) when there are no samples. *)
let tail ?(cap = 99.9) s =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then (50., 0., 0)
  else
    let p =
      match List.find_opt (fun p -> p <= cap && beyond n p >= 10) ladder with
      | Some p -> p
      | None -> 50.
    in
    (p, rank_value a p, n)

let pct_label p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p
