module Prng = Memguard_util.Prng

type pattern =
  | Constant of int
  | Steps of (int * int) list
  | Sawtooth of { low : int; high : int; period : int }
  | Poisson of { mean : float }

(* Knuth's multiplication method; fine for the small means used here *)
let poisson_draw rng mean =
  let l = exp (-.mean) in
  let rec go k p =
    let p = p *. (1. -. Prng.float rng 1.) in
    if p <= l then k else go (k + 1) p
  in
  go 0 1.

let concurrency_at pattern rng ~tick =
  match pattern with
  | Constant n -> max 0 n
  | Steps changes ->
    List.fold_left (fun acc (from, target) -> if tick >= from then target else acc) 0 changes
    |> max 0
  | Sawtooth { low; high; period } ->
    if period <= 1 then max 0 low
    else begin
      let phase = tick mod period in
      low + ((high - low) * phase / (period - 1))
    end
  | Poisson { mean } ->
    if mean <= 0. then 0
    else min (poisson_draw rng mean) (int_of_float (4. *. mean) + 1)
