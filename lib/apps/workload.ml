type pattern = Steps of (int * int) list

let concurrency_at (Steps changes) (_ : Memguard_util.Prng.t) ~tick =
  List.fold_left (fun acc (from, target) -> if tick >= from then target else acc) 0 changes
  |> max 0
