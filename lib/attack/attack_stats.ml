type trial = { copies : int }

type summary = {
  trials : int;
  mean_copies : float;
  success_rate : float;
  min_copies : int;
  max_copies : int;
  stddev_copies : float;
}

let summarize trials =
  let n = List.length trials in
  if n = 0 then
    { trials = 0; mean_copies = 0.; success_rate = 0.; min_copies = 0; max_copies = 0;
      stddev_copies = 0. }
  else begin
    let total = List.fold_left (fun acc t -> acc + t.copies) 0 trials in
    let successes = List.length (List.filter (fun t -> t.copies > 0) trials) in
    let mean = float_of_int total /. float_of_int n in
    let var =
      List.fold_left
        (fun acc t ->
          let d = float_of_int t.copies -. mean in
          acc +. (d *. d))
        0. trials
      /. float_of_int n
    in
    { trials = n;
      mean_copies = mean;
      success_rate = float_of_int successes /. float_of_int n;
      min_copies = List.fold_left (fun acc t -> min acc t.copies) max_int trials;
      max_copies = List.fold_left (fun acc t -> max acc t.copies) 0 trials;
      stddev_copies = sqrt var
    }
  end

let run_trials ~n f = summarize (List.init n f)
