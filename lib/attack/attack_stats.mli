(** Multi-trial attack statistics: the paper reports, per parameter point,
    the mean number of key copies recovered and the fraction of trials in
    which at least one copy was recovered (the "success rate"). *)

type trial = { copies : int }

type summary = {
  trials : int;
  mean_copies : float;
  success_rate : float;  (** fraction of trials with [copies > 0] *)
  min_copies : int;
  max_copies : int;
  stddev_copies : float;
}

val run_trials : n:int -> (int -> trial) -> summary
(** [run_trials ~n f] evaluates [f 0 .. f (n-1)] and summarizes. *)
