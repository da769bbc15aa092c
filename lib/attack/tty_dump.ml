open Memguard_kernel
open Memguard_vmm
module Prng = Memguard_util.Prng

type dump = { start : int; data : bytes }

let run rng k ?(mean_fraction = 0.5) ?(jitter = 0.1) () =
  if
    mean_fraction <= 0.
    || mean_fraction -. jitter < 0.
    || mean_fraction +. jitter > 1.
    || jitter < 0.
  then invalid_arg "Tty_dump.run: bad fraction";
  let size = Phys_mem.size_bytes (Kernel.mem k) in
  let lo = mean_fraction -. jitter and hi = mean_fraction +. jitter in
  let fraction = lo +. Prng.float rng (hi -. lo) in
  let len = max 1 (int_of_float (fraction *. float_of_int size)) in
  let start = Prng.int rng size in
  let raw = Phys_mem.raw (Kernel.mem k) in
  let data = Bytes.create len in
  let head = min len (size - start) in
  Bytes.blit raw start data 0 head;
  (* the window wraps around the end of physical memory *)
  Bytes.blit raw 0 data head (len - head);
  { start; data }

let count_copies d ~patterns = Offline_search.count_copies ~patterns d.data

let found_any d ~patterns = count_copies d ~patterns > 0
