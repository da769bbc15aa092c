open Memguard_kernel

type t = { device : Buffer.t; mutable directories : int }

let create () = { device = Buffer.create 4096; directories = 0 }

let mkdirs t k ~n =
  (try
     for _ = 1 to n do
       Buffer.add_string t.device (Kernel.ext2_mkdir_leak k);
       t.directories <- t.directories + 1
     done
   with Kernel.Out_of_memory ->
     (* the stick (or RAM for its buffers) is full: the attacker keeps
        whatever was already flushed *)
     ())

let device_bytes t = Buffer.to_bytes t.device

let bytes_disclosed t = Buffer.length t.device

let count_copies t ~patterns = Offline_search.count_copies ~patterns (device_bytes t)

let found_any t ~patterns = count_copies t ~patterns > 0
