open Memguard_kernel

type t = { pid : int; data : bytes }

let dump k (p : Proc.t) =
  let ps = Kernel.page_size k in
  let buf = Buffer.create 4096 in
  List.iter
    (fun vpn -> Buffer.add_string buf (Kernel.read_mem k p ~addr:(vpn * ps) ~len:ps))
    (Proc.mapped_vpns p);
  { pid = p.Proc.pid; data = Buffer.to_bytes buf }

let count_copies t ~patterns = Memguard_scan.Scanner.count_copies ~patterns t.data
