module Ssl = Memguard_ssl.Ssl
module Sshd = Memguard_apps.Sshd
module Apache = Memguard_apps.Apache

type level =
  | Unprotected
  | Secure_dealloc
  | Application
  | Library
  | Kernel_level
  | Integrated

let all = [ Unprotected; Secure_dealloc; Application; Library; Kernel_level; Integrated ]

let name level =
  match level with
  | Unprotected -> "unprotected"
  | Secure_dealloc -> "secure-dealloc"
  | Application -> "application"
  | Library -> "library"
  | Kernel_level -> "kernel"
  | Integrated -> "integrated"

let of_name s = List.find_opt (fun l -> name l = s) all

let describe level =
  match level with
  | Unprotected -> "vanilla kernel, OpenSSL and applications"
  | Secure_dealloc -> "Chow et al. baseline: allocator zeroes memory at free()"
  | Application -> "servers call RSA_memory_align themselves (sshd -r)"
  | Library -> "d2i_PrivateKey calls RSA_memory_align for every application"
  | Kernel_level -> "pages cleared when entering the buddy free lists"
  | Integrated -> "library + kernel + O_NOCACHE (recommended)"

let kernel_zero_on_free level =
  match level with
  (* Chow et al. erase at deallocation in the general system allocators,
     kernel page allocator included — which is exactly why the paper
     credits secure deallocation with eliminating unallocated-memory
     attacks (and faults it for doing nothing about allocated memory) *)
  | Secure_dealloc | Kernel_level | Integrated -> true
  | Unprotected | Application | Library -> false

let kernel_secure_dealloc level =
  match level with
  | Secure_dealloc -> true
  | Unprotected | Application | Library | Kernel_level | Integrated -> false

let ssl_mode_patched_app level =
  match level with
  | Application | Library | Integrated -> Ssl.Hardened
  | Unprotected | Secure_dealloc | Kernel_level -> Ssl.Vanilla

let ssl_mode_plain_app level =
  match level with
  | Library | Integrated -> Ssl.Hardened
  | Unprotected | Secure_dealloc | Application | Kernel_level -> Ssl.Vanilla

let nocache level =
  match level with
  | Integrated -> true
  | Unprotected | Secure_dealloc | Application | Library | Kernel_level -> false

let sshd_options level =
  let mode = ssl_mode_patched_app level in
  { Sshd.no_reexec = (mode = Ssl.Hardened); ssl_mode = mode; nocache = nocache level }

let apache_options ?(workers = 8) level =
  { Apache.workers;
    max_clients = 150;
    max_spare_servers = 10;
    ssl_mode = ssl_mode_patched_app level;
    nocache = nocache level;
    max_requests_per_child = 100
  }
