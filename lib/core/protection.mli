(** The paper's countermeasure levels (Section 4), plus two baselines:
    the unprotected system and the Chow et al. "secure deallocation"
    comparator.  A level is a pure description; {!System} applies it. *)

type level =
  | Unprotected  (** vanilla kernel, library, and applications *)
  | Secure_dealloc
      (** Chow et al. [\[7\]]: general system allocators (user heap and
          kernel page allocator) zero memory at deallocation.  Eliminates
          unallocated-memory attacks but does nothing about duplication
          within allocated memory *)
  | Application
      (** the server binaries call [RSA_memory_align] themselves (and ssh
          runs with [-r]); unpatched third-party apps stay exposed *)
  | Library
      (** [d2i_PrivateKey] calls [RSA_memory_align]: every application is
          covered without modification *)
  | Kernel_level
      (** pages are cleared when they enter the buddy free lists
          ([free_hot_cold_page] patch); no library/application change *)
  | Integrated
      (** library + kernel + [O_NOCACHE]: the recommended solution — one
          mlocked physical key copy, clean free memory, no page-cache copy *)

val all : level list
(** In increasing order of protection. *)

val name : level -> string

val of_name : string -> level option

val describe : level -> string

(** {1 What each level configures} *)

val kernel_zero_on_free : level -> bool

val kernel_secure_dealloc : level -> bool

val ssl_mode_patched_app : level -> Memguard_ssl.Ssl.mode
(** The load mode experienced by the *patched* servers (sshd / apache). *)

val ssl_mode_plain_app : level -> Memguard_ssl.Ssl.mode
(** The load mode experienced by an unpatched third-party application —
    [Hardened] only when the library itself is patched. *)

val nocache : level -> bool
(** Whether key files are opened [O_NOCACHE] (integrated level only). *)

val sshd_options : level -> Memguard_apps.Sshd.options

val apache_options : ?workers:int -> level -> Memguard_apps.Apache.options
