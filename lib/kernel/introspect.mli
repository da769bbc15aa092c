(** [/proc]-style text introspection of the live machine, callable at any
    tick: per-process maps with lock/COW/provenance annotations, buddy
    free-list occupancy, swap-slot usage, and page-cache residency.

    Everything here is a pure reader — rendering never mutates simulated
    state, consumes randomness or touches the observability context, so a
    run inspected mid-flight stays byte-identical to an uninspected one.

    Provenance and exposure annotations come from the kernel's
    observability context; on a disabled context ({!Memguard_obs.Obs.null})
    the structural views (maps, buddyinfo, swaps, pagecache) still render,
    just without [key:] annotations. *)

val maps : Kernel.t -> string
(** One [/proc/<pid>/maps] block per live process.  Each line is a virtual
    range with flags ([rw] + [l]ocked + [c]ow), the backing pfn range (or
    swap slot), the frame's exposure class, and — where key bytes overlap —
    a [key: origin(bytes)] annotation.  Adjacent pages with identical
    flags, contiguous frames and no annotation coalesce into one line. *)

val buddyinfo : Kernel.t -> string
(** Free-list occupancy per order plus the hot-list depth — the
    [/proc/buddyinfo] view. *)

val meminfo : Kernel.t -> string
(** Headline counts (free / allocated / cached / procs / swap) plus, on an
    enabled context, live key-copy intervals and the exposure ledger
    totals. *)

val render : Kernel.t -> string
(** All sections: meminfo, maps, buddyinfo, then the page cache as
    [(ino, path, index, pfn)] with key annotations, then swap-device usage
    (totals, then one line per in-use slot with its owning [(pid, vpn)]
    and any stashed key bytes). *)
