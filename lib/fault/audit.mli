(** The always-on invariant auditor behind the chaos campaigns.

    {!Campaign} calls {!run} after {e every} injected operation, so a bug
    is caught at the op that introduced the bad state, not thousands of ops
    later when it finally crashes something.  The audit is layered:

    + the kernel's own {!Memguard_kernel.Kernel.check_invariants} (frame
      refcounts vs page tables, buddy-allocator bookkeeping);
    + a swap-slot / page-table cross-check: every [Swapped] PTE names an
      in-use slot, no two PTEs share a slot, and the referenced-slot set
      equals the device's used-slot set exactly;
    + a frame-flag cross-check: a frame is marked [locked] iff some live
      process maps it through an mlocked PTE, and every [Free]-owned frame
      is actually covered by the buddy free lists;
    + provenance well-formedness: the key-copy interval registry of
      {!Memguard_obs.Obs.Provenance} holds only in-bounds, positive-length,
      non-overlapping intervals, a lookup at either end of each interval
      finds it, and the live count equals the number of intervals;
    + span balance: with observability on, no span frame is left open
      ({!Memguard_obs.Obs.Profiler.depth} is [0]) and the profiler tree's
      total equals {!Memguard_obs.Obs.Cost.total_cycles}.

    Separately, {!confinement} is the oracle for what a memory scan may
    find at a given protection level — under the Integrated solution, key
    bytes may live {e only} in the blessed mlocked region and never on the
    swap device.

    And {!scan_agreement} checks the incremental scanner itself: the hits
    a [Scan_cache] sweep reported must be exactly those of a cold sweep
    of RAM.

    Every violation is emitted as an
    {!Memguard_obs.Obs.Audit_violation} trace event and counted under the
    [fault.audit.violations] metric, in addition to being returned. *)

type violation = { check : string; detail : string }

val to_string : violation -> string
(** [\[check\] detail]. *)

val run : Memguard_kernel.Kernel.t -> violation list
(** The structural audit (layers 1–5 above).  [\[\]] means the machine
    state is internally consistent.  Deterministic: same state, same
    report, same order. *)

val confinement :
  Memguard_kernel.Kernel.t ->
  level:Memguard.Protection.level ->
  Memguard_scan.Scanner.matcher ->
  hits:Memguard_scan.Scanner.hit list ->
  violation list
(** Judge a scan result ([hits] for the matcher's patterns, from any of
    the scan modes) against the [level]'s guarantees:
    - levels that clear pages entering the free lists ([Secure_dealloc],
      [Kernel_level], [Integrated]) must never show a hit in unallocated
      memory;
    - [Integrated] additionally requires every RAM hit to satisfy
      {!Memguard_scan.Scanner.confined} (the mlocked key region) and the
      swap device to be free of key patterns.

    Levels promising nothing ([Unprotected], [Application], [Library])
    always pass. *)

val scan_agreement :
  Memguard_kernel.Kernel.t ->
  Memguard_scan.Scanner.matcher ->
  hits:Memguard_scan.Scanner.hit list ->
  violation list
(** Compare [hits], an incremental scan's result for the matcher's
    patterns, with a cold sweep of all of RAM made at the same state: same
    matches, same order, same locations.  The cold sweep charges no cost
    and emits no event, so running this check changes no campaign total;
    only a disagreement reports (check ["scan_agreement"]). *)
