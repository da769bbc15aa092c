(* Observatory tour: the exposure ledger, /proc-style introspection, and
   the dashboard pipeline in one sitting.

   PR 2's provenance registry records *where* key copies live; the
   exposure ledger integrates *how long* they live there, bucketed by
   memory class (mlocked-anon, plain-anon, page-cache, kernel buffers,
   free RAM, swap).  The paper's verdict on each countermeasure is exactly
   this window-of-vulnerability accounting: the Integrated level confines
   every sensitive byte to the mlocked region, while the unprotected stack
   leaks copies that keep accruing exposure in free RAM long after the
   server stopped.

   Run with:  dune exec examples/observatory_tour.exe *)

open Memguard
module Kernel = Memguard_kernel.Kernel
module Introspect = Memguard_kernel.Introspect
module Obs = Memguard_obs.Obs

let hrule title = Printf.printf "\n=== %s ===\n" title

let show_level level =
  let archive = ref None in
  let d =
    Dashboard.run ~level ~num_pages:2048 ~seed:7 ~breach_age:3
      ~recorder:(fun snap -> archive := Some snap) ()
  in
  Printf.printf "%s:\n" (Protection.name level);
  Format.printf "%a" Dashboard.pp_summary d;
  (d, Option.get !archive)

let () =
  hrule "Act 1: exposure ledger, unprotected vs integrated";
  let unprot, _ = show_level Protection.Unprotected in
  print_newline ();
  let integ, integ_archive = show_level Protection.Integrated in
  Printf.printf
    "\nheadline — sensitive byte-ticks outside mlocked-anon:\n  unprotected %d, integrated %d\n"
    (Dashboard.sensitive_unsafe_total unprot)
    (Dashboard.sensitive_unsafe_total integ);

  hrule "Act 2: /proc-style introspection mid-run";
  (* stop the fig-5 timeline right at peak traffic and look around *)
  let obs = Obs.create () in
  let sys =
    System.create ~num_pages:2048 ~seed:7 ~obs ~level:Protection.Integrated ()
  in
  ignore (Timeline.run ~stop_at:11 sys Timeline.Ssh);
  print_string (Introspect.meminfo (System.kernel sys));
  print_string (Introspect.buddyinfo (System.kernel sys));
  (* the sshd listener's maps: the key lives in one locked region *)
  (match Kernel.live_procs (System.kernel sys) with
   | p :: _ ->
     (* print only the listener's block to keep the tour short *)
     let s = Introspect.maps (System.kernel sys) in
     let rec next_header i =
       match String.index_from_opt s i '\n' with
       | Some j when j + 3 <= String.length s - 1
                     && String.sub s (j + 1) 3 = "==>" -> j + 1
       | Some j -> next_header (j + 1)
       | None -> String.length s
     in
     print_string (String.sub s 0 (next_header 0));
     ignore p
   | [] -> ());

  hrule "Act 3: the dashboard files";
  let html = Dashboard.to_html integ in
  let json = Obs.Snapshot.to_json integ_archive in
  Printf.printf "to_html: %d bytes, flight archive: %d bytes\n" (String.length html)
    (String.length json);
  Printf.printf "write them with: memguard_cli observe --level integrated --html obs.html --flight obs.json\n"
