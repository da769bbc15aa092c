(* The benchmark's own tests: the percentile rule, span self-time
   arithmetic, and driver fidelity against the library's entry points. *)

open Perfbench
open Memguard

let feq = Alcotest.float 1e-9

let series n = Stats.of_list (List.init n (fun i -> float_of_int (i + 1)))

let test_tail_rule () =
  let check name n cap (p, v) =
    let p', v', n' = Stats.tail ~cap (series n) in
    Alcotest.(check (float 0.)) (name ^ " percentile") p p';
    Alcotest.check feq (name ^ " value") v v';
    Alcotest.(check int) (name ^ " count") n n'
  in
  (* p99 needs ten samples beyond it: 1000 has exactly ten, 999 has nine *)
  check "n=1000" 1000 99. (99., 990.);
  check "n=999 falls to p95" 999 99. (95., 950.);
  check "n=10000 uncapped" 10000 99.9 (99.9, 9990.);
  check "n=10000 capped at p99" 10000 99. (99., 9900.);
  check "n=20 median" 20 99. (50., 10.);
  check "n=19 falls back to median" 19 99. (50., 10.);
  let p, v, n = Stats.tail (Stats.samples ()) in
  Alcotest.(check (triple (float 0.) (float 0.) int)) "empty" (50., 0., 0) (p, v, n);
  Alcotest.(check string) "label" "p99.9" (Stats.pct_label 99.9);
  Alcotest.(check string) "label" "p99" (Stats.pct_label 99.)

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median (Stats.of_list [ 5.; 1.; 3. ]));
  Alcotest.check feq "even" 2.5 (Stats.median (Stats.of_list [ 4.; 1.; 2.; 3. ]));
  Alcotest.check feq "grows past initial capacity" 500.5 (Stats.median (series 1000))

(* pass [0,10]: sshd.open [1,4]; scan_cache.sweep [5,9] with a nested
   kernel.x [6,7].  Second pass [20,30] with overlapping children
   [21,25] and [23,28]: covered 7, not 9. *)
let test_self_time () =
  let t = Spans.create () in
  let add name start stop parent pass = Spans.add t ~name ~start ~stop ~parent ~pass in
  let root = add "pass" 0. 10. (-1) 0 in
  let a = add "sshd.open" 1. 4. root 0 in
  let b = add "scan_cache.sweep" 5. 9. root 0 in
  let b1 = add "kernel.x" 6. 7. b 0 in
  let root2 = add "pass" 20. 30. (-1) 1 in
  let c1 = add "sshd.open" 21. 25. root2 1 in
  let c2 = add "sshd.close" 23. 28. root2 1 in
  let self = Spans.self_times t in
  List.iter
    (fun (i, want) -> Alcotest.check feq (Spans.name t i) want self.(i))
    [ (root, 3.); (a, 3.); (b, 3.); (b1, 1.); (root2, 3.); (c1, 4.); (c2, 5.) ];
  Alcotest.(check (list (pair string feq)))
    "per layer"
    [ ("kernel", 1.); ("pass", 6.); ("scan_cache", 3.); ("sshd", 12.) ]
    (Spans.self_by_layer t);
  Alcotest.check feq "durations" 3.5 (Stats.median (Spans.durations t "sshd.open"))

let test_recorder_nesting () =
  let t = Spans.create () in
  Spans.with_span t ~pass:0 "pass" (fun () ->
      Spans.with_span t ~pass:0 "sshd.open" (fun () -> Spans.with_span t ~pass:0 "kernel.x" ignore));
  Alcotest.(check (list int)) "parents" [ -1; 0; 1 ] (List.init (Spans.length t) (Spans.parent t));
  let self = Spans.self_times t in
  let total = Array.fold_left ( +. ) 0. self in
  Alcotest.check (Alcotest.float 1e-12) "self times sum to the root" (Spans.duration t 0) total

(* the benchmark's drivers reproduce the library's own runs, on a small
   machine *)
let test_timeline_fidelity () =
  List.iter
    (fun (server, exp_server, seed) ->
      let expected = Experiment.timeline ~num_pages:1024 ~seed exp_server in
      let sys = System.create ~num_pages:1024 ~seed ~level:Protection.Unprotected () in
      let p = Drive.probe 0 in
      let got = Drive.timeline p sys server in
      Alcotest.(check bool) "snapshots equal" true (got = expected);
      Alcotest.(check bool) "connections timed" true (Drive.(p.opened) > 0);
      Alcotest.(check int) "one sample per connection" p.Drive.opened
        (Hashtbl.fold (fun _ s n -> n + Stats.count s) p.Drive.conn_us 0))
    [ (Timeline.Ssh, Experiment.Ssh, 3); (Timeline.Http, Experiment.Http, 4) ]

let test_overhead_fidelity () =
  let level = Protection.Integrated in
  let row = List.hd (Overhead.run ~levels:[ level ] ~num_pages:1024 ~seed:5 ()) in
  let obs = Memguard_obs.Obs.create () in
  let sys = System.create ~num_pages:1024 ~seed:5 ~key_bits:256 ~obs ~level () in
  ignore (Drive.timeline (Drive.probe 0) ~sshd_opts:(Overhead.sshd_opts_for level) sys Timeline.Ssh);
  Alcotest.(check int) "cycles" row.Overhead.cycles (Memguard_obs.Obs.Cost.total_cycles obs);
  Alcotest.(check (list (pair string int))) "by subsystem" row.Overhead.by_subsystem
    (Memguard_obs.Obs.Cost.by_subsystem obs)

let test_attack_fidelity () =
  let level = Protection.Unprotected in
  let reference =
    Experiment.ext2_sweep ~level ~trials:1 ~num_pages:1024 ~seed:6 ~connections:[ 20 ]
      ~directories:[ 200 ] Experiment.Http
  in
  let got =
    Drive.attack_trial (Drive.probe 0) ~key:"t" ~level ~num_pages:1024 ~seed:6 Timeline.Http
      (Drive.Ext2 { connections = 20; directories = 200 })
  in
  Alcotest.(check int) "ext2 copies" (int_of_float (List.hd reference).Experiment.mean_copies) got;
  let reference =
    Experiment.tty_sweep ~level ~trials:1 ~num_pages:1024 ~seed:7 ~connections:[ 10 ] Experiment.Ssh
  in
  let got =
    Drive.attack_trial (Drive.probe 0) ~key:"t" ~level ~num_pages:1024 ~seed:7 Timeline.Ssh
      (Drive.Tty { connections = 10 })
  in
  Alcotest.(check int) "tty copies" (int_of_float (List.hd reference).Experiment.mean_copies) got

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median ] );
      ( "spans",
        [ Alcotest.test_case "self time on a hand-built tree" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting ] );
      ( "fidelity",
        [ Alcotest.test_case "timeline driver" `Quick test_timeline_fidelity;
          Alcotest.test_case "overhead driver" `Quick test_overhead_fidelity;
          Alcotest.test_case "attack driver" `Quick test_attack_fidelity ] )
    ]
