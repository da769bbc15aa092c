open Memguard_apps
open Memguard_util
open Memguard

let rng () = Prng.of_int 77

let test_steps () =
  let p = Workload.Steps [ (6, 8); (10, 16); (14, 8); (18, 0) ] in
  let r = rng () in
  List.iter
    (fun (t, expect) ->
      Alcotest.(check int) (Printf.sprintf "t=%d" t) expect (Workload.concurrency_at p r ~tick:t))
    [ (0, 0); (5, 0); (6, 8); (9, 8); (10, 16); (13, 16); (14, 8); (17, 8); (18, 0); (29, 0) ]

let test_paper_traffic_matches_concurrency_at () =
  let s = Timeline.default_schedule in
  let p = Timeline.paper_traffic s in
  let r = rng () in
  for t = 0 to s.Timeline.finish do
    Alcotest.(check int) (Printf.sprintf "t=%d" t)
      (Timeline.concurrency_at s ~low:8 ~high:16 t)
      (Workload.concurrency_at p r ~tick:t)
  done

let suite =
  [ ( "workload",
      [ Alcotest.test_case "steps" `Quick test_steps;
        Alcotest.test_case "paper traffic" `Quick test_paper_traffic_matches_concurrency_at
      ] )
  ]
