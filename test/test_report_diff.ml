(* Helpers.diff on hand-built snapshots, plus the diff symmetry property:
   swapping the argument order swaps appeared and vanished. *)

open Memguard_scan

let hit ?(label = "d") ?(allocated = true) addr =
  { Scanner.label;
    addr;
    pfn = addr / 4096;
    location = (if allocated then Scanner.Allocated_anon [ 1 ] else Scanner.Unallocated)
  }

let snap ~time hits = Report.of_hits ~time hits

let keys hits = List.map (fun h -> (h.Scanner.label, h.Scanner.addr)) hits

let test_appeared () =
  let before = snap ~time:0 [ hit 100 ] in
  let after = snap ~time:1 [ hit 100; hit 5000; hit ~label:"p" 100 ] in
  let d = Helpers.diff ~before ~after in
  Alcotest.(check (list (pair string int)))
    "new (label, addr) pairs appear"
    [ ("d", 5000); ("p", 100) ]
    (keys d.Helpers.appeared);
  Alcotest.(check int) "nothing vanished" 0 (List.length d.Helpers.vanished);
  Alcotest.(check int) "nothing migrated" 0 (List.length d.Helpers.migrated)

let test_vanished () =
  let before = snap ~time:0 [ hit 100; hit 5000; hit ~label:"pem" 9000 ] in
  let after = snap ~time:1 [ hit 5000 ] in
  let d = Helpers.diff ~before ~after in
  Alcotest.(check (list (pair string int)))
    "dropped hits vanish"
    [ ("d", 100); ("pem", 9000) ]
    (keys d.Helpers.vanished);
  Alcotest.(check int) "nothing appeared" 0 (List.length d.Helpers.appeared)

let test_migrated () =
  (* same (label, addr), allocation state flips: the paper's "copies are
     not erased before entering unallocated memory" *)
  let before = snap ~time:0 [ hit ~allocated:true 100; hit ~allocated:true 5000 ] in
  let after = snap ~time:1 [ hit ~allocated:false 100; hit ~allocated:true 5000 ] in
  let d = Helpers.diff ~before ~after in
  Alcotest.(check (list (pair string int))) "flipped hit migrates" [ ("d", 100) ]
    (keys d.Helpers.migrated);
  Alcotest.(check int) "migration is not appearance" 0 (List.length d.Helpers.appeared);
  Alcotest.(check int) "migration is not vanishing" 0 (List.length d.Helpers.vanished)

let test_identical_snapshots () =
  let s = snap ~time:3 [ hit 100; hit ~label:"q" 200 ] in
  let d = Helpers.diff ~before:s ~after:s in
  Alcotest.(check int) "no appeared" 0 (List.length d.Helpers.appeared);
  Alcotest.(check int) "no vanished" 0 (List.length d.Helpers.vanished);
  Alcotest.(check int) "no migrated" 0 (List.length d.Helpers.migrated)

(* ---- property: diff is antisymmetric in appeared/vanished ---- *)

let arb_snapshot =
  let open QCheck in
  let gen =
    Gen.map
      (fun cells ->
        (* one hit per (label, addr): scanner output never repeats a key *)
        let seen = Hashtbl.create 16 in
        List.filter_map
          (fun (label_i, page, allocated) ->
            if Hashtbl.mem seen (label_i, page) then None
            else begin
              Hashtbl.add seen (label_i, page) ();
              Some
                (hit ~label:(String.make 1 (Char.chr (Char.code 'a' + label_i))) ~allocated
                   (page * 16))
            end)
          cells)
      Gen.(small_list (triple (int_bound 3) (int_bound 30) bool))
  in
  make ~print:(fun hits -> String.concat ";" (List.map (fun h -> Printf.sprintf "%s@%d" h.Scanner.label h.Scanner.addr) hits)) gen

let prop_diff_symmetry =
  QCheck.Test.make ~count:200 ~name:"diff before after mirrors diff after before"
    (QCheck.pair arb_snapshot arb_snapshot) (fun (h1, h2) ->
      let s1 = snap ~time:0 h1 and s2 = snap ~time:1 h2 in
      let fwd = Helpers.diff ~before:s1 ~after:s2 in
      let bwd = Helpers.diff ~before:s2 ~after:s1 in
      let sorted l = List.sort compare (keys l) in
      sorted fwd.Helpers.appeared = sorted bwd.Helpers.vanished
      && sorted fwd.Helpers.vanished = sorted bwd.Helpers.appeared
      && sorted fwd.Helpers.migrated = sorted bwd.Helpers.migrated)

let suite =
  [ ( "report_diff_cases",
      [ Alcotest.test_case "appeared" `Quick test_appeared;
        Alcotest.test_case "vanished" `Quick test_vanished;
        Alcotest.test_case "migrated" `Quick test_migrated;
        Alcotest.test_case "identical snapshots" `Quick test_identical_snapshots;
        QCheck_alcotest.to_alcotest prop_diff_symmetry
      ] )
  ]
