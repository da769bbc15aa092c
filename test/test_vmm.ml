open Memguard_vmm
open Memguard_util

let make_mem ?(pages = 64) () = Phys_mem.create ~num_pages:pages ()

let check_inv buddy =
  match Buddy.check_invariants buddy with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("buddy invariant: " ^ e)

(* ---- phys_mem ---- *)

let test_mem_shape () =
  let m = make_mem () in
  Alcotest.(check int) "page size" 4096 (Phys_mem.page_size m);
  Alcotest.(check int) "num pages" 64 (Phys_mem.num_pages m);
  Alcotest.(check int) "size" (64 * 4096) (Phys_mem.size_bytes m)

let test_mem_power_of_two () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Phys_mem.create: num_pages must be a power of two")
    (fun () -> ignore (Phys_mem.create ~num_pages:48 ()))

let test_mem_rw () =
  let m = make_mem () in
  Phys_mem.write m ~addr:100 "hello";
  Alcotest.(check string) "read back" "hello" (Phys_mem.read m ~addr:100 ~len:5);
  Alcotest.(check string) "zero elsewhere" "\000\000" (Phys_mem.read m ~addr:50 ~len:2)

let test_mem_bounds () =
  let m = make_mem () in
  Alcotest.check_raises "read oob" (Invalid_argument "Phys_mem.read: bad range") (fun () ->
      ignore (Phys_mem.read m ~addr:(Phys_mem.size_bytes m - 2) ~len:5));
  Alcotest.check_raises "write oob" (Invalid_argument "Phys_mem.write: bad range") (fun () ->
      Phys_mem.write m ~addr:(Phys_mem.size_bytes m - 2) "hello")

let test_mem_blit_clear () =
  let m = make_mem () in
  Phys_mem.write m ~addr:(Phys_mem.addr_of_pfn m 3) "secret";
  Phys_mem.blit_frame m ~src_pfn:3 ~dst_pfn:7;
  Alcotest.(check string) "copied" "secret" (Phys_mem.read m ~addr:(Phys_mem.addr_of_pfn m 7) ~len:6);
  Phys_mem.clear_frame m 3;
  Alcotest.(check bool) "cleared" true (Phys_mem.frame_is_zero m 3);
  Alcotest.(check bool) "copy untouched" false (Phys_mem.frame_is_zero m 7)

let test_mem_pfn_addr () =
  let m = make_mem () in
  Alcotest.(check int) "addr of pfn" (5 * 4096) (Phys_mem.addr_of_pfn m 5);
  Alcotest.(check int) "pfn of addr" 5 (Phys_mem.pfn_of_addr m ((5 * 4096) + 123))

let test_mem_generations () =
  let m = make_mem () in
  Alcotest.(check int) "fresh frame at gen 0" 0 (Phys_mem.generation m 0);
  (* a write spanning a page boundary bumps every covered frame *)
  Phys_mem.write m ~addr:(4096 - 2) "abcd";
  Alcotest.(check int) "page 0 bumped" 1 (Phys_mem.generation m 0);
  Alcotest.(check int) "page 1 bumped" 1 (Phys_mem.generation m 1);
  Alcotest.(check int) "page 2 untouched" 0 (Phys_mem.generation m 2);
  Phys_mem.set_byte m 5000 'x';
  Alcotest.(check int) "set_byte bumps" 2 (Phys_mem.generation m 1);
  Phys_mem.blit_frame m ~src_pfn:1 ~dst_pfn:3;
  Alcotest.(check int) "blit bumps destination" 1 (Phys_mem.generation m 3);
  Alcotest.(check int) "blit leaves source" 2 (Phys_mem.generation m 1);
  Phys_mem.clear_frame m 3;
  Alcotest.(check int) "clear bumps" 2 (Phys_mem.generation m 3);
  Phys_mem.touch m 7;
  Alcotest.(check int) "manual touch" 1 (Phys_mem.generation m 7);
  Alcotest.check_raises "generation oob" (Invalid_argument "Phys_mem.generation: pfn out of range")
    (fun () -> ignore (Phys_mem.generation m 64))

(* ---- buddy ---- *)

let test_buddy_initial_state () =
  let m = make_mem () in
  let b = Buddy.create m in
  Alcotest.(check int) "all free" 64 (Buddy.free_pages b);
  Alcotest.(check int) "none allocated" 0 (Buddy.allocated_pages b);
  check_inv b

let test_buddy_alloc_free_cycle () =
  let m = make_mem () in
  let b = Buddy.create m in
  let pfn = Option.get (Buddy.alloc_page b) in
  Alcotest.(check int) "one allocated" 1 (Buddy.allocated_pages b);
  Alcotest.(check bool) "descriptor not free" false (Page.is_free (Phys_mem.page m pfn));
  check_inv b;
  Buddy.free_page b pfn;
  Alcotest.(check int) "all free again" 64 (Buddy.free_pages b);
  Alcotest.(check bool) "descriptor free" true (Page.is_free (Phys_mem.page m pfn));
  check_inv b

let test_buddy_exhaustion () =
  let m = make_mem ~pages:8 () in
  let b = Buddy.create m in
  for _ = 1 to 8 do
    Alcotest.(check bool) "alloc ok" true (Buddy.alloc_page b <> None)
  done;
  Alcotest.(check bool) "exhausted" true (Buddy.alloc_page b = None);
  check_inv b

let test_buddy_multi_order () =
  let m = make_mem () in
  let b = Buddy.create m in
  let blk = Option.get (Buddy.alloc b ~order:3) in
  Alcotest.(check int) "8 pages gone" 56 (Buddy.free_pages b);
  Alcotest.(check int) "aligned" 0 (blk land 7);
  check_inv b;
  Buddy.free b ~pfn:blk ~order:3;
  Alcotest.(check int) "restored" 64 (Buddy.free_pages b);
  check_inv b

let test_buddy_coalescing () =
  let m = make_mem ~pages:16 () in
  let b = Buddy.create m in
  (* fragment completely, then free everything: must coalesce back *)
  let pfns = List.init 16 (fun _ -> Option.get (Buddy.alloc_page b)) in
  check_inv b;
  List.iter (Buddy.free_page b) pfns;
  check_inv b;
  (* after full coalescing a 16-page block must be allocatable *)
  Alcotest.(check bool) "big block available" true (Buddy.alloc b ~order:4 <> None)

let test_buddy_double_free () =
  let m = make_mem () in
  let b = Buddy.create m in
  let pfn = Option.get (Buddy.alloc_page b) in
  Buddy.free_page b pfn;
  Alcotest.check_raises "double free"
    (Invalid_argument "Buddy.free: block is not allocated (double free?)")
    (fun () -> Buddy.free_page b pfn)

let test_buddy_order_mismatch () =
  let m = make_mem () in
  let b = Buddy.create m in
  let pfn = Option.get (Buddy.alloc b ~order:2) in
  Alcotest.check_raises "order mismatch" (Invalid_argument "Buddy.free: order mismatch")
    (fun () -> Buddy.free b ~pfn ~order:1)

let test_buddy_no_zero_on_free_leaks () =
  let m = make_mem () in
  let b = Buddy.create m in
  let pfn = Option.get (Buddy.alloc_page b) in
  Phys_mem.write m ~addr:(Phys_mem.addr_of_pfn m pfn) "KEYMATERIAL";
  Buddy.free_page b pfn;
  (* vanilla kernel: the stale data survives into the free page *)
  Alcotest.(check string) "data survives free" "KEYMATERIAL"
    (Phys_mem.read m ~addr:(Phys_mem.addr_of_pfn m pfn) ~len:11);
  (* and reallocation hands it out uncleared *)
  let pfn2 = Option.get (Buddy.alloc_page b) in
  Alcotest.(check int) "same page reused" pfn pfn2;
  Alcotest.(check string) "handed out stale" "KEYMATERIAL"
    (Phys_mem.read m ~addr:(Phys_mem.addr_of_pfn m pfn2) ~len:11)

let test_buddy_zero_on_free_clears () =
  let m = make_mem () in
  let b = Buddy.create ~zero_on_free:true m in
  let pfn = Option.get (Buddy.alloc_page b) in
  Phys_mem.write m ~addr:(Phys_mem.addr_of_pfn m pfn) "KEYMATERIAL";
  Buddy.free_page b pfn;
  Alcotest.(check bool) "frame cleared at free" true (Phys_mem.frame_is_zero m pfn)

let test_buddy_zero_on_free_toggle () =
  let m = make_mem () in
  let b = Buddy.create m in
  Alcotest.(check bool) "off by default" false (Buddy.zero_on_free b);
  Buddy.set_zero_on_free b true;
  let pfn = Option.get (Buddy.alloc_page b) in
  Phys_mem.write m ~addr:(Phys_mem.addr_of_pfn m pfn) "X";
  Buddy.free_page b pfn;
  Alcotest.(check bool) "cleared after toggle" true (Phys_mem.frame_is_zero m pfn)

let test_buddy_deterministic () =
  let run () =
    let b = Buddy.create (make_mem ()) in
    List.init 10 (fun _ -> Option.get (Buddy.alloc_page b))
  in
  Alcotest.(check (list int)) "deterministic allocation order" (run ()) (run ())

(* property: random alloc/free sequences keep invariants and never lose pages *)
let prop_buddy_random_ops =
  QCheck.Test.make ~name:"buddy invariants under random alloc/free" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let m = Phys_mem.create ~num_pages:128 () in
      let b = Buddy.create ~zero_on_free:(Prng.bool rng) m in
      let live = ref [] in
      let ops = 200 in
      let ok = ref true in
      for _ = 1 to ops do
        if Prng.bool rng || !live = [] then begin
          let order = Prng.int rng 4 in
          match Buddy.alloc b ~order with
          | Some pfn -> live := (pfn, order) :: !live
          | None -> ()
        end
        else begin
          let n = List.length !live in
          let idx = Prng.int rng n in
          let pfn, order = List.nth !live idx in
          live := List.filteri (fun i _ -> i <> idx) !live;
          Buddy.free b ~pfn ~order
        end;
        (match Buddy.check_invariants b with Ok () -> () | Error _ -> ok := false)
      done;
      List.iter (fun (pfn, order) -> Buddy.free b ~pfn ~order) !live;
      !ok
      && Buddy.free_pages b = 128
      && Buddy.check_invariants b = Ok ()
      && Buddy.alloc b ~order:7 <> None)

let suite =
  [ ( "phys_mem",
      [ Alcotest.test_case "shape" `Quick test_mem_shape;
        Alcotest.test_case "power of two" `Quick test_mem_power_of_two;
        Alcotest.test_case "read/write" `Quick test_mem_rw;
        Alcotest.test_case "bounds" `Quick test_mem_bounds;
        Alcotest.test_case "blit/clear frame" `Quick test_mem_blit_clear;
        Alcotest.test_case "pfn/addr" `Quick test_mem_pfn_addr;
        Alcotest.test_case "generation counters" `Quick test_mem_generations
      ] );
    ( "buddy",
      [ Alcotest.test_case "initial state" `Quick test_buddy_initial_state;
        Alcotest.test_case "alloc/free cycle" `Quick test_buddy_alloc_free_cycle;
        Alcotest.test_case "exhaustion" `Quick test_buddy_exhaustion;
        Alcotest.test_case "multi-order" `Quick test_buddy_multi_order;
        Alcotest.test_case "coalescing" `Quick test_buddy_coalescing;
        Alcotest.test_case "double free" `Quick test_buddy_double_free;
        Alcotest.test_case "order mismatch" `Quick test_buddy_order_mismatch;
        Alcotest.test_case "no zero_on_free leaks" `Quick test_buddy_no_zero_on_free_leaks;
        Alcotest.test_case "zero_on_free clears" `Quick test_buddy_zero_on_free_clears;
        Alcotest.test_case "zero_on_free toggle" `Quick test_buddy_zero_on_free_toggle;
        Alcotest.test_case "deterministic" `Quick test_buddy_deterministic;
        QCheck_alcotest.to_alcotest prop_buddy_random_ops
      ] )
  ]

(* ---- regression: is_free_block must answer membership, not base identity ---- *)

let test_is_free_block_interior_pages () =
  let mem = Phys_mem.create ~num_pages:16 () in
  let b = Buddy.create mem in
  (* freshly seeded: one order-4 free block based at pfn 0 covers everything *)
  Alcotest.(check bool) "base pfn free" true (Buddy.is_free_block b ~pfn:0);
  Alcotest.(check bool) "interior pfn free" true (Buddy.is_free_block b ~pfn:5);
  Alcotest.(check bool) "last pfn free" true (Buddy.is_free_block b ~pfn:15);
  let pfn = Option.get (Buddy.alloc_page b) in
  Alcotest.(check bool) "allocated page not free" false (Buddy.is_free_block b ~pfn);
  (* the split parked smaller blocks: their interiors still answer free *)
  Alcotest.(check bool) "interior of split block" true (Buddy.is_free_block b ~pfn:5);
  Buddy.free_page b pfn;
  Alcotest.(check bool) "freed page free again" true (Buddy.is_free_block b ~pfn)

let free_block_suite =
  ( "buddy_is_free_block",
    [ Alcotest.test_case "interior pages" `Quick test_is_free_block_interior_pages ] )

(* ---- equivalence with the Set-based reference model (test/buddy_ref.ml) ---- *)

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* One random run of [ops] operations driven identically into [Buddy] and
   [Buddy_ref]: every return value, every [Invalid_argument] and every
   observable must agree after every operation. *)
let buddy_equivalence ~pages ~seed ~ops =
  let b = Buddy.create (Phys_mem.create ~num_pages:pages ()) in
  let r = Buddy_ref.create (Phys_mem.create ~num_pages:pages ()) in
  let st = Random.State.make [| seed |] in
  (* live blocks as (pfn, order), swap-removed *)
  let live = Array.make pages (0, 0) and nlive = ref 0 in
  let is_live pfn =
    let rec go i = i < !nlive && (fst live.(i) = pfn || go (i + 1)) in
    go 0
  in
  let op = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.failf "%d pages, op %d: %s" pages !op s) fmt in
  let same what show x y = if x <> y then fail "%s: %s, reference %s" what (show x) (show y) in
  let show_res show = function Ok v -> show v | Error m -> "Invalid_argument " ^ m in
  let show_opt = function None -> "None" | Some p -> string_of_int p in
  let show_unit () = "()" in
  let both what show f g = same what (show_res show) (outcome f) (outcome g) in
  let sweep () =
    for pfn = -1 to pages do
      same (Printf.sprintf "is_free_block %d" pfn) string_of_bool
        (Buddy.is_free_block b ~pfn) (Buddy_ref.is_free_block r ~pfn)
    done
  in
  let free_live i ~order ~page =
    let pfn, o = live.(i) in
    let order = Option.value order ~default:o in
    both "free" show_unit
      (fun () -> if page then Buddy.free_page b pfn else Buddy.free b ~pfn ~order)
      (fun () -> if page then Buddy_ref.free_page r pfn else Buddy_ref.free r ~pfn ~order);
    if order = o then begin
      decr nlive;
      live.(i) <- live.(!nlive)
    end
  in
  while !op < ops do
    incr op;
    (* alternate alloc-heavy and free-heavy phases so memory runs out and refills *)
    let p_alloc = if !op / 1000 mod 2 = 0 then 0.7 else 0.3 in
    let u = Random.State.float st 1.0 in
    if u < 0.9 then begin
      if Random.State.float st 1.0 < p_alloc || !nlive = 0 then begin
        let order = [| 0; 0; 0; 0; 1; 1; 2; 3 |].(Random.State.int st 8) in
        let x = Buddy.alloc b ~order and y = Buddy_ref.alloc r ~order in
        same (Printf.sprintf "alloc ~order:%d" order) show_opt x y;
        Option.iter
          (fun pfn ->
            live.(!nlive) <- (pfn, order);
            incr nlive)
          x
      end
      else begin
        let i = Random.State.int st !nlive in
        free_live i ~order:None ~page:(snd live.(i) = 0 && Random.State.bool st)
      end
    end
    else if u < 0.93 then begin
      Buddy.drain_hot b;
      Buddy_ref.drain_hot r
    end
    else if u < 0.95 then begin
      let v = Random.State.bool st in
      Buddy.set_zero_on_free b v;
      Buddy_ref.set_zero_on_free r v
    end
    else if u < 0.97 then begin
      (* double free, or a pfn that was never a block base (out of range too) *)
      let pfn = Random.State.int st (pages + 2) - 1 in
      if not (is_live pfn) then
        both "free of a free pfn" show_unit
          (fun () -> Buddy.free_page b pfn)
          (fun () -> Buddy_ref.free_page r pfn)
    end
    else if u < 0.99 then begin
      if !nlive > 0 then begin
        let i = Random.State.int st !nlive in
        let o = snd live.(i) in
        free_live i ~order:(Some (if Random.State.bool st then o + 1 else o - 1)) ~page:false
      end
    end
    else begin
      let order = if Random.State.bool st then -1 else Buddy.max_order + 1 in
      both "alloc of a bad order" show_opt
        (fun () -> Buddy.alloc b ~order)
        (fun () -> Buddy_ref.alloc r ~order)
    end;
    same "free_pages" string_of_int (Buddy.free_pages b) (Buddy_ref.free_pages r);
    same "hot_list_size" string_of_int (Buddy.hot_list_size b) (Buddy_ref.hot_list_size r);
    let show_orders l = String.concat " " (List.map (fun (o, n) -> Printf.sprintf "%d:%d" o n) l) in
    same "free_blocks_by_order" show_orders (Buddy.free_blocks_by_order b)
      (Buddy_ref.free_blocks_by_order r);
    if pages <= 256 || !op mod 50 = 0 then sweep ();
    if !op mod 500 = 0 then check_inv b
  done;
  sweep ();
  check_inv b

let test_buddy_equivalence () =
  List.iteri
    (fun i pages -> buddy_equivalence ~pages ~seed:(17 + i) ~ops:10_000)
    [ 64; 256; 1024; 4096 ]

let equivalence_suite =
  ( "buddy_equivalence",
    [ Alcotest.test_case "matches the Set-based model" `Quick test_buddy_equivalence ] )

let suite = suite @ [ free_block_suite; equivalence_suite ]
