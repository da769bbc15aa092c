(* Edge cases aimed at the rarely-taken paths: the Knuth division qhat
   correction and add-back, decoder robustness on hostile input, and
   kernel corner cases. *)

open Memguard_bignum
open Memguard_crypto
open Memguard_kernel
open Memguard_util

let bn = Alcotest.testable Bn.pp Bn.equal

(* ---- Knuth division stress ---- *)

(* Build u = q*v + r from extreme components, then demand divmod returns
   exactly (q, r).  Divisors with a just-normalized top limb and remainders
   close to v maximize the chance of the qhat-overshoot and add-back
   branches; the identity check makes any miscorrection visible. *)
let test_divmod_crafted_extremes () =
  let base = Bn.shift_left Bn.one 24 in
  let limb_max = Bn.sub base Bn.one in
  let mk limbs =
    (* little-endian limb list *)
    List.fold_left
      (fun acc l -> Bn.add (Bn.shift_left acc 24) l)
      Bn.zero (List.rev limbs)
  in
  let half = Bn.shift_left Bn.one 23 in
  let divisors =
    [ mk [ Bn.zero; half ];  (* minimal normalized top limb *)
      mk [ limb_max; half ];
      mk [ Bn.one; limb_max ];  (* maximal top limb *)
      mk [ limb_max; limb_max ];
      mk [ Bn.zero; Bn.zero; half ];
      mk [ limb_max; Bn.one; Bn.add half Bn.one ];
      mk [ limb_max; limb_max; limb_max ]
    ]
  in
  let quotients =
    [ Bn.one; limb_max; mk [ limb_max; limb_max ]; mk [ Bn.zero; Bn.one ];
      mk [ Bn.one; Bn.zero; limb_max ] ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun q ->
          List.iter
            (fun r ->
              if Bn.compare r v < 0 then begin
                let u = Bn.add (Bn.mul q v) r in
                let q', r' = Helpers.divmod u v in
                Alcotest.check bn "quotient" q q';
                Alcotest.check bn "remainder" r r'
              end)
            [ Bn.zero; Bn.one; Bn.sub v Bn.one; Bn.shift_right v 1 ])
        quotients)
    divisors

let test_divmod_hackers_delight_addback () =
  (* the classic add-back triggers, transplanted to a 48-bit layout: values
     where the 2-limb estimate overshoots by 2 *)
  let u = Bn.of_hex "7fffff800000000000" in
  let v = Bn.of_hex "800000000001" in
  let q, r = Helpers.divmod u v in
  Alcotest.check bn "identity" u (Bn.add (Bn.mul q v) r);
  Alcotest.(check bool) "r in range" true (Bn.sign r >= 0 && Bn.compare r v < 0)

let test_divmod_equal_operands () =
  let v = Bn.of_hex "deadbeefcafebabe1234567890" in
  let q, r = Helpers.divmod v v in
  Alcotest.check bn "q=1" Bn.one q;
  Alcotest.check bn "r=0" Bn.zero r

let test_divmod_off_by_one_boundaries () =
  let v = Bn.of_hex "ffffffffffffffffffffffff" in
  List.iter
    (fun delta ->
      let u = Bn.add (Bn.mul v (Bn.of_int 1000)) delta in
      let q, r = Helpers.divmod u v in
      Alcotest.check bn "identity" u (Bn.add (Bn.mul q v) r))
    [ Bn.neg Bn.one; Bn.zero; Bn.one; Bn.sub v Bn.one ]

(* ---- Bn misc edges ---- *)

let test_bn_to_int_too_large () =
  Alcotest.check_raises "to_int overflow" (Failure "Bn.to_int: too large") (fun () ->
      ignore (Bn.to_int (Bn.shift_left Bn.one 80)))

let test_bn_negative_shift () =
  Alcotest.check_raises "negative shl" (Invalid_argument "Bn.shift_left") (fun () ->
      ignore (Bn.shift_left Bn.one (-1)))

let test_bn_mod_pow_invalid () =
  Alcotest.check_raises "negative exponent" (Invalid_argument "Bn.mod_pow: negative exponent")
    (fun () ->
      ignore (Bn.mod_pow ~base:Bn.two ~exp:(Bn.of_int (-1)) ~modulus:(Bn.of_int 7)));
  Alcotest.check_raises "zero modulus" (Invalid_argument "Bn.mod_pow: modulus must be positive")
    (fun () -> ignore (Bn.mod_pow ~base:Bn.two ~exp:Bn.two ~modulus:Bn.zero))

let test_bn_mod_pow_one_modulus () =
  Alcotest.check bn "mod 1 is 0" Bn.zero
    (Bn.mod_pow ~base:(Bn.of_int 5) ~exp:(Bn.of_int 3) ~modulus:Bn.one)

let test_bn_random_below_one () =
  let rng = Prng.of_int 3 in
  for _ = 1 to 10 do
    Alcotest.check bn "always 0" Bn.zero (Bn.random_below rng Bn.one)
  done

let test_bn_egcd_zero_cases () =
  let g, x, _y = Bn.egcd Bn.zero (Bn.of_int 7) in
  Alcotest.check bn "gcd(0,7)" (Bn.of_int 7) g;
  Alcotest.check bn "x coeff" Bn.zero (Bn.mul x Bn.zero);
  let g, _, _ = Bn.egcd Bn.zero Bn.zero in
  Alcotest.check bn "gcd(0,0)" Bn.zero g

(* ---- decoder fuzzing: hostile input must never raise ---- *)

let prop_asn1_decode_never_raises =
  QCheck.Test.make ~name:"asn1 decode total on arbitrary bytes" ~count:1000
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      match Asn1.decode s with
      | Ok _ | Error _ -> true)

let prop_asn1_truncations_never_raise =
  QCheck.Test.make ~name:"asn1 decode total on truncated valid input" ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let v =
        Asn1.Sequence
          [ Asn1.Integer (Bn.random_bits rng 100); Asn1.Octet_string "payload";
            Asn1.Sequence [ Asn1.Integer (Bn.of_int (Prng.int rng 1000)) ]
          ]
      in
      let enc = Asn1.encode v in
      let ok = ref true in
      for cut = 0 to String.length enc - 1 do
        match Asn1.decode (String.sub enc 0 cut) with
        | Ok _ | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let prop_pem_decode_never_raises =
  QCheck.Test.make ~name:"pem decode total on arbitrary text" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      match Pem.decode s with
      | Ok _ | Error _ -> true)

let prop_base64_decode_never_raises =
  QCheck.Test.make ~name:"base64 decode total on arbitrary text" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 100))
    (fun s ->
      match Base64.decode s with
      | Ok _ | Error _ -> true)

let prop_rsa_priv_of_der_never_raises =
  QCheck.Test.make ~name:"priv_of_der total on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 80))
    (fun s ->
      match Rsa.priv_of_der s with
      | Ok _ | Error _ -> true)

(* ---- kernel corner cases ---- *)

let config = { Kernel.default_config with num_pages = 128 }

let test_cow_write_after_peer_exit () =
  let k = Kernel.create ~config () in
  let parent = Kernel.spawn k ~name:"p" in
  let addr = Kernel.malloc k parent 64 in
  Kernel.write_mem k parent ~addr "shared";
  let child = Kernel.fork k parent in
  Kernel.exit k parent;
  (* the child is now the sole owner of a cow-marked frame; a write must
     not copy (refcount 1) and must not touch a freed frame *)
  let before = (Kernel.stats k).Kernel.allocated_pages in
  Kernel.write_mem k child ~addr "childs";
  Alcotest.(check int) "no copy for sole owner" before (Kernel.stats k).Kernel.allocated_pages;
  Alcotest.(check string) "value" "childs" (Kernel.read_mem k child ~addr ~len:6);
  Alcotest.(check bool) "invariants" true (Kernel.check_invariants k = Ok ())

let test_deep_fork_chain () =
  let k = Kernel.create ~config () in
  let p0 = Kernel.spawn k ~name:"gen0" in
  let addr = Kernel.malloc k p0 32 in
  Kernel.write_mem k p0 ~addr "genesis!";
  let rec descend p n acc = if n = 0 then acc else
      let c = Kernel.fork k p in
      descend c (n - 1) (c :: acc)
  in
  let descendants = descend p0 10 [] in
  List.iter
    (fun c -> Alcotest.(check string) "inherited" "genesis!" (Kernel.read_mem k c ~addr ~len:8))
    descendants;
  let pfn = Option.get (Kernel.pfn_of_vaddr k p0 addr) in
  Alcotest.(check int) "refcount = 11"
    11 (Memguard_vmm.Phys_mem.page (Kernel.mem k) pfn).Memguard_vmm.Page.refcount;
  List.iter (fun c -> Kernel.exit k c) descendants;
  Kernel.exit k p0;
  Alcotest.(check bool) "invariants after teardown" true (Kernel.check_invariants k = Ok ())

let test_read_unmapped_gap () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"p" in
  let addr = Kernel.malloc k p 64 in
  (* read far past the heap *)
  (match Kernel.read_mem k p ~addr:(addr + (1000 * 4096)) ~len:4 with
   | _ -> Alcotest.fail "expected segfault"
   | exception Kernel.Segfault { pid; _ } -> Alcotest.(check int) "pid" p.Proc.pid pid)

let test_malloc_evicts_page_cache_before_oom () =
  let k = Kernel.create ~config:{ config with num_pages = 32 } () in
  ignore (Kernel.write_file k ~path:"/f" (String.make 8192 'f'));
  let p = Kernel.spawn k ~name:"reader" in
  let buf, len = Kernel.read_file k p ~path:"/f" ~nocache:false in
  Kernel.free k p buf;
  ignore len;
  Alcotest.(check bool) "cache populated" true ((Kernel.stats k).Kernel.cached_frames > 0);
  (* a large allocation should reclaim the cache rather than die *)
  let free = (Kernel.stats k).Kernel.free_pages in
  let addr = Kernel.malloc k p ((free + 1) * 4096) in
  Kernel.write_mem k p ~addr "survived";
  Alcotest.(check string) "allocation usable" "survived" (Kernel.read_mem k p ~addr ~len:8)

let test_zero_length_file () =
  let k = Kernel.create ~config () in
  ignore (Kernel.write_file k ~path:"/empty" "");
  let p = Kernel.spawn k ~name:"reader" in
  let _, len = Kernel.read_file k p ~path:"/empty" ~nocache:false in
  Alcotest.(check int) "empty read" 0 len

let test_mlock_multi_page_range () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"p" in
  let addr = Kernel.memalign k p ~bytes:(3 * 4096) in
  Kernel.mlock k p ~addr ~len:(3 * 4096);
  for i = 0 to 2 do
    let pfn = Option.get (Kernel.pfn_of_vaddr k p (addr + (i * 4096))) in
    Alcotest.(check bool) (Printf.sprintf "page %d locked" i) true
      (Memguard_vmm.Phys_mem.page (Kernel.mem k) pfn).Memguard_vmm.Page.locked
  done

let test_free_list_fragmentation_reuse () =
  let k = Kernel.create ~config () in
  let p = Kernel.spawn k ~name:"p" in
  let blocks = List.init 20 (fun _ -> Kernel.malloc k p 48) in
  (* free every other block, then allocate same-size blocks: they must land
     in the holes, not push brk *)
  let brk_before = p.Proc.brk in
  List.iteri (fun i a -> if i mod 2 = 0 then Kernel.free k p a) blocks;
  let again = List.init 10 (fun _ -> Kernel.malloc k p 48) in
  Alcotest.(check int) "brk unchanged" brk_before p.Proc.brk;
  List.iter (fun a -> Kernel.write_mem k p ~addr:a (String.make 48 'y')) again

let suite =
  [ ( "bn_division_edges",
      [ Alcotest.test_case "crafted extremes" `Quick test_divmod_crafted_extremes;
        Alcotest.test_case "add-back trigger" `Quick test_divmod_hackers_delight_addback;
        Alcotest.test_case "equal operands" `Quick test_divmod_equal_operands;
        Alcotest.test_case "off-by-one boundaries" `Quick test_divmod_off_by_one_boundaries
      ] );
    ( "bn_misc_edges",
      [ Alcotest.test_case "to_int too large" `Quick test_bn_to_int_too_large;
        Alcotest.test_case "negative shift" `Quick test_bn_negative_shift;
        Alcotest.test_case "mod_pow invalid" `Quick test_bn_mod_pow_invalid;
        Alcotest.test_case "mod 1" `Quick test_bn_mod_pow_one_modulus;
        Alcotest.test_case "random_below 1" `Quick test_bn_random_below_one;
        Alcotest.test_case "egcd zeros" `Quick test_bn_egcd_zero_cases
      ] );
    ( "decoder_fuzz",
      [ QCheck_alcotest.to_alcotest prop_asn1_decode_never_raises;
        QCheck_alcotest.to_alcotest prop_asn1_truncations_never_raise;
        QCheck_alcotest.to_alcotest prop_pem_decode_never_raises;
        QCheck_alcotest.to_alcotest prop_base64_decode_never_raises;
        QCheck_alcotest.to_alcotest prop_rsa_priv_of_der_never_raises
      ] );
    ( "kernel_edges",
      [ Alcotest.test_case "cow after peer exit" `Quick test_cow_write_after_peer_exit;
        Alcotest.test_case "deep fork chain" `Quick test_deep_fork_chain;
        Alcotest.test_case "read unmapped gap" `Quick test_read_unmapped_gap;
        Alcotest.test_case "malloc evicts cache" `Quick test_malloc_evicts_page_cache_before_oom;
        Alcotest.test_case "zero-length file" `Quick test_zero_length_file;
        Alcotest.test_case "mlock multi-page" `Quick test_mlock_multi_page_range;
        Alcotest.test_case "fragmentation reuse" `Quick test_free_list_fragmentation_reuse
      ] )
  ]

(* ---- heap allocator model property ---- *)

let prop_malloc_model =
  QCheck.Test.make ~name:"malloc: aligned, disjoint, page-confined sub-page allocations"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let k = Kernel.create ~config:{ Kernel.default_config with num_pages = 512 } () in
      let p = Kernel.spawn k ~name:"m" in
      let live = Hashtbl.create 32 in
      let ok = ref true in
      for _ = 1 to 300 do
        if Prng.bool rng || Hashtbl.length live = 0 then begin
          let size = 1 + Prng.int rng 6000 in
          match Kernel.malloc k p size with
          | addr ->
            if addr land 15 <> 0 then ok := false;
            (* sub-page allocations may not straddle a page boundary *)
            if size <= 4096 && addr / 4096 <> (addr + size - 1) / 4096 then ok := false;
            (* no overlap with any live allocation *)
            Hashtbl.iter
              (fun a s ->
                if addr < a + s && a < addr + size then ok := false)
              live;
            Hashtbl.replace live addr size;
            (* the whole range must be writable *)
            Kernel.write_mem k p ~addr (String.make size 'w')
          | exception Kernel.Out_of_memory -> ()
        end
        else begin
          let addrs = Hashtbl.fold (fun a _ acc -> a :: acc) live [] in
          let a = List.nth addrs (Prng.int rng (List.length addrs)) in
          Hashtbl.remove live a;
          Kernel.free k p a
        end
      done;
      (* all surviving allocations still hold their data boundaries:
         write a marker to each and read it back *)
      Hashtbl.iter
        (fun a s ->
          Kernel.write_mem k p ~addr:a (String.make (min s 16) 'z');
          if Kernel.read_mem k p ~addr:a ~len:(min s 16) <> String.make (min s 16) 'z' then
            ok := false)
        live;
      !ok && Kernel.check_invariants k = Ok ())

let model_suite = ("kernel_malloc_model", [ QCheck_alcotest.to_alcotest prop_malloc_model ])

let suite = suite @ [ model_suite ]
