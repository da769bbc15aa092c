open Memguard_kernel
open Memguard_vmm
open Memguard_util

let small_config = { Kernel.default_config with num_pages = 256 }

let make ?(config = small_config) () = Kernel.create ~config ()

let check_inv k =
  match Kernel.check_invariants k with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("kernel invariant: " ^ e)

(* ---- fs ---- *)

let test_fs_roundtrip () =
  let fs = Fs.create () in
  let ino = Fs.write_file fs ~path:"/etc/key.pem" "SECRET" in
  Alcotest.(check (option string)) "read" (Some "SECRET") (Option.bind (Fs.ino_of_path fs "/etc/key.pem") (Fs.content_of_ino fs));
  Alcotest.(check (option int)) "ino" (Some ino) (Fs.ino_of_path fs "/etc/key.pem");
  Alcotest.(check (option string)) "by ino" (Some "SECRET") (Fs.content_of_ino fs ino)

let test_fs_overwrite_keeps_ino () =
  let fs = Fs.create () in
  let i1 = Fs.write_file fs ~path:"/a" "x" in
  let i2 = Fs.write_file fs ~path:"/a" "y" in
  Alcotest.(check int) "same ino" i1 i2;
  Alcotest.(check (option string)) "new content" (Some "y") (Option.bind (Fs.ino_of_path fs "/a") (Fs.content_of_ino fs))

let test_fs_remove () =
  let fs = Fs.create () in
  ignore (Fs.write_file fs ~path:"/a" "x");
  Alcotest.(check bool) "removed" true (Fs.remove fs ~path:"/a");
  Alcotest.(check bool) "gone" false (Fs.ino_of_path fs "/a" <> None);
  Alcotest.(check bool) "remove missing" false (Fs.remove fs ~path:"/a")

(* ---- swap device ---- *)

let test_swap_store_load () =
  let sw = Swap.create ~slots:4 ~page_size:64 () in
  let content = String.init 64 (fun i -> Char.chr (i + 32)) in
  let slot = Option.get (Swap.store sw content) in
  Alcotest.(check string) "load" content (Swap.load sw slot);
  Alcotest.(check int) "used" 1 (Swap.used_slots sw)

let test_swap_full () =
  let sw = Swap.create ~slots:2 ~page_size:8 () in
  ignore (Swap.store sw "aaaaaaaa");
  ignore (Swap.store sw "bbbbbbbb");
  Alcotest.(check bool) "full" true (Swap.store sw "cccccccc" = None)

let test_swap_release_keeps_content () =
  let sw = Swap.create ~slots:2 ~page_size:8 () in
  let slot = Option.get (Swap.store sw "KEYKEYKE") in
  Swap.release sw slot;
  (* the stale copy is still on the device — the attack surface *)
  Alcotest.(check bool) "stale data on device" true
    (Bytes_util.find_first ~needle:"KEYKEYKE" (Swap.raw sw) <> None)

(* ---- process memory ---- *)

let test_malloc_write_read () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let addr = Kernel.malloc k p 100 in
  Kernel.write_mem k p ~addr "hello kernel";
  Alcotest.(check string) "read back" "hello kernel" (Kernel.read_mem k p ~addr ~len:12);
  check_inv k

let test_malloc_alignment_and_distinct () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let a = Kernel.malloc k p 10 in
  let b = Kernel.malloc k p 10 in
  Alcotest.(check int) "16-aligned a" 0 (a land 15);
  Alcotest.(check int) "16-aligned b" 0 (b land 15);
  Alcotest.(check bool) "non-overlapping" true (abs (a - b) >= 16)

let test_malloc_cross_page () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let addr = Kernel.malloc k p (3 * 4096) in
  let data = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
  Kernel.write_mem k p ~addr:(addr + 1000) data;
  Alcotest.(check string) "cross-page rw" data (Kernel.read_mem k p ~addr:(addr + 1000) ~len:8192)

let test_anon_pages_zeroed () =
  let k = make () in
  let p = Kernel.spawn k ~name:"a" in
  let addr = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr "GHOST";
  Kernel.exit k p;
  (* frame now free, content stale in physical memory *)
  let p2 = Kernel.spawn k ~name:"b" in
  let addr2 = Kernel.malloc k p2 4096 in
  (* but anon pages are demand-zeroed before userspace sees them *)
  Alcotest.(check string) "zeroed at fault" "\000\000\000\000\000"
    (Kernel.read_mem k p2 ~addr:addr2 ~len:5)

let test_free_reuses_memory () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let a = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr:a "stale-content!";
  Kernel.free k p a;
  let b = Kernel.malloc k p 64 in
  Alcotest.(check int) "free run reused" a b;
  (* vanilla allocator: recycled memory is NOT cleared *)
  Alcotest.(check string) "stale survives" "stale-content!" (Kernel.read_mem k p ~addr:b ~len:14)

let test_secure_dealloc_zeroes () =
  let k = make ~config:{ small_config with secure_dealloc = true } () in
  let p = Kernel.spawn k ~name:"app" in
  let a = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr:a "sensitive-bytes";
  Kernel.free k p a;
  let b = Kernel.malloc k p 64 in
  Alcotest.(check int) "reused" a b;
  Alcotest.(check string) "zeroed at free" (String.make 15 '\000')
    (Kernel.read_mem k p ~addr:b ~len:15)

let test_double_free_rejected () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let a = Kernel.malloc k p 64 in
  Kernel.free k p a;
  Alcotest.check_raises "double free" (Invalid_argument "Kernel.free: not an allocation")
    (fun () -> Kernel.free k p a)

let test_memalign_page_aligned () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let _ = Kernel.malloc k p 100 in
  let a = Kernel.memalign k p ~bytes:100 in
  Alcotest.(check int) "page aligned" 0 (a mod 4096);
  Alcotest.(check (option int)) "covers whole page" (Some 4096) (Kernel.alloc_size k p a);
  Kernel.write_mem k p ~addr:a "aligned";
  Alcotest.(check string) "usable" "aligned" (Kernel.read_mem k p ~addr:a ~len:7)

let test_segfault () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  (match Kernel.read_mem k p ~addr:0 ~len:1 with
   | _ -> Alcotest.fail "expected segfault"
   | exception Kernel.Segfault _ -> ())

(* ---- fork / COW ---- *)

let test_fork_shares_frames () =
  let k = make () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p 100 in
  Kernel.write_mem k p ~addr "shared-data";
  let before = (Kernel.stats k).Kernel.allocated_pages in
  let c = Kernel.fork k p in
  let after = (Kernel.stats k).Kernel.allocated_pages in
  Alcotest.(check int) "fork allocates no frames" before after;
  Alcotest.(check string) "child sees data" "shared-data" (Kernel.read_mem k c ~addr ~len:11);
  Alcotest.(check (option int)) "same frame" (Kernel.pfn_of_vaddr k p addr)
    (Kernel.pfn_of_vaddr k c addr);
  check_inv k

let test_cow_isolation () =
  let k = make () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p 100 in
  Kernel.write_mem k p ~addr "original00";
  let c = Kernel.fork k p in
  Kernel.write_mem k c ~addr "childchild";
  Alcotest.(check string) "parent unchanged" "original00" (Kernel.read_mem k p ~addr ~len:10);
  Alcotest.(check string) "child changed" "childchild" (Kernel.read_mem k c ~addr ~len:10);
  Alcotest.(check bool) "frames now differ" true
    (Kernel.pfn_of_vaddr k p addr <> Kernel.pfn_of_vaddr k c addr);
  check_inv k

let test_cow_parent_write () =
  let k = make () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p 100 in
  Kernel.write_mem k p ~addr "original00";
  let c = Kernel.fork k p in
  Kernel.write_mem k p ~addr "parentnew0";
  Alcotest.(check string) "child keeps original" "original00" (Kernel.read_mem k c ~addr ~len:10);
  Alcotest.(check string) "parent sees new" "parentnew0" (Kernel.read_mem k p ~addr ~len:10);
  check_inv k

let test_cow_copy_only_touched_pages () =
  let k = make () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p (4 * 4096) in
  Kernel.write_mem k p ~addr (String.make (4 * 4096) 'x');
  let c = Kernel.fork k p in
  let before = (Kernel.stats k).Kernel.allocated_pages in
  (* child writes one byte on one page *)
  Kernel.write_mem k c ~addr:(addr + 4096) "y";
  let after = (Kernel.stats k).Kernel.allocated_pages in
  Alcotest.(check int) "exactly one page copied" 1 (after - before);
  check_inv k

let test_fork_chain_refcounts () =
  let k = make () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p 10 in
  Kernel.write_mem k p ~addr "x";
  let c1 = Kernel.fork k p in
  let c2 = Kernel.fork k p in
  let c3 = Kernel.fork k c1 in
  let pfn = Option.get (Kernel.pfn_of_vaddr k p addr) in
  Alcotest.(check int) "refcount 4" 4 (Phys_mem.page (Kernel.mem k) pfn).Page.refcount;
  Alcotest.(check (list int)) "rmap has all pids"
    [ p.Proc.pid; c1.Proc.pid; c2.Proc.pid; c3.Proc.pid ]
    (Helpers.owner_table k).(pfn);
  Kernel.exit k c1;
  Kernel.exit k c3;
  Alcotest.(check int) "refcount 2" 2 (Phys_mem.page (Kernel.mem k) pfn).Page.refcount;
  check_inv k

(* a heap growth that runs out of frames must leave the break and the free
   list as they were: a gap it had queued past the mapped pages would be
   handed to a later malloc and fault on first use *)
let test_heap_growth_rolls_back_on_enomem () =
  let k = make ~config:{ Kernel.default_config with num_pages = 64 } () in
  let p = Kernel.spawn k ~name:"app" in
  ignore (Kernel.malloc k p 100);
  let hog = Kernel.spawn k ~name:"hog" in
  (try
     while true do
       ignore (Kernel.malloc k hog 4096)
     done
   with Kernel.Out_of_memory -> ());
  let brk = p.Proc.brk and free_list = p.Proc.free_list in
  List.iter
    (fun (name, grow) ->
      Alcotest.check_raises name Kernel.Out_of_memory (fun () -> ignore (grow ()));
      Alcotest.(check int) (name ^ ": break unchanged") brk p.Proc.brk;
      Alcotest.(check bool) (name ^ ": free list unchanged") true (p.Proc.free_list = free_list))
    [ ("straddling malloc", fun () -> Kernel.malloc k p 4000);
      ("memalign", fun () -> Kernel.memalign k p ~bytes:8192)
    ];
  let addr = Kernel.malloc k p 16 in
  Kernel.write_mem k p ~addr "mapped";
  check_inv k

let test_exit_frees_frames () =
  let k = make () in
  let before = (Kernel.stats k).Kernel.free_pages in
  let p = Kernel.spawn k ~name:"app" in
  let addr = Kernel.malloc k p (8 * 4096) in
  Kernel.write_mem k p ~addr (String.make 100 'z');
  Kernel.exit k p;
  Alcotest.(check int) "all frames back" before (Kernel.stats k).Kernel.free_pages;
  Alcotest.(check int) "no procs" 0 (Kernel.stats k).Kernel.live_proc_count;
  check_inv k

let test_exit_leaves_stale_data () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "EXITGHOST";
  let pfn = Option.get (Kernel.pfn_of_vaddr k p addr) in
  Kernel.exit k p;
  Alcotest.(check bool) "frame is free" true (Page.is_free (Phys_mem.page (Kernel.mem k) pfn));
  Alcotest.(check bool) "stale data in free frame" true
    (Bytes_util.find_first ~needle:"EXITGHOST" (Phys_mem.raw (Kernel.mem k)) <> None)

let test_exit_zero_on_free_clears () =
  let k = make ~config:{ small_config with zero_on_free = true } () in
  let p = Kernel.spawn k ~name:"app" in
  let addr = Kernel.malloc k p 64 in
  Kernel.write_mem k p ~addr "EXITGHOST";
  Kernel.exit k p;
  Alcotest.(check bool) "no stale data anywhere" true
    (Bytes_util.find_first ~needle:"EXITGHOST" (Phys_mem.raw (Kernel.mem k)) = None)

let test_shared_frame_freed_only_at_last_exit () =
  let k = make () in
  let p = Kernel.spawn k ~name:"srv" in
  let addr = Kernel.malloc k p 10 in
  Kernel.write_mem k p ~addr "x";
  let pfn = Option.get (Kernel.pfn_of_vaddr k p addr) in
  let c = Kernel.fork k p in
  Kernel.exit k p;
  Alcotest.(check bool) "still live" false (Page.is_free (Phys_mem.page (Kernel.mem k) pfn));
  Alcotest.(check string) "child still reads" "x" (Kernel.read_mem k c ~addr ~len:1);
  Kernel.exit k c;
  Alcotest.(check bool) "now free" true (Page.is_free (Phys_mem.page (Kernel.mem k) pfn));
  check_inv k

(* ---- mlock ---- *)

let test_mlock_sets_flags () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let a = Kernel.memalign k p ~bytes:4096 in
  Kernel.mlock k p ~addr:a ~len:4096;
  let pfn = Option.get (Kernel.pfn_of_vaddr k p a) in
  Alcotest.(check bool) "frame locked" true (Phys_mem.page (Kernel.mem k) pfn).Page.locked

let test_mlock_survives_cow () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let a = Kernel.memalign k p ~bytes:4096 in
  Kernel.mlock k p ~addr:a ~len:4096;
  let c = Kernel.fork k p in
  Kernel.write_mem k c ~addr:a "child";
  let pfn = Option.get (Kernel.pfn_of_vaddr k c a) in
  Alcotest.(check bool) "COW copy inherits lock" true
    (Phys_mem.page (Kernel.mem k) pfn).Page.locked

(* ---- files and page cache ---- *)

let test_read_file_populates_cache () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  ignore (Kernel.write_file k ~path:"/key.pem" "PEMCONTENT-0123456789");
  let addr, len = Kernel.read_file k p ~path:"/key.pem" ~nocache:false in
  Alcotest.(check int) "length" 21 len;
  Alcotest.(check string) "content in user buffer" "PEMCONTENT-0123456789"
    (Kernel.read_mem k p ~addr ~len);
  Alcotest.(check int) "one cached frame" 1 (Kernel.stats k).Kernel.cached_frames;
  (* the file content is now in physical RAM twice: cache + user buffer *)
  Alcotest.(check int) "two physical copies" 2
    (Bytes_util.count ~needle:"PEMCONTENT-0123456789" (Phys_mem.raw (Kernel.mem k)))

let test_read_file_nocache () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  ignore (Kernel.write_file k ~path:"/key.pem" "PEMCONTENT-0123456789");
  let addr, len = Kernel.read_file k p ~path:"/key.pem" ~nocache:true in
  Alcotest.(check string) "content delivered" "PEMCONTENT-0123456789"
    (Kernel.read_mem k p ~addr ~len);
  Alcotest.(check int) "no cached frames" 0 (Kernel.stats k).Kernel.cached_frames;
  Alcotest.(check int) "single physical copy" 1
    (Bytes_util.count ~needle:"PEMCONTENT-0123456789" (Phys_mem.raw (Kernel.mem k)))

let test_read_file_cache_hit () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  ignore (Kernel.write_file k ~path:"/f" "cached-data");
  ignore (Kernel.read_file k p ~path:"/f" ~nocache:false);
  let frames_before = (Kernel.stats k).Kernel.cached_frames in
  ignore (Kernel.read_file k p ~path:"/f" ~nocache:false);
  Alcotest.(check int) "second read hits cache" frames_before
    (Kernel.stats k).Kernel.cached_frames

let test_read_file_missing () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  Alcotest.check_raises "missing file" Not_found (fun () ->
      ignore (Kernel.read_file k p ~path:"/nope" ~nocache:false))

let test_read_file_multipage () =
  let k = make () in
  let p = Kernel.spawn k ~name:"app" in
  let content = String.init 10000 (fun i -> Char.chr (32 + (i mod 90))) in
  ignore (Kernel.write_file k ~path:"/big" content);
  let addr, len = Kernel.read_file k p ~path:"/big" ~nocache:false in
  Alcotest.(check int) "len" 10000 len;
  Alcotest.(check string) "content" content (Kernel.read_mem k p ~addr ~len);
  Alcotest.(check int) "three cache pages" 3 (Kernel.stats k).Kernel.cached_frames

(* ---- ext2 leak ---- *)

let test_ext2_leak_discloses_freed_memory () =
  let k = make () in
  let p = Kernel.spawn k ~name:"victim" in
  let addr = Kernel.malloc k p 4096 in
  (* offset 100: the dirent header only covers the first 24 bytes *)
  Kernel.write_mem k p ~addr:(addr + 100) "LEAKED-SECRET-MATERIAL";
  Kernel.exit k p;
  (* create directories until the stale frame is handed to a dir block *)
  let found = ref false in
  for _ = 1 to 64 do
    let block = Kernel.ext2_mkdir_leak k in
    if Bytes_util.find_first ~needle:"LEAKED-SECRET-MATERIAL" (Bytes.of_string block) <> None
    then found := true
  done;
  Alcotest.(check bool) "attack recovers secret" true !found

let test_ext2_leak_defeated_by_zero_on_free () =
  let k = make ~config:{ small_config with zero_on_free = true } () in
  let p = Kernel.spawn k ~name:"victim" in
  let addr = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:(addr + 100) "LEAKED-SECRET-MATERIAL";
  Kernel.exit k p;
  let found = ref false in
  for _ = 1 to 64 do
    let block = Kernel.ext2_mkdir_leak k in
    if Bytes_util.find_first ~needle:"LEAKED-SECRET-MATERIAL" (Bytes.of_string block) <> None
    then found := true
  done;
  Alcotest.(check bool) "attack defeated" false !found

let test_ext2_leak_header_size () =
  let k = make () in
  let block = Kernel.ext2_mkdir_leak k in
  Alcotest.(check int) "block is one page" 4096 (String.length block)

(* ---- swap integration ---- *)

let swap_config = { Kernel.default_config with num_pages = 32; swap_slots = 64 }

let test_swap_out_under_pressure () =
  let k = make ~config:swap_config () in
  let p = Kernel.spawn k ~name:"hog" in
  let a1 = Kernel.malloc k p (20 * 4096) in
  Kernel.write_mem k p ~addr:a1 (String.make (20 * 4096) 'a');
  (* second process forces pressure; kernel must swap rather than OOM *)
  let p2 = Kernel.spawn k ~name:"second" in
  let a2 = Kernel.malloc k p2 (20 * 4096) in
  Kernel.write_mem k p2 ~addr:a2 (String.make (20 * 4096) 'b');
  Alcotest.(check bool) "swap used" true ((Kernel.stats k).Kernel.swap_slots_used > 0);
  (* both processes still see their data (transparent swap-in) *)
  Alcotest.(check string) "p data intact" "aaaa" (Kernel.read_mem k p ~addr:a1 ~len:4);
  Alcotest.(check string) "p2 data intact" "bbbb" (Kernel.read_mem k p2 ~addr:a2 ~len:4)

let test_mlock_prevents_swap () =
  let k = make ~config:swap_config () in
  let p = Kernel.spawn k ~name:"locked" in
  let a = Kernel.memalign k p ~bytes:4096 in
  Kernel.write_mem k p ~addr:a "PINNED-SECRET";
  Kernel.mlock k p ~addr:a ~len:4096;
  let p2 = Kernel.spawn k ~name:"hog" in
  (match Kernel.malloc k p2 (40 * 4096) with
   | addr -> Kernel.write_mem k p2 ~addr (String.make (40 * 4096) 'x')
   | exception Kernel.Out_of_memory -> ());
  (* the locked page must never reach the swap device *)
  (match Kernel.swap k with
   | Some sw ->
     Alcotest.(check bool) "secret not on swap device" true
       (Bytes_util.find_first ~needle:"PINNED-SECRET" (Swap.raw sw) = None)
   | None -> Alcotest.fail "swap expected");
  Alcotest.(check string) "still readable" "PINNED-SECRET" (Kernel.read_mem k p ~addr:a ~len:13)

let test_unlocked_secret_reaches_swap () =
  let k = make ~config:swap_config () in
  let p = Kernel.spawn k ~name:"victim" in
  let a = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:a "SWAPPED-SECRET";
  let p2 = Kernel.spawn k ~name:"hog" in
  (match Kernel.malloc k p2 (40 * 4096) with
   | addr -> Kernel.write_mem k p2 ~addr (String.make (40 * 4096) 'x')
   | exception Kernel.Out_of_memory -> ());
  match Kernel.swap k with
  | Some sw ->
    Alcotest.(check bool) "secret on swap device" true
      (Bytes_util.find_first ~needle:"SWAPPED-SECRET" (Swap.raw sw) <> None)
  | None -> Alcotest.fail "swap expected"

let test_oom_without_swap () =
  let k = make ~config:{ Kernel.default_config with num_pages = 16 } () in
  let p = Kernel.spawn k ~name:"hog" in
  Alcotest.check_raises "OOM" Kernel.Out_of_memory (fun () ->
      ignore (Kernel.malloc k p (64 * 4096)))

(* ---- property: random process workloads keep invariants ---- *)

let prop_kernel_random_workload =
  QCheck.Test.make ~name:"kernel invariants under random fork/write/exit" ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.of_int seed in
      let k = make () in
      let procs = ref [ Kernel.spawn k ~name:"init" ] in
      let allocs = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 120 do
        if !procs <> [] then begin
          let p = List.nth !procs (Prng.int rng (List.length !procs)) in
          match Prng.int rng 5 with
          | 0 ->
            if List.length !procs < 12 then procs := Kernel.fork k p :: !procs
          | 1 ->
            let size = 16 + Prng.int rng 6000 in
            (match Kernel.malloc k p size with
             | addr ->
               Hashtbl.replace allocs (p.Proc.pid, addr) size;
               Kernel.write_mem k p ~addr (Prng.bytes rng (min size 64) |> Bytes.to_string)
             | exception Kernel.Out_of_memory -> ())
          | 2 ->
            let mine =
              Hashtbl.fold (fun (pid, a) s acc -> if pid = p.Proc.pid then (a, s) :: acc else acc)
                allocs []
            in
            (match mine with
             | [] -> ()
             | l ->
               let a, _ = List.nth l (Prng.int rng (List.length l)) in
               Kernel.free k p a;
               Hashtbl.remove allocs (p.Proc.pid, a))
          | 3 ->
            let mine =
              Hashtbl.fold (fun (pid, a) s acc -> if pid = p.Proc.pid then (a, s) :: acc else acc)
                allocs []
            in
            (match mine with
             | [] -> ()
             | l ->
               let a, s = List.nth l (Prng.int rng (List.length l)) in
               let data = Prng.bytes rng (min s 128) |> Bytes.to_string in
               Kernel.write_mem k p ~addr:a data)
          | _ ->
            if List.length !procs > 1 then begin
              Kernel.exit k p;
              procs := List.filter (fun q -> q != p) !procs;
              Hashtbl.iter
                (fun (pid, a) _ -> if pid = p.Proc.pid then Hashtbl.remove allocs (pid, a))
                (Hashtbl.copy allocs)
            end
        end;
        if Kernel.check_invariants k <> Ok () then ok := false
      done;
      List.iter (fun p -> Kernel.exit k p) !procs;
      !ok && Kernel.check_invariants k = Ok ()
      && (Kernel.stats k).Kernel.free_pages = 256)

let suite =
  [ ( "fs",
      [ Alcotest.test_case "roundtrip" `Quick test_fs_roundtrip;
        Alcotest.test_case "overwrite keeps ino" `Quick test_fs_overwrite_keeps_ino;
        Alcotest.test_case "remove" `Quick test_fs_remove
      ] );
    ( "swap_device",
      [ Alcotest.test_case "store/load" `Quick test_swap_store_load;
        Alcotest.test_case "full" `Quick test_swap_full;
        Alcotest.test_case "release keeps content" `Quick test_swap_release_keeps_content
      ] );
    ( "kernel_memory",
      [ Alcotest.test_case "malloc rw" `Quick test_malloc_write_read;
        Alcotest.test_case "alignment" `Quick test_malloc_alignment_and_distinct;
        Alcotest.test_case "cross page" `Quick test_malloc_cross_page;
        Alcotest.test_case "anon zeroed" `Quick test_anon_pages_zeroed;
        Alcotest.test_case "free reuses (stale)" `Quick test_free_reuses_memory;
        Alcotest.test_case "secure dealloc zeroes" `Quick test_secure_dealloc_zeroes;
        Alcotest.test_case "double free" `Quick test_double_free_rejected;
        Alcotest.test_case "memalign" `Quick test_memalign_page_aligned;
        Alcotest.test_case "heap growth rolls back on ENOMEM" `Quick
          test_heap_growth_rolls_back_on_enomem;
        Alcotest.test_case "segfault" `Quick test_segfault
      ] );
    ( "kernel_fork",
      [ Alcotest.test_case "fork shares frames" `Quick test_fork_shares_frames;
        Alcotest.test_case "cow isolation" `Quick test_cow_isolation;
        Alcotest.test_case "cow parent write" `Quick test_cow_parent_write;
        Alcotest.test_case "cow granular" `Quick test_cow_copy_only_touched_pages;
        Alcotest.test_case "fork chain refcounts" `Quick test_fork_chain_refcounts;
        Alcotest.test_case "exit frees" `Quick test_exit_frees_frames;
        Alcotest.test_case "exit leaves stale" `Quick test_exit_leaves_stale_data;
        Alcotest.test_case "exit + zero_on_free" `Quick test_exit_zero_on_free_clears;
        Alcotest.test_case "shared freed at last exit" `Quick test_shared_frame_freed_only_at_last_exit
      ] );
    ( "kernel_mlock",
      [ Alcotest.test_case "mlock flags" `Quick test_mlock_sets_flags;
        Alcotest.test_case "mlock survives cow" `Quick test_mlock_survives_cow
      ] );
    ( "kernel_files",
      [ Alcotest.test_case "read populates cache" `Quick test_read_file_populates_cache;
        Alcotest.test_case "O_NOCACHE" `Quick test_read_file_nocache;
        Alcotest.test_case "cache hit" `Quick test_read_file_cache_hit;
        Alcotest.test_case "missing file" `Quick test_read_file_missing;
        Alcotest.test_case "multipage file" `Quick test_read_file_multipage
      ] );
    ( "kernel_ext2",
      [ Alcotest.test_case "leak discloses" `Quick test_ext2_leak_discloses_freed_memory;
        Alcotest.test_case "zero_on_free defeats" `Quick test_ext2_leak_defeated_by_zero_on_free;
        Alcotest.test_case "block size" `Quick test_ext2_leak_header_size
      ] );
    ( "kernel_swap",
      [ Alcotest.test_case "swap under pressure" `Quick test_swap_out_under_pressure;
        Alcotest.test_case "mlock prevents swap" `Quick test_mlock_prevents_swap;
        Alcotest.test_case "unlocked reaches swap" `Quick test_unlocked_secret_reaches_swap;
        Alcotest.test_case "oom without swap" `Quick test_oom_without_swap
      ] );
    ("kernel_props", [ QCheck_alcotest.to_alcotest prop_kernel_random_workload ])
  ]

(* ---- page-cache LRU reclaim ---- *)

let test_pagecache_lru_eviction_order () =
  let k = make () in
  let pc = Kernel.page_cache k in
  let i1 = Kernel.write_file k ~path:"/f1" "oldest-file-data" in
  let i2 = Kernel.write_file k ~path:"/f2" "newest-file-data" in
  let p = Kernel.spawn k ~name:"reader" in
  ignore (Kernel.read_file k p ~path:"/f1" ~nocache:false);
  ignore (Kernel.read_file k p ~path:"/f2" ~nocache:false);
  (* touch f1 again: f2 becomes the LRU *)
  ignore (Kernel.read_file k p ~path:"/f1" ~nocache:false);
  Alcotest.(check bool) "evicts something" true (Page_cache.evict_lru pc);
  Alcotest.(check bool) "f1 survives (recently used)" true
    (Page_cache.lookup pc ~ino:i1 ~index:0 <> None);
  Alcotest.(check bool) "f2 evicted" true (Page_cache.lookup pc ~ino:i2 ~index:0 = None)

let test_pagecache_lru_reclaim_leaves_stale_content () =
  let k = make () in
  let pc = Kernel.page_cache k in
  ignore (Kernel.write_file k ~path:"/secret" "CACHED-FILE-SECRET");
  let p = Kernel.spawn k ~name:"reader" in
  let buf, len = Kernel.read_file k p ~path:"/secret" ~nocache:false in
  Kernel.zero_mem k p ~addr:buf ~len;
  Alcotest.(check bool) "evicted" true (Page_cache.evict_lru pc);
  (* vanilla reclaim does not clear: the file text is readable in free memory *)
  Alcotest.(check int) "stale copy in free memory" 1
    (Bytes_util.count ~needle:"CACHED-FILE-SECRET" (Phys_mem.raw (Kernel.mem k)))

let test_pagecache_pressure_evicts_lru_not_all () =
  let k = make ~config:{ Kernel.default_config with num_pages = 64 } () in
  ignore (Kernel.write_file k ~path:"/a" "aaaa");
  ignore (Kernel.write_file k ~path:"/b" "bbbb");
  let p = Kernel.spawn k ~name:"reader" in
  ignore (Kernel.read_file k p ~path:"/a" ~nocache:false);
  ignore (Kernel.read_file k p ~path:"/b" ~nocache:false);
  Alcotest.(check int) "two cached" 2 (Kernel.stats k).Kernel.cached_frames;
  (* memory pressure: a big allocation forces reclaim, one page at a time *)
  let hog = Kernel.spawn k ~name:"hog" in
  let free = (Kernel.stats k).Kernel.free_pages in
  ignore (Kernel.malloc k hog ((free + 1) * 4096));
  Alcotest.(check int) "only the LRU page went" 1 (Kernel.stats k).Kernel.cached_frames

let test_pagecache_empty_evict () =
  let k = make () in
  Alcotest.(check bool) "nothing to evict" false (Page_cache.evict_lru (Kernel.page_cache k))

let lru_suite =
  ( "page_cache_lru",
    [ Alcotest.test_case "LRU order" `Quick test_pagecache_lru_eviction_order;
      Alcotest.test_case "reclaim leaves stale" `Quick test_pagecache_lru_reclaim_leaves_stale_content;
      Alcotest.test_case "pressure evicts one" `Quick test_pagecache_pressure_evicts_lru_not_all;
      Alcotest.test_case "empty" `Quick test_pagecache_empty_evict
    ] )

let suite = suite @ [ lru_suite ]

(* ---- swap encryption (Provos) ---- *)

let swap_enc_config =
  { Kernel.default_config with num_pages = 32; swap_slots = 64; swap_encrypt = true }

let test_swap_encrypt_roundtrip () =
  let k = make ~config:swap_enc_config () in
  let p = Kernel.spawn k ~name:"victim" in
  let a = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:a "ROUNDTRIP-THROUGH-ENCRYPTED-SWAP";
  let hog = Kernel.spawn k ~name:"hog" in
  (match Kernel.malloc k hog (40 * 4096) with
   | addr -> Kernel.write_mem k hog ~addr (String.make (40 * 4096) 'x')
   | exception Kernel.Out_of_memory -> ());
  Alcotest.(check bool) "swap used" true ((Kernel.stats k).Kernel.swap_slots_used > 0);
  (* transparent decrypt on access *)
  Alcotest.(check string) "data intact" "ROUNDTRIP-THROUGH-ENCRYPTED-SWAP"
    (Kernel.read_mem k p ~addr:a ~len:32)

let test_swap_encrypt_hides_content () =
  let k = make ~config:swap_enc_config () in
  let p = Kernel.spawn k ~name:"victim" in
  let a = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:a "SWAPPED-SECRET-E";
  let hog = Kernel.spawn k ~name:"hog" in
  (match Kernel.malloc k hog (40 * 4096) with
   | addr -> Kernel.write_mem k hog ~addr (String.make (40 * 4096) 'x')
   | exception Kernel.Out_of_memory -> ());
  (match Kernel.swap k with
   | Some sw ->
     Alcotest.(check bool) "device is not empty" true (Swap.used_slots sw > 0);
     Alcotest.(check bool) "plaintext absent from device" true
       (Bytes_util.find_first ~needle:"SWAPPED-SECRET-E" (Swap.raw sw) = None)
   | None -> Alcotest.fail "swap expected")

let swap_enc_suite =
  ( "kernel_swap_encrypt",
    [ Alcotest.test_case "roundtrip" `Quick test_swap_encrypt_roundtrip;
      Alcotest.test_case "hides content" `Quick test_swap_encrypt_hides_content
    ] )

let suite = suite @ [ swap_enc_suite ]

(* ---- fs extras ---- *)

let test_fs_list_paths () =
  let fs = Fs.create () in
  ignore (Fs.write_file fs ~path:"/b" "2");
  ignore (Fs.write_file fs ~path:"/a" "1");
  ignore (Fs.write_file fs ~path:"/c" "3");
  Alcotest.(check (list string)) "sorted" [ "/a"; "/b"; "/c" ] (Fs.list_paths fs);
  ignore (Fs.remove fs ~path:"/b");
  Alcotest.(check (list string)) "after remove" [ "/a"; "/c" ] (Fs.list_paths fs)

let fs_extra = ("fs_extra", [ Alcotest.test_case "list_paths" `Quick test_fs_list_paths ])

let suite = suite @ [ fs_extra ]

(* ---- regressions: kernel bugs found by the chaos campaigns ---- *)

(* fork under swap pressure: the old implementation swapped every parent
   page in with a one-shot prologue walk, but each swap-in can itself force
   a swap-out that re-swaps a page the walk had already passed — and the
   COW-sharing loop then silently dropped that mapping from the child.
   The fix re-resolves each PTE at share time. *)
let test_fork_under_swap_pressure () =
  let k = make ~config:{ Kernel.default_config with num_pages = 32; swap_slots = 64 } () in
  let ps = 4096 in
  let parent = Kernel.spawn k ~name:"parent" in
  let addr = Kernel.malloc k parent (8 * ps) in
  let tag i = Printf.sprintf "PARENT-PAGE-%d" i in
  for i = 0 to 7 do
    Kernel.write_mem k parent ~addr:(addr + (i * ps)) (tag i)
  done;
  (* squeeze RAM so part of the parent's address space sits on swap *)
  let hog = Kernel.spawn k ~name:"hog" in
  ignore (Kernel.malloc k hog (30 * ps));
  Alcotest.(check bool) "parent partially swapped" true
    ((Kernel.stats k).Kernel.swap_slots_used > 0);
  let child = Kernel.fork k parent in
  check_inv k;
  (* every page must be readable in BOTH processes with intact content *)
  for i = 0 to 7 do
    Alcotest.(check string) (Printf.sprintf "child page %d" i) (tag i)
      (Kernel.read_mem k child ~addr:(addr + (i * ps)) ~len:(String.length (tag i)));
    Alcotest.(check string) (Printf.sprintf "parent page %d" i) (tag i)
      (Kernel.read_mem k parent ~addr:(addr + (i * ps)) ~len:(String.length (tag i)))
  done;
  check_inv k

(* read_file on a full machine: a failed page-cache insert used to raise
   Out_of_memory immediately instead of reclaiming (swap out / evict
   another cached page) and retrying like alloc_frame does. *)
let test_read_file_reclaims_on_pressure () =
  let k = make ~config:{ Kernel.default_config with num_pages = 16 } () in
  let ps = 4096 in
  let page_text c = String.make ps c in
  ignore (Kernel.write_file k ~path:"/big_a" (String.concat "" (List.init 6 (fun i -> page_text (Char.chr (Char.code 'a' + i))))));
  let content_b = String.concat "" (List.init 5 (fun i -> page_text (Char.chr (Char.code 'p' + i)))) in
  ignore (Kernel.write_file k ~path:"/big_b" content_b);
  let p = Kernel.spawn k ~name:"reader" in
  (* file A: 6 cache frames + a 6-page buffer = 12 of 16 frames *)
  ignore (Kernel.read_file k p ~path:"/big_a" ~nocache:false);
  (* file B needs 10 more frames with only 4 free: the page cache must
     recycle A's pages, not OOM *)
  let buf, len = Kernel.read_file k p ~path:"/big_b" ~nocache:false in
  Alcotest.(check int) "full length" (5 * ps) len;
  Alcotest.(check string) "content intact" content_b (Kernel.read_mem k p ~addr:buf ~len);
  check_inv k

(* cow_break: when the only locked mapper of a shared frame departs to its
   private copy, the source frame must not stay flagged locked — a stale
   flag pins another process's page forever (it can never swap out). *)
let test_cow_break_releases_stale_lock () =
  let k = make () in
  let p = Kernel.spawn k ~name:"p" in
  let a = Kernel.malloc k p 4096 in
  Kernel.write_mem k p ~addr:a "SHARED-SOURCE";
  let c = Kernel.fork k p in
  (* the CHILD locks the shared page; the parent's PTE stays unlocked *)
  Kernel.mlock k c ~addr:a ~len:4096;
  let src_pfn = Option.get (Kernel.pfn_of_vaddr k p a) in
  Alcotest.(check bool) "shared frame pinned" true
    (Phys_mem.page (Kernel.mem k) src_pfn).Page.locked;
  (* child writes: COW break moves the locked mapping to a private frame *)
  Kernel.write_mem k c ~addr:a "CHILD-PRIVATE";
  let dst_pfn = Option.get (Kernel.pfn_of_vaddr k c a) in
  Alcotest.(check bool) "child frame pinned" true
    (Phys_mem.page (Kernel.mem k) dst_pfn).Page.locked;
  Alcotest.(check bool) "source frame released" false
    (Phys_mem.page (Kernel.mem k) src_pfn).Page.locked;
  check_inv k

let regression_suite =
  ( "kernel_regressions",
    [ Alcotest.test_case "fork under swap pressure" `Quick test_fork_under_swap_pressure;
      Alcotest.test_case "read_file reclaims" `Quick test_read_file_reclaims_on_pressure;
      Alcotest.test_case "cow_break stale lock" `Quick test_cow_break_releases_stale_lock
    ] )

let suite = suite @ [ regression_suite ]
