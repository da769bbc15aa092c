open Memguard_kernel
open Memguard_apps
open Memguard_ssl
open Memguard_scan
open Memguard_util
module Rsa = Memguard_crypto.Rsa

let key = lazy (Rsa.generate (Prng.of_int 31337) ~bits:256)

let config = { Kernel.default_config with num_pages = 2048 }

let setup ?(zero_on_free = false) () =
  let k = Kernel.create ~config:{ config with zero_on_free } () in
  let priv = Lazy.force key in
  ignore (Ssl.write_key_file k ~path:"/etc/ssh/host_key.pem" priv);
  (k, priv)

let patterns priv = Scanner.key_patterns ~pem:(Rsa.pem_of_priv priv) priv

let count k priv =
  Report.of_hits ~time:0 (Scanner.scan k ~patterns:(patterns priv))

let protected_opts =
  { Sshd.no_reexec = true; ssl_mode = Ssl.Hardened; nocache = true }

(* ---- sshd ---- *)

let test_sshd_starts_and_answers () =
  let k, _ = setup () in
  let rng = Prng.of_int 1 in
  let sshd = Sshd.start k ~key_path:"/etc/ssh/host_key.pem" Helpers.sshd_vanilla in
  let conn = Sshd.open_connection sshd rng in
  Sshd.transfer sshd conn rng ~kib:8;
  Alcotest.(check int) "one connection" 1 (Sshd.connection_count sshd);
  Sshd.close_connection sshd conn;
  Alcotest.(check int) "closed" 0 (Sshd.connection_count sshd);
  Sshd.stop sshd;
  Alcotest.check_raises "stopped" (Invalid_argument "Sshd.open_connection: server stopped")
    (fun () -> ignore (Sshd.open_connection sshd rng))

let test_sshd_vanilla_copies_grow_with_connections () =
  let k, priv = setup () in
  let rng = Prng.of_int 2 in
  let sshd = Sshd.start k ~key_path:"/etc/ssh/host_key.pem" Helpers.sshd_vanilla in
  let base = (count k priv).Report.total in
  let conns = List.init 6 (fun _ -> Sshd.open_connection sshd rng) in
  let with_conns = (count k priv).Report.total in
  Alcotest.(check bool)
    (Printf.sprintf "flooding: %d -> %d" base with_conns)
    true
    (with_conns >= base + 6);
  (* closing connections moves copies from allocated to unallocated *)
  List.iter (Sshd.close_connection sshd) conns;
  let after = count k priv in
  Alcotest.(check bool) "unallocated copies appear" true (after.Report.unallocated > 0)

let test_sshd_vanilla_reexec_reloads_key () =
  let k, priv = setup () in
  let rng = Prng.of_int 3 in
  let sshd = Sshd.start k ~key_path:"/etc/ssh/host_key.pem" Helpers.sshd_vanilla in
  let d_before = List.assoc_opt "d" (Report.by_label (count k priv)) in
  let conn = Sshd.open_connection sshd rng in
  let d_after = List.assoc_opt "d" (Report.by_label (count k priv)) in
  Alcotest.(check bool) "re-exec adds d copies" true
    (Option.value ~default:0 d_after >= Option.value ~default:0 d_before + 2);
  Sshd.close_connection sshd conn

let test_sshd_protected_single_copy_invariant () =
  let k, priv = setup ~zero_on_free:true () in
  let rng = Prng.of_int 4 in
  let sshd = Sshd.start k ~key_path:"/etc/ssh/host_key.pem" protected_opts in
  let check_one label =
    let snap = count k priv in
    List.iter
      (fun part ->
        Alcotest.(check (option int))
          (Printf.sprintf "%s: one copy of %s" label part)
          (Some 1)
          (List.assoc_opt part (Report.by_label snap)))
      [ "d"; "p"; "q" ];
    Alcotest.(check (option int)) (label ^ ": no pem") None
      (List.assoc_opt "pem" (Report.by_label snap));
    Alcotest.(check int) (label ^ ": nothing unallocated") 0 snap.Report.unallocated
  in
  check_one "at start";
  let conns = List.init 8 (fun _ -> Sshd.open_connection sshd rng) in
  check_one "with 8 connections";
  List.iter (Sshd.close_connection sshd) conns;
  check_one "after closing";
  Sshd.stop sshd;
  let snap = count k priv in
  Alcotest.(check int) "nothing left after stop" 0 snap.Report.total

let test_sshd_sequential_burst () =
  let k, priv = setup () in
  let rng = Prng.of_int 5 in
  let sshd = Sshd.start k ~key_path:"/etc/ssh/host_key.pem" Helpers.sshd_vanilla in
  Helpers.sshd_sequential sshd rng ~n:10;
  Alcotest.(check int) "no connections left" 0 (Sshd.connection_count sshd);
  (* dead children leave copies in unallocated memory *)
  let snap = count k priv in
  Alcotest.(check bool) "unallocated copies" true (snap.Report.unallocated > 0);
  Sshd.stop sshd

(* ---- apache ---- *)

let test_apache_starts_and_serves () =
  let k, _ = setup () in
  let rng = Prng.of_int 6 in
  let ap = Apache.start k ~key_path:"/etc/ssh/host_key.pem" Helpers.apache_vanilla in
  Alcotest.(check int) "8 workers" 8 (List.length (Apache.worker_pids ap));
  (match Apache.open_connection ap rng with
   | Some conn ->
     Apache.serve ap conn rng ~kib:4;
     Alcotest.(check int) "busy" 1 (Apache.connection_count ap);
     Apache.close_connection ap conn
   | None -> Alcotest.fail "expected a free worker");
  Apache.stop ap;
  Alcotest.check_raises "stopped" (Invalid_argument "Apache.open_connection: server stopped")
    (fun () -> ignore (Apache.open_connection ap rng))

let test_apache_backlog_when_all_busy () =
  let k, _ = setup () in
  let rng = Prng.of_int 7 in
  let ap =
    Apache.start k ~key_path:"/etc/ssh/host_key.pem"
      { Helpers.apache_vanilla with workers = 2; max_clients = 3 }
  in
  let c1 = Option.get (Apache.open_connection ap rng) in
  let _c2 = Option.get (Apache.open_connection ap rng) in
  (* third connection pre-forks an extra worker, up to MaxClients *)
  let _c3 = Option.get (Apache.open_connection ap rng) in
  Alcotest.(check int) "pool grew on demand" 3 (List.length (Apache.worker_pids ap));
  Alcotest.(check bool) "fourth refused at MaxClients" true
    (Apache.open_connection ap rng = None);
  Apache.close_connection ap c1;
  Alcotest.(check bool) "freed worker accepts" true (Apache.open_connection ap rng <> None);
  Apache.stop ap

let test_apache_vanilla_worker_copies () =
  let k, priv = setup () in
  let rng = Prng.of_int 8 in
  let ap = Apache.start k ~key_path:"/etc/ssh/host_key.pem" Helpers.apache_vanilla in
  let before = (count k priv).Report.total in
  (* run a connection on every worker: each builds its own mont cache *)
  let conns = List.filter_map (fun _ -> Apache.open_connection ap rng) (List.init 8 Fun.id) in
  Alcotest.(check int) "all workers engaged" 8 (List.length conns);
  let after = (count k priv).Report.total in
  Alcotest.(check bool)
    (Printf.sprintf "copies grow with busy workers: %d -> %d" before after)
    true (after >= before + 8);
  List.iter (Apache.close_connection ap) conns;
  Apache.stop ap

let test_apache_worker_recycling_leaks () =
  let k, priv = setup () in
  let rng = Prng.of_int 9 in
  let ap =
    Apache.start k ~key_path:"/etc/ssh/host_key.pem"
      { Helpers.apache_vanilla with workers = 2; max_requests_per_child = 2 }
  in
  Helpers.apache_sequential ap rng ~n:8;
  (* recycled workers died with key copies in their heaps *)
  let snap = count k priv in
  Alcotest.(check bool) "unallocated copies from recycled workers" true
    (snap.Report.unallocated > 0);
  Apache.stop ap

let test_apache_protected_single_copy_invariant () =
  let k, priv = setup ~zero_on_free:true () in
  let rng = Prng.of_int 10 in
  let ap =
    Apache.start k ~key_path:"/etc/ssh/host_key.pem"
      { Helpers.apache_vanilla with ssl_mode = Ssl.Hardened; nocache = true }
  in
  Helpers.apache_sequential ap rng ~n:20;
  let conns = List.filter_map (fun _ -> Apache.open_connection ap rng) (List.init 8 Fun.id) in
  let snap = count k priv in
  List.iter
    (fun part ->
      Alcotest.(check (option int)) ("one copy of " ^ part) (Some 1)
        (List.assoc_opt part (Report.by_label snap)))
    [ "d"; "p"; "q" ];
  Alcotest.(check int) "nothing unallocated" 0 snap.Report.unallocated;
  List.iter (Apache.close_connection ap) conns;
  Apache.stop ap;
  Alcotest.(check int) "nothing after stop" 0 (count k priv).Report.total

(* ---- app- vs library-level distinction ---- *)

let test_library_level_protects_third_party_app () =
  (* library level: every load goes through the patched d2i *)
  let k, priv = setup () in
  let app = Plain_app.start k ~key_path:"/etc/ssh/host_key.pem" Ssl.Hardened in
  Plain_app.sign app (Prng.of_int 11);
  let snap = count k priv in
  Alcotest.(check (option int)) "one copy of p" (Some 1)
    (List.assoc_opt "p" (Report.by_label snap));
  Plain_app.stop app

let test_app_level_leaves_third_party_app_exposed () =
  (* application level: only the patched app is safe; this app is not it *)
  let k, priv = setup () in
  let app = Plain_app.start k ~key_path:"/etc/ssh/host_key.pem" Ssl.Vanilla in
  Plain_app.sign app (Prng.of_int 12);
  let snap = count k priv in
  Alcotest.(check bool) "multiple copies of p" true
    (Option.value ~default:0 (List.assoc_opt "p" (Report.by_label snap)) >= 2);
  Plain_app.stop app

let suite =
  [ ( "sshd",
      [ Alcotest.test_case "starts and answers" `Quick test_sshd_starts_and_answers;
        Alcotest.test_case "vanilla flooding" `Quick test_sshd_vanilla_copies_grow_with_connections;
        Alcotest.test_case "re-exec reloads key" `Quick test_sshd_vanilla_reexec_reloads_key;
        Alcotest.test_case "protected single-copy" `Quick test_sshd_protected_single_copy_invariant;
        Alcotest.test_case "sequential burst" `Quick test_sshd_sequential_burst
      ] );
    ( "apache",
      [ Alcotest.test_case "starts and serves" `Quick test_apache_starts_and_serves;
        Alcotest.test_case "backlog" `Quick test_apache_backlog_when_all_busy;
        Alcotest.test_case "vanilla worker copies" `Quick test_apache_vanilla_worker_copies;
        Alcotest.test_case "recycling leaks" `Quick test_apache_worker_recycling_leaks;
        Alcotest.test_case "protected single-copy" `Quick test_apache_protected_single_copy_invariant
      ] );
    ( "protection_scope",
      [ Alcotest.test_case "library level covers apps" `Quick test_library_level_protects_third_party_app;
        Alcotest.test_case "app level does not" `Quick test_app_level_leaves_third_party_app_exposed
      ] )
  ]
