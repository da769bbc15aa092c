module Sshd = Memguard_apps.Sshd
module Ext2_leak = Memguard_attack.Ext2_leak
module Tty_dump = Memguard_attack.Tty_dump
module Attack_stats = Memguard_attack.Attack_stats
module Scanner = Memguard_scan.Scanner
module Kernel = Memguard_kernel.Kernel
module Prng = Memguard_util.Prng

type server = Timeline.server = Ssh | Http

type sweep_point = {
  connections : int;
  directories : int;
  mean_copies : float;
  success_rate : float;
}

let pp_sweep fmt points =
  Format.fprintf fmt "%12s %12s %12s %10s@." "connections" "directories" "copies/run" "success";
  List.iter
    (fun p ->
      Format.fprintf fmt "%12d %12d %12.2f %9.0f%%@." p.connections p.directories p.mean_copies
        (100. *. p.success_rate))
    points

(* Prime a fresh system the way the Section 2 attack scripts do: create a
   large number of connections, then (for the ext2 attack, which can only
   see recycled pages) close them all at once. *)
let primed_system ?key_bits ~level ~num_pages ~seed ~connections ~keep_open server =
  let sys = System.create ?key_bits ~num_pages ~level ~seed () in
  let srv = Timeline.start sys server in
  let open_n n = List.filter_map (fun _ -> srv.Timeline.open_ ()) (List.init n Fun.id) in
  let close_all = List.iter (fun c -> c.Timeline.close ()) in
  (if keep_open then ignore (open_n connections)
   else
     match server with
     | Ssh -> close_all (open_n connections)
     | Http ->
       (* the paper's 500 connections are not simultaneous — MaxClients caps
          the pool — so issue waves; each closed wave lets prefork reap the
          spare workers, and background churn between waves scatters their
          remains before the next wave lands on top of them *)
       let wave = 100 in
       let remaining = ref connections in
       while !remaining > 0 do
         let n = min wave !remaining in
         remaining := !remaining - n;
         close_all (open_n n);
         System.settle sys
       done);
  if not keep_open then System.settle sys;
  sys

let ext2_sweep ?(level = Protection.Unprotected) ?(trials = 5) ?(num_pages = 8192) ?(seed = 1)
    ?key_bits ?(connections = [ 50; 125; 250; 375; 500 ])
    ?(directories = [ 250; 1000; 2000; 4000 ]) server =
  List.concat_map
    (fun conns ->
      List.map
        (fun dirs ->
          let summary =
            Attack_stats.run_trials ~n:trials (fun trial ->
                let sys =
                  primed_system ?key_bits ~level ~num_pages ~seed:(seed + (1000 * trial))
                    ~connections:conns ~keep_open:false server
                in
                let atk = System.run_ext2_attack sys ~directories:dirs in
                { Attack_stats.copies = Ext2_leak.count_copies atk ~patterns:(System.patterns sys) })
          in
          { connections = conns;
            directories = dirs;
            mean_copies = summary.Attack_stats.mean_copies;
            success_rate = summary.Attack_stats.success_rate
          })
        directories)
    connections

let tty_sweep ?(level = Protection.Unprotected) ?(trials = 5) ?(num_pages = 4096) ?(seed = 1)
    ?key_bits ?(connections = [ 0; 10; 30; 60; 90; 120 ]) server =
  List.map
    (fun conns ->
      let summary =
        Attack_stats.run_trials ~n:trials (fun trial ->
            let sys =
              primed_system ?key_bits ~level ~num_pages ~seed:(seed + (1000 * trial))
                ~connections:conns ~keep_open:true server
            in
            let dump = System.run_tty_attack sys in
            { Attack_stats.copies = Tty_dump.count_copies dump ~patterns:(System.patterns sys) })
      in
      { connections = conns;
        directories = 0;
        mean_copies = summary.Attack_stats.mean_copies;
        success_rate = summary.Attack_stats.success_rate
      })
    connections

let machine ?(level = Protection.Unprotected) ?(num_pages = 8192) ?(seed = 1) ?rng
    ?key_bits ?(churn = 3) ?low ?high ?stop_at ?sshd_opts ?obs ?recorder server =
  (* the recorder needs an observability context to read from; runs that
     did not pass one get a private context — still observer-only, so the
     simulated machine is byte-identical either way *)
  let obs =
    match (obs, recorder) with
    | None, Some _ -> Some (Memguard_obs.Obs.create ())
    | _ -> obs
  in
  let sys = System.create ?key_bits ~num_pages ~level ~seed ?rng ?obs () in
  let snaps = Timeline.run ~churn ?low ?high ?stop_at ?sshd_opts sys server in
  (match recorder with
   | None -> ()
   | Some f ->
     let meta =
       [ ("level", Protection.name level);
         ("server", Timeline.server_name server);
         ("seed", string_of_int seed);
         ("num_pages", string_of_int num_pages);
         ("churn", string_of_int churn);
         ("scan_mode", System.mode_name System.Incremental)
       ]
     in
     let final =
       match List.rev snaps with
       | s :: _ -> float_of_int s.Memguard_scan.Report.allocated
       | [] -> 0.
     in
     let scalars =
       [ ("timeline.final_copies", final);
         ("timeline.snapshots", float_of_int (List.length snaps))
       ]
     in
     f (Memguard_obs.Obs.Snapshot.record ~kind:"timeline" ~meta ~scalars (System.obs sys)));
  (sys, snaps)

let timeline ?level ?num_pages ?seed ?rng ?key_bits ?churn ?low ?high ?obs ?recorder server =
  snd
    (machine ?level ?num_pages ?seed ?rng ?key_bits ?churn ?low ?high ?obs ?recorder
       server)

let before_after_tty ?(trials = 10) ?(num_pages = 4096) ?(seed = 1)
    ?(connections = [ 0; 20; 60; 120 ]) server =
  List.map
    (fun level -> (level, tty_sweep ~level ~trials ~num_pages ~seed ~connections server))
    [ Protection.Unprotected; Protection.Integrated ]

let before_after_ext2 ?(trials = 5) ?(num_pages = 4096) ?(seed = 1) ?(directories = 1000) server
    =
  List.map
    (fun level ->
      (level, ext2_sweep ~level ~trials ~num_pages ~seed ~connections:[ 100 ]
         ~directories:[ directories ] server))
    Protection.all

(* ---- performance ---- *)

type perf = {
  transactions : int;
  elapsed_s : float;
  transaction_rate : float;
  throughput_mib_s : float;
  mean_response_ms : float;
  concurrency : float;
}

let pp_perf fmt p =
  Format.fprintf fmt
    "%d transactions in %.2fs: %.1f tx/s, %.2f MiB/s, %.3f ms/tx, concurrency %.1f"
    p.transactions p.elapsed_s p.transaction_rate p.throughput_mib_s p.mean_response_ms
    p.concurrency

let now_s () = Unix.gettimeofday ()

(* every scp transfer and Siege request moves 100 KiB *)
let kib_per_transaction = 100

let perf_run ?(level = Protection.Unprotected) ?(num_pages = 8192) ?(seed = 1)
    ?(transactions = 400) ?(concurrent = 20) server =
  let sys = System.create ~num_pages ~level ~seed () in
  let t0 = now_s () in
  let srv = Timeline.start ~workers:concurrent sys server in
  (* keep [concurrent] slots cycling until [transactions] complete *)
  let slots = Array.init concurrent (fun _ -> Option.get (srv.Timeline.open_ ())) in
  for i = 0 to transactions - 1 do
    let slot = i mod concurrent in
    slots.(slot).Timeline.work ~kib:kib_per_transaction;
    slots.(slot).Timeline.close ();
    match srv.Timeline.open_ () with Some c -> slots.(slot) <- c | None -> ()
  done;
  Array.iter (fun c -> c.Timeline.close ()) slots;
  srv.Timeline.stop ();
  let elapsed = now_s () -. t0 in
  let payload_mib = float_of_int (transactions * kib_per_transaction) /. 1024. in
  { transactions;
    elapsed_s = elapsed;
    transaction_rate = float_of_int transactions /. elapsed;
    throughput_mib_s = payload_mib /. elapsed;
    mean_response_ms = 1000. *. elapsed /. float_of_int transactions;
    concurrency = float_of_int concurrent
  }

(* ---- ablations ---- *)

let ablation_swap ?(num_pages = 64) ?(seed = 3) () =
  let run ?(swap_encrypt = false) mode =
    let config =
      { Kernel.default_config with num_pages; swap_slots = 256; swap_encrypt }
    in
    let k = Kernel.create ~config () in
    let rngk = Prng.of_int seed in
    let priv = Memguard_crypto.Rsa.generate (Prng.split rngk) ~bits:256 in
    ignore (Memguard_ssl.Ssl.write_key_file k ~path:"/key.pem" priv);
    let p = Kernel.spawn k ~name:"srv" in
    ignore (Memguard_ssl.Ssl.load_private_key k p ~path:"/key.pem" mode);
    (* memory pressure pushes everything unlocked toward swap *)
    let hog = Kernel.spawn k ~name:"hog" in
    (try
       let a = Kernel.malloc k hog ((num_pages + 64) * 4096) in
       Kernel.write_mem k hog ~addr:a (String.make ((num_pages + 64) * 4096) 'x')
     with Kernel.Out_of_memory -> ());
    List.length (Scanner.scan_swap k ~patterns:(Scanner.key_patterns priv))
  in
  [ ("vanilla (no mlock)", run Memguard_ssl.Ssl.Vanilla);
    ("aligned + mlock", run Memguard_ssl.Ssl.Hardened);
    ("vanilla + swap encryption (Provos)", run ~swap_encrypt:true Memguard_ssl.Ssl.Vanilla)
  ]

let ablation_nocache ?(seed = 4) () =
  let run ~nocache =
    let sys = System.create ~num_pages:512 ~seed ~level:Protection.Unprotected () in
    let k = System.kernel sys in
    let p = Kernel.spawn k ~name:"app" in
    ignore
      (Memguard_ssl.Ssl.load_private_key k p ~path:System.key_path ~nocache
         Memguard_ssl.Ssl.Hardened);
    let snap = System.scan sys ~time:0 in
    Option.value ~default:0
      (List.assoc_opt "pem" (Memguard_scan.Report.by_label snap))
  in
  [ ("cached (default open)", run ~nocache:false); ("O_NOCACHE", run ~nocache:true) ]

let ablation_cow ?(seed = 5) ?(workers_list = [ 1; 2; 4; 8; 16 ]) () =
  let copies_with ~level ~workers =
    let sys = System.create ~num_pages:4096 ~seed ~level () in
    let srv = Timeline.start ~workers sys Http in
    (* touch every worker once so each populates (or not) its cache *)
    let conns = List.filter_map (fun _ -> srv.Timeline.open_ ()) (List.init workers Fun.id) in
    List.iter (fun c -> c.Timeline.close ()) conns;
    (System.scan sys ~time:0).Memguard_scan.Report.allocated
  in
  List.map
    (fun workers ->
      ( workers,
        copies_with ~level:Protection.Unprotected ~workers,
        copies_with ~level:Protection.Integrated ~workers ))
    workers_list

let ablation_dealloc ?(trials = 5) ?(seed = 6) () =
  List.map
    (fun level ->
      let ext2 =
        Attack_stats.run_trials ~n:trials (fun trial ->
            let sys =
              primed_system ~level ~num_pages:4096 ~seed:(seed + (100 * trial)) ~connections:50
                ~keep_open:false Ssh
            in
            let atk = System.run_ext2_attack sys ~directories:1000 in
            { Attack_stats.copies = Ext2_leak.count_copies atk ~patterns:(System.patterns sys) })
      in
      let tty =
        Attack_stats.run_trials ~n:trials (fun trial ->
            let sys =
              primed_system ~level ~num_pages:4096 ~seed:(seed + (100 * trial)) ~connections:50
                ~keep_open:true Ssh
            in
            let dump = System.run_tty_attack sys in
            { Attack_stats.copies = Tty_dump.count_copies dump ~patterns:(System.patterns sys) })
      in
      (Protection.name level, ext2.Attack_stats.success_rate, tty.Attack_stats.success_rate))
    [ Protection.Secure_dealloc; Protection.Kernel_level; Protection.Integrated ]

let ablation_encrypted_key ?(seed = 7) () =
  let run mode nocache =
    let sys = System.create ~num_pages:512 ~seed ~level:Protection.Unprotected () in
    let k = System.kernel sys in
    let priv = System.priv sys in
    let passphrase = "correct horse battery staple" in
    let iv = String.init 16 (fun i -> Char.chr (0x51 lxor i)) in
    ignore
      (Kernel.write_file k ~path:"/enc_key.pem"
         (Memguard_crypto.Rsa.pem_of_priv_encrypted ~passphrase ~iv priv));
    let p = Kernel.spawn k ~name:"srv" in
    ignore (Memguard_ssl.Ssl.load_private_key k p ~path:"/enc_key.pem" ~nocache ~passphrase mode);
    let raw = Memguard_vmm.Phys_mem.raw (Kernel.mem k) in
    ( Memguard_util.Bytes_util.count ~needle:passphrase raw,
      Memguard_util.Bytes_util.count ~needle:(Memguard_crypto.Rsa.pattern_d priv) raw )
  in
  let vp, vd = run Memguard_ssl.Ssl.Vanilla false in
  let hp, hd = run Memguard_ssl.Ssl.Hardened true in
  [ ("vanilla + encrypted key", vp, vd); ("hardened + encrypted key", hp, hd) ]

let ablation_core_dump ?(seed = 8) () =
  List.map
    (fun level ->
      let sys = System.create ~num_pages:1024 ~seed ~level () in
      let srv = System.start_sshd sys in
      ignore (Sshd.open_connection srv (System.rng sys));
      let core = Memguard_attack.Core_dump.dump (System.kernel sys) (Sshd.listener srv) in
      ( Protection.name level,
        Memguard_attack.Core_dump.count_copies core ~patterns:(System.patterns sys) ))
    [ Protection.Unprotected; Protection.Integrated ]

let ablation_tty_fraction ?(trials = 40) ?(seed = 9) ?(fractions = [ 0.1; 0.25; 0.5; 0.75; 0.9 ])
    () =
  List.map
    (fun fraction ->
      let summary =
        Attack_stats.run_trials ~n:trials (fun trial ->
            let sys =
              primed_system ~level:Protection.Integrated ~num_pages:2048
                ~seed:(seed + (1000 * trial)) ~connections:10 ~keep_open:true Ssh
            in
            let dump =
              Tty_dump.run (System.rng sys) (System.kernel sys) ~mean_fraction:fraction
                ~jitter:0.0 ()
            in
            { Attack_stats.copies = Tty_dump.count_copies dump ~patterns:(System.patterns sys) })
      in
      (fraction, summary.Attack_stats.success_rate))
    fractions
