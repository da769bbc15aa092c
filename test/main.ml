let () =
  Alcotest.run "memguard"
    (List.concat
       [ Test_prng.suite;
         Test_bytes_util.suite;
         Test_bn.suite;
         Test_crypto.suite;
         Test_cipher.suite;
         Test_vmm.suite;
         Test_kernel.suite;
         Test_ssl.suite;
         Test_multi_search.suite;
         Test_scan.suite;
         Test_scan_extra.suite;
         Test_scan_cache.suite;
         Test_report_diff.suite;
         Test_obs.suite;
         Test_exposure.suite;
         Test_cost.suite;
         Test_attack.suite;
         Test_apps.suite;
         Test_proto.suite;
         Test_core.suite;
         Test_workload.suite;
         Test_edge.suite;
         Test_misc_extra.suite;
         Test_fault.suite;
        Test_fleet.suite;
         Test_forensics.suite;
         Test_telemetry.suite;
         Test_flight.suite;
         Test_gate.suite;
         Test_ct.suite;
         Test_mont_kernels.suite;
         Test_final.suite
       ])
