(* Aggregate all suites into one alcotest runner. *)

let () =
  Alcotest.run "genalg"
    (Test_gdt.suites @ Test_align.suites @ Test_seqindex.suites @ Test_core.suites
   @ Test_storage.suites @ Test_sqlx.suites @ Test_agg_oracle.suites @ Test_formats.suites @ Test_synth.suites
   @ Test_adapter.suites @ Test_etl.suites @ Test_mediator.suites
   @ Test_biolang.suites @ Test_xml.suites @ Test_integration.suites
   @ Test_capability.suites @ Test_genomic_index.suites @ Test_warehouse_extras.suites @ Test_stats.suites @ Test_robustness.suites @ Test_props.suites @ Test_obs.suites @ Test_cache.suites @ Test_par.suites
   @ Test_fault.suites @ Test_resilience.suites @ Test_crash_recovery.suites
   @ Test_serve.suites @ Test_optimizer.suites @ Test_vec.suites
   @ Test_shard.suites @ Test_cluster.suites)
