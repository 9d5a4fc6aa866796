(* Aggregate all suites into one alcotest binary: `dune runtest`. *)

let () =
  Alcotest.run "pslocal"
    (Test_util.suites @ Test_telemetry.suites @ Test_graph.suites
   @ Test_hypergraph.suites @ Test_local.suites @ Test_slocal.suites
   @ Test_maxis.suites @ Test_kernel.suites @ Test_first_fit.suites
   @ Test_cfc.suites @ Test_check.suites @ Test_core.suites
   @ Test_integration.suites @ Test_cache.suites @ Test_server.suites
   @ Test_scale.suites @ Test_shard.suites @ Test_analysis.suites
   @ Test_stream.suites)
