let () =
  Alcotest.run "frepro"
    (Test_fuzzy.suites @ Test_storage.suites @ Test_relational.suites
   @ Test_joins.suites @ Test_sql.suites @ Test_equivalence.suites
   @ Test_paper.suites @ Test_extensions.suites @ Test_grouping.suites
   @ Test_frontend.suites @ Test_explain.suites @ Test_observability.suites
   @ Test_server.suites @ Test_telemetry.suites @ Test_fault.suites
   @ Test_batch.suites @ Test_check.suites @ Test_recovery.suites
   @ Test_replication.suites @ Test_temps.suites)
