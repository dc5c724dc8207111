let () =
  Alcotest.run "blockmaestro"
    [
      ("engine", Test_engine.suite);
      ("ptx", Test_ptx.suite);
      ("sinterval", Test_sinterval.suite);
      ("analysis", Test_analysis.suite);
      ("tbinvariant", Test_tbinvariant.suite);
      ("interp", Test_interp.suite);
      ("depgraph", Test_depgraph.suite);
      ("gpu", Test_gpu.suite);
      ("maestro", Test_maestro.suite);
      ("workloads", Test_workloads.suite);
      ("report", Test_report.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("attrib", Test_attrib.suite);
      ("oracle", Test_oracle.suite);
      ("graph", Test_graph.suite);
      ("multi", Test_multi.suite);
      ("parallel", Test_parallel.suite);
      ("integration", Test_integration.suite);
      ("deadline", Test_deadline.suite);
      ("store", Test_store.suite);
    ]
