let () =
  Alcotest.run "bfc"
    [
      ("util", Test_util.suite);
      ("engine", Test_engine.suite);
      ("net", Test_net.suite);
      ("switch", Test_switch.suite);
      ("bfc", Test_bfc.suite);
      ("transport", Test_transport.suite);
      ("workload", Test_workload.suite);
      ("sim", Test_sim.suite);
      ("more", Test_more.suite);
      ("credit", Test_credit.suite);
      ("extra", Test_extra.suite);
      ("final", Test_final.suite);
      ("fault", Test_fault.suite);
      ("stress", Test_stress.suite);
      ("lint", Test_lint.suite);
      ("perf", Test_perf.suite);
      ("obs", Test_obs.suite);
      ("stream", Test_stream.suite);
      ("dispatch", Test_dispatch.suite);
      ("observers", Test_observers.suite);
    ]
