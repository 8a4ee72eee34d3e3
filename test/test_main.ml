let () =
  Alcotest.run "promising_seq"
    [
      ("lang", Test_lang.suite);
      ("substrate", Test_substrate.suite);
      ("seq-behavior", Test_behavior.suite);
      ("seq-refine", Test_seq_refine.suite);
      ("seq-advanced", Test_seq_advanced.suite);
      ("seq-oracle", Test_oracle.suite);
      ("promising", Test_promising.suite);
      ("optimizer", Test_optimizer.suite);
      ("baselines", Test_baselines.suite);
      ("backends", Test_backends.suite);
      ("engine", Test_engine.suite);
      ("robustness", Test_robustness.suite);
      ("adequacy", Test_adequacy.suite);
      ("golden", Test_golden.suite);
      ("diffcore", Test_diffcore.suite);
      ("psdiff", Test_psdiff.suite);
      ("properties", Test_properties.suite);
      ("analysis", Test_analysis.suite);
      ("service", Test_service.suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", Test_cli.suite);
    ]
