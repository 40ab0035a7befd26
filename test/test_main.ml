let () =
  Alcotest.run "csspgo"
    [
      Test_support.suite;
      Test_ir.suite;
      Test_frontend.suite;
      Test_opt.suite;
      Test_codegen.suite;
      Test_vm.suite;
      Test_profile.suite;
      Test_merge.suite;
      Test_binary_io.suite;
      Test_inference.suite;
      Test_profgen.suite;
      Test_core.suite;
      Test_ctx_reconstruct.suite;
      Test_orchestrator.suite;
      Test_pipeline.suite;
      Test_differential.suite;
      Test_fuzz.suite;
      Test_stale.suite;
      Test_incremental.suite;
      Test_fleet.suite;
      Test_parcorr.suite;
      Test_labels.suite;
      Test_obs.suite;
      Test_health.suite;
    ]
