let () =
  Alcotest.run "blunting"
    [
      ("util", Test_util.tests);
      ("history", Test_history.tests);
      ("sim", Test_sim.tests);
      ("lin", Test_lin.tests);
      ("lin-more", Test_lin.more_tests);
      ("lin-locality", Test_lin.locality_tests);
      ("objects", Test_objects.tests);
      ("objects-more", Test_objects.more_tests);
      ("transform", Test_objects.transform_tests);
      ("core", Test_core.tests);
      ("mdp+model", Test_model.tests);
      ("model-more", Test_model.more_tests);
      ("model-ghw", Test_model.ghw_tests);
      ("model-ghw-multi", Test_model.multi_ghw_tests);
      ("model-va", Test_model.va_tests);
      ("adversary", Test_adversary.tests);
      ("par", Test_par.tests);
      ("solver-par", Test_solver_par.tests);
      ("store", Test_store.tests);
      ("obs", Test_obs.tests);
      ("obs-diff", Test_diff.tests);
      ("programs", Test_programs.tests);
      ("programs-benor", Test_programs.ben_or_tests);
      ("fuzz", Test_fuzz.tests);
      ("cli", Test_cli.tests);
    ]
