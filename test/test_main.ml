(* Test runner: one alcotest section per library. *)

let () =
  Alcotest.run "nonmask"
    [
      ("prng", Test_prng.suite);
      ("guarded", Test_guarded.suite);
      ("dsl", Test_dsl.suite);
      ("dgraph", Test_dgraph.suite);
      ("digraph", Test_digraph_model.suite);
      ("topology", Test_topology.suite);
      ("explore", Test_explore.suite);
      ("engine", Test_engine.suite);
      ("par", Test_par.suite);
      ("storage", Test_storage.suite);
      ("sim", Test_sim.suite);
      ("faults", Test_faults.suite);
      ("core", Test_core.suite);
      ("protocols", Test_protocols.suite);
      ("extensions", Test_extensions.suite);
      ("method", Test_method.suite);
      ("derive", Test_derive.suite);
      ("properties", Test_properties.suite);
      ("obs", Test_obs.suite);
      ("rt", Test_rt.suite);
      ("stop", Test_stop.suite);
      ("lang", Test_lang.suite);
      ("gen", Test_gen.suite);
      ("tol", Test_tol.suite);
      ("serve", Test_serve.suite);
      ("witness", Test_witness.suite);
    ]
