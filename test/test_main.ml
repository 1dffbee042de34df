(* Aggregated test entry point: one alcotest run over all suites. *)

let () =
  Alcotest.run "overlay_capacity"
    [
      ("rng", Test_rng.suite);
      ("prelude-structures", Test_prelude_structs.suite);
      ("graph", Test_graph.suite);
      ("paths-trees-flows", Test_paths.suite);
      ("packing-and-lp", Test_packing_lp.suite);
      ("topology-and-routing", Test_topology_routing.suite);
      ("core-types", Test_core_types.suite);
      ("otree", Test_otree.suite);
      ("algorithms", Test_algorithms.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("refinement", Test_refinement.suite);
      ("invariants", Test_invariants.suite);
      ("incremental-lengths", Test_incremental_lengths.suite);
      ("obs", Test_obs.suite);
      ("histogram", Test_histogram.suite);
      ("trace-analysis", Test_trace_analysis.suite);
      ("io-and-protocols", Test_io_protocol.suite);
      ("certify", Test_certify.suite);
      ("flat", Test_flat.suite);
      ("sparsify", Test_sparsify.suite);
      ("engine", Test_engine.suite);
      ("engine-trace", Test_engine_trace.suite);
      ("wire", Test_wire.suite);
      ("daemon", Test_daemon.suite);
      ("fingerprint", Test_fingerprint.suite);
    ]
