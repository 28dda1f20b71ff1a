(* Test runner: one alcotest suite per library module. *)

let () =
  Alcotest.run "futurenet"
    [
      ("sim.rng", Suite_rng.suite);
      ("sim.heap", Suite_heap.suite);
      ("sim.engine", Suite_engine.suite);
      ("sim.stats", Suite_stats.suite);
      ("sim.sink", Suite_sink.suite);
      ("sim.trace", Suite_trace.suite);
      ("sim.trace_export", Suite_trace_export.suite);
      ("sim.json", Suite_json.suite);
      ("graph.graph", Suite_graph.suite);
      ("graph.tree", Suite_tree.suite);
      ("graph.traversal", Suite_traversal.suite);
      ("graph.spanning", Suite_spanning.suite);
      ("graph.builders", Suite_builders.suite);
      ("graph.paths", Suite_paths.suite);
      ("hardware.anr", Suite_anr.suite);
      ("hardware.cost_model", Suite_cost_model.suite);
      ("hardware.metrics", Suite_metrics.suite);
      ("hardware.network", Suite_network.suite);
      ("hardware.network_fuzz", Suite_network_fuzz.suite);
      ("hardware.network_fastpath", Suite_network_fastpath.suite);
      ("hardware.registry", Suite_registry.suite);
      ("hardware.monitor", Suite_monitor.suite);
      ("core.labels", Suite_labels.suite);
      ("core.walks", Suite_walks.suite);
      ("core.broadcasts", Suite_broadcasts.suite);
      ("core.lower_bound", Suite_lower_bound.suite);
      ("core.topology", Suite_topology.suite);
      ("core.topo_maintenance", Suite_topo_maintenance.suite);
      ("core.inout", Suite_inout.suite);
      ("core.election", Suite_election.suite);
      ("core.election_baselines", Suite_election_baselines.suite);
      ("core.sensitive", Suite_sensitive.suite);
      ("core.optimal_tree", Suite_optimal_tree.suite);
      ("core.convergecast", Suite_convergecast.suite);
      ("core.causal", Suite_causal.suite);
      ("analysis.profiler", Suite_analysis.suite);
      ("core.aggregate", Suite_aggregate.suite);
      ("experiments", Suite_experiments.suite);
      ("parallel", Suite_parallel.suite);
      ("compile", Suite_compile.suite);
      ("scale_parity", Suite_scale_parity.suite);
      ("bench_counters", Suite_bench_counters.suite);
      ("chaos", Suite_chaos.suite);
      ("chaos.recover", Suite_recover.suite);
      ("query", Suite_query.suite);
    ]
