(* Aggregated alcotest entry point: one suite per module group.
   `dune runtest` runs everything; ALCOTEST_QUICK_TESTS=1 skips the
   slower integration simulations. *)

(* The remy-dist coordinator tests start their workers the way
   [remy_train --workers N] does, by re-execing this binary: serve the
   wire protocol on stdin and exit before alcotest ever runs. *)
let () = Remy_dist.Worker.serve_if_child ()

let () =
  Alcotest.run "remy"
    [
      ("prng", Test_prng.tests);
      ("dist", Test_dist.tests);
      ("stats", Test_stats.tests);
      ("heap", Test_heap.tests);
      ("ewma", Test_ewma.tests);
      ("sexp", Test_sexp.tests);
      ("ellipse", Test_ellipse.tests);
      ("engine", Test_engine.tests);
      ("trace", Test_trace.tests);
      ("probe", Test_probe.tests);
      ("qdisc", Test_qdisc.tests);
      ("qdisc-properties", Test_qdisc_props.tests);
      ("codel", Test_codel.tests);
      ("delay-line", Test_delay_line.tests);
      ("packet-pool", Test_packet_pool.tests);
      ("packet-table", Test_packet_table.tests);
      ("link", Test_link.tests);
      ("workload", Test_workload.tests);
      ("metrics", Test_metrics.tests);
      ("obs-metrics", Test_obs_metrics.tests);
      ("cell-trace", Test_cell_trace.tests);
      ("lossy", Test_lossy.tests);
      ("faults", Test_faults.tests);
      ("incast", Test_incast.tests);
      ("receiver", Test_receiver.tests);
      ("delack", Test_delack.tests);
      ("tcp-sender", Test_tcp_sender.tests);
      ("cc-algorithms", Test_cc_algorithms.tests);
      ("xcp-router", Test_xcp_router.tests);
      ("dumbbell", Test_dumbbell.tests);
      ("topology", Test_topology.tests);
      ("fleet", Test_fleet.tests);
      ("memory", Test_memory.tests);
      ("action", Test_action.tests);
      ("rule-tree", Test_rule_tree.tests);
      ("tally", Test_tally.tests);
      ("table-diff", Test_table_diff.tests);
      ("objective", Test_objective.tests);
      ("net-model", Test_net_model.tests);
      ("remy-dist", Test_remy_dist.tests);
      ("par", Test_par.tests);
      ("checkpoint", Test_checkpoint.tests);
      ("remycc", Test_remycc.tests);
      ("evaluator", Test_evaluator.tests);
      ("optimizer", Test_optimizer.tests);
      ("scenarios", Test_scenarios.tests);
      ("figures", Test_figures.tests);
      ("golden-sims", Test_golden_sims.tests);
      ("data-tables", Test_data_tables.tests);
      ("analysis", Test_analysis.tests);
      ("lint", Test_lint.tests);
    ]
