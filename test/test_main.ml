(* Test runner aggregating all suites. *)

let () =
  Alcotest.run "sopr"
    [
      ("value", Test_value.suite);
      ("schema-storage", Test_schema.suite);
      ("effect", Test_effect.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("eval", Test_eval.suite);
      ("dml", Test_dml.suite);
      ("transition-tables", Test_transition_tables.suite);
      ("engine", Test_engine.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("instance-engine", Test_instance_engine.suite);
      ("analysis", Test_analysis.suite);
      ("constraints", Test_constraints.suite);
      ("unique-delta", Test_unique_delta.suite);
      ("system", Test_system.suite);
      ("sql-edge-cases", Test_sql_edge_cases.suite);
      ("functions", Test_functions.suite);
      ("scripts", Test_scripts.suite);
      ("interplay", Test_interplay.suite);
      ("properties", Test_properties.suite);
      ("index-equivalence", Test_index_equivalence.suite);
      ("priority", Test_priority.suite);
      ("explain", Test_explain.suite);
      ("compile-diff", Test_compile_diff.suite);
      ("prepared", Test_prepared.suite);
      ("shape-cache", Test_shape_cache.suite);
      ("rule-index", Test_rule_index.suite);
      ("selection-orders", Test_selection_orders.suite);
      ("reference-rules", Test_reference_rules.suite);
    ("fault-injection", Test_fault_injection.suite);
      ("recovery", Test_recovery.suite);
      ("config-matrix", Test_config_matrix.suite);
      ("workload", Test_workload.suite);
      ("workload-faults", Test_workload_faults.suite);
      ("server", Test_server.suite);
      ("server-memo", Test_server_memo.suite);
    ]
