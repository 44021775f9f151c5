(* Configuration-matrix tests: the engine's optimizations — transition
   info pruning (paper Section 4.3), uncorrelated-subquery caching and
   compiled evaluation — must be semantically invisible, separately and
   combined.  The paper's worked examples 3.1, 4.1 and 4.2 are run under
   all eight [prune_info] x [optimize] x [compiled] combinations and
   must produce identical final states and firing counts. *)

open Core
open Helpers

let combos =
  let bools = [ true; false ] in
  List.concat_map
    (fun prune_info ->
      List.concat_map
        (fun optimize -> List.map (fun compiled -> (prune_info, optimize, compiled)) bools)
        bools)
    bools

let combo_label (prune_info, optimize, compiled) =
  Printf.sprintf "prune_info=%b optimize=%b compiled=%b" prune_info optimize compiled

(* Run [scenario] under every combination and check that each result
   equals the default-configuration (all on) result. *)
let check_matrix scenario check_equal =
  let result combo =
    let prune_info, optimize, compiled = combo in
    let config = { Engine.default_config with prune_info; optimize; compiled } in
    scenario (paper_system ~config ())
  in
  let reference = result (true, true, true) in
  List.iter
    (fun combo -> check_equal (combo_label combo) reference (result combo))
    combos

let eq_triple label = Alcotest.(check (triple (list string) int int)) label

(* Example 3.1: cascaded delete of employees in deleted departments. *)
let scenario_31 s =
  run s
    "create rule ex31 when deleted from dept then delete from emp where \
     dept_no in (select dept_no from deleted dept)";
  run s "insert into dept values (1, 100), (2, 200), (3, 300)";
  run s
    "insert into emp values ('a', 1, 10000, 1), ('b', 2, 10000, 2), ('c', 3, \
     10000, 2), ('d', 4, 10000, 3)";
  ignore (System.exec_block s "delete from dept where dept_no in (1, 2)");
  ( string_list_cells s "select name from emp",
    int_cell s "select count(*) from dept",
    (Engine.stats (System.engine s)).Engine.rule_firings )

let test_example_3_1_matrix () =
  check_matrix scenario_31 eq_triple

(* Example 4.1: recursive cascade over the management hierarchy. *)
let scenario_41 s =
  run s
    "create rule ex41 when deleted from emp then delete from emp where \
     dept_no in (select dept_no from dept where mgr_no in (select emp_no from \
     deleted emp)); delete from dept where mgr_no in (select emp_no from \
     deleted emp)";
  run s "insert into dept values (1, 100), (2, 200), (3, 300)";
  run s
    "insert into emp values ('Jane', 100, 60000, 0), ('Mary', 200, 70000, 1), \
     ('Jim', 300, 40000, 1), ('Bill', 400, 25000, 2), ('Sam', 500, 30000, 3), \
     ('Sue', 600, 30000, 3)";
  run s "delete from emp where emp_no = 100";
  ( string_list_cells s "select name from emp",
    int_cell s "select count(*) from dept",
    (Engine.stats (System.engine s)).Engine.rule_firings )

let test_example_4_1_matrix () =
  check_matrix scenario_41 eq_triple

(* Example 4.2: salary-update control with a composite transition
   predicate and an aggregate condition over new updated. *)
let scenario_42 s =
  run s
    "create rule ex42 when updated emp.salary if (select avg(salary) from new \
     updated emp.salary) > 50000 then delete from emp where emp_no in (select \
     emp_no from new updated emp.salary) and salary > 80000";
  run s "insert into emp values ('Bill', 1, 25000, 1), ('Mary', 2, 70000, 1)";
  ignore
    (System.exec_block s
       "update emp set salary = 30000 where emp_no = 1; update emp set salary \
        = 85000 where emp_no = 2");
  ( string_list_cells s "select name from emp",
    int_cell s "select count(*) from emp",
    (Engine.stats (System.engine s)).Engine.rule_firings )

let test_example_4_2_matrix () =
  check_matrix scenario_42 eq_triple

(* The evaluator is chosen per engine: a compiled system and an
   interpreted one run the same statements interleaved in one process
   and agree on every result — through SQL text and through the
   engine's plan API (statement-cache plans, a prepared statement) —
   and the interpreted engine never touches its statement cache. *)
let test_evaluators_interleave () =
  let compiled = paper_system () in
  let interpreted = paper_system ~config:(evaluator false) () in
  let render s sql =
    match System.exec s sql with
    | results -> String.concat "; " (List.map System.render_result results)
    | exception Errors.Error e -> "error: " ^ Errors.to_string e
  in
  let op sql =
    match Parser.parse_statement_string sql with
    | Ast.Stmt_op op -> op
    | _ -> Alcotest.failf "not an operation: %s" sql
  in
  let via_plans s =
    let eng = System.engine s in
    let relation rel = System.render_result (System.Relation rel) in
    let query sql = relation (Engine.query_cop eng (Engine.cached_cop eng (op sql))) in
    Engine.begin_txn eng;
    ignore
      (Engine.submit_cops eng
         (List.map
            (fun sql -> Engine.cached_cop eng (op sql))
            [
              "insert into dept values (4, 400)";
              "insert into emp values ('e', 5, 50000, 4)";
            ]));
    ignore (Engine.commit eng);
    let before = query "select name from emp order by name" in
    let prepare name body =
      match Parser.parse_statement_string ("prepare " ^ name ^ " as " ^ body) with
      | Ast.Stmt_prepare (name, op) ->
        Engine.prepare eng ~name op;
        Engine.find_prepared eng name
      | _ -> Alcotest.failf "not a PREPARE: %s" body
    in
    let drop = prepare "drop_dept" "delete from dept where dept_no = ?"
    and in_dept = prepare "in_dept" "select name from emp where dept_no = ? order by name" in
    Engine.begin_txn eng;
    ignore
      (Engine.submit_cops eng
         ~params:(Engine.bind_params drop [ vi 4 ])
         [ Engine.prepared_cop eng drop ]);
    ignore (Engine.commit eng);
    let in_dept n =
      relation
        (Engine.query_cop eng
           ~params:(Engine.bind_params in_dept [ vi n ])
           (Engine.prepared_cop eng in_dept))
    in
    [ before; query "select name from emp order by name"; in_dept 3; in_dept 4 ]
  in
  List.iter
    (fun sql ->
      let rc = render compiled sql in
      let ri = render interpreted sql in
      Alcotest.(check string) sql rc ri)
    [
      "create rule ex31 when deleted from dept then delete from emp where \
       dept_no in (select dept_no from deleted dept)";
      "insert into dept values (1, 100), (2, 200), (3, 300)";
      "insert into emp values ('a', 1, 10000, 1), ('b', 2, 20000, 2), ('c', 3, \
       30000, 2), ('d', 4, 40000, 3)";
      "select name from emp where dept_no = 2 order by name";
      "select e.name, d.mgr_no from emp e, dept d where e.dept_no = d.dept_no \
       order by e.name";
      "update emp set salary = salary + 1 where emp_no = 4";
      "select name from emp where dept_no = 2 order by name";
      "delete from dept where dept_no in (1, 2)";
      "select name, salary from emp order by name";
      "select nosuch from emp";
      "select e.name, d.mgr_no from emp e, dept d where e.dept_no = d.dept_no \
       order by e.name";
    ];
  Alcotest.(check (list string)) "through the plan API" (via_plans compiled)
    (via_plans interpreted);
  let st s = Engine.stats (System.engine s) in
  Alcotest.(check int) "interpreted: no statement-cache hits" 0
    (st interpreted).Engine.stmt_cache_hits;
  Alcotest.(check int) "interpreted: no statement-cache misses" 0
    (st interpreted).Engine.stmt_cache_misses;
  Alcotest.(check bool) "compiled: the statement cache was used" true
    ((st compiled).Engine.stmt_cache_hits > 0);
  Alcotest.(check int) "same rule firings" (st compiled).Engine.rule_firings
    (st interpreted).Engine.rule_firings

let suite =
  [
    Alcotest.test_case "example 3.1 under all configs" `Quick
      test_example_3_1_matrix;
    Alcotest.test_case "example 4.1 under all configs" `Quick
      test_example_4_1_matrix;
    Alcotest.test_case "example 4.2 under all configs" `Quick
      test_example_4_2_matrix;
    Alcotest.test_case "compiled and interpreted engines interleave" `Quick
      test_evaluators_interleave;
  ]
