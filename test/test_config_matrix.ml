(* Configuration-matrix tests: the engine switches documented as
   semantically invisible must be so, separately and combined.  Waking
   rules through the discrimination index ([rule_index]) instead of the
   Figure 1 linear scan, and maintaining the select component of
   effects ([track_selects]) for rule sets that no retrieval triggers,
   change no outcome.  The paper's worked examples 3.1, 4.1 and 4.2 are
   run under all four [rule_index] x [track_selects] combinations and
   must produce identical final states and firing counts. *)

open Core
open Helpers

let combos =
  let bools = [ true; false ] in
  List.concat_map
    (fun rule_index ->
      List.map (fun track_selects -> (rule_index, track_selects)) bools)
    bools

let combo_label (rule_index, track_selects) =
  Printf.sprintf "rule_index=%b track_selects=%b" rule_index track_selects

(* Run [scenario] under every combination and check that each result
   equals the default-configuration result. *)
let check_matrix scenario check_equal =
  let result (rule_index, track_selects) =
    let config =
      { Engine.default_config with Engine.rule_index; track_selects }
    in
    scenario (paper_system ~config ())
  in
  let reference = scenario (paper_system ()) in
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

let test_example_3_1_matrix () = check_matrix scenario_31 eq_triple

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

let test_example_4_1_matrix () = check_matrix scenario_41 eq_triple

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

let test_example_4_2_matrix () = check_matrix scenario_42 eq_triple

let suite =
  [
    Alcotest.test_case "example 3.1 under all configs" `Quick
      test_example_3_1_matrix;
    Alcotest.test_case "example 4.1 under all configs" `Quick
      test_example_4_1_matrix;
    Alcotest.test_case "example 4.2 under all configs" `Quick
      test_example_4_2_matrix;
  ]
