(* The paper's worked examples (3.1–3.3, 4.1–4.3), run verbatim with
   the paper's emp/dept schema and checked against the outcomes the
   paper states.  These are the closest thing the paper has to an
   evaluation; EXPERIMENTS.md indexes them. *)

open Core
open Helpers

(* Example 3.1 rule text, verbatim modulo identifier spelling
   (emp_no/dept_no/mgr_no for the paper's "emp no" etc.). *)
let rule_31 =
  "create rule ex31 when deleted from dept then delete from emp where dept_no \
   in (select dept_no from deleted dept)"

let rule_32 =
  "create rule ex32 when updated emp.salary if (select sum(salary) from new \
   updated emp.salary) > (select sum(salary) from old updated emp.salary) \
   then update emp set salary = 0.95 * salary where dept_no = 2; update emp \
   set salary = 0.85 * salary where dept_no = 3"

let rule_33 =
  "create rule ex33 when inserted into emp or deleted from emp or updated \
   emp.salary or updated emp.dept_no if exists (select * from emp e1 where \
   salary > 2 * (select avg(salary) from emp e2 where e2.dept_no = \
   e1.dept_no)) then delete from emp where emp_no = (select mgr_no from dept \
   where dept_no = 5)"

let rule_41 =
  "create rule ex41 when deleted from emp then delete from emp where dept_no \
   in (select dept_no from dept where mgr_no in (select emp_no from deleted \
   emp)); delete from dept where mgr_no in (select emp_no from deleted emp)"

let rule_42 =
  "create rule ex42 when updated emp.salary if (select avg(salary) from new \
   updated emp.salary) > 50000 then delete from emp where emp_no in (select \
   emp_no from new updated emp.salary) and salary > 80000"

(* Example 3.1: whenever departments are deleted, delete all employees
   in the deleted departments. *)
let test_example_3_1 () =
  let s = paper_system () in
  run s rule_31;
  run s "insert into dept values (1, 100), (2, 200), (3, 300)";
  run s
    "insert into emp values ('a', 1, 10000, 1), ('b', 2, 10000, 2), ('c', 3, \
     10000, 2), ('d', 4, 10000, 3)";
  (* delete two departments in one block: one set-oriented firing *)
  ignore (System.exec_block s "delete from dept where dept_no in (1, 2)");
  Alcotest.(check (list string)) "only dept 3 employees remain" [ "d" ]
    (string_list_cells s "select name from emp");
  Alcotest.(check int) "one department left" 1
    (int_cell s "select count(*) from dept");
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "single set-oriented firing" 1 st.Engine.rule_firings

(* Example 3.2: if updated salaries increased in total, cut departments
   2 and 3. *)
let test_example_3_2 () =
  let s = paper_system () in
  run s rule_32;
  run s
    "insert into emp values ('d1', 1, 1000, 1), ('d2', 2, 1000, 2), ('d3', 3, \
     1000, 3)";
  (* raise: total of updated salaries exceeds previous total *)
  run s "update emp set salary = salary + 100 where emp_no = 1";
  Alcotest.(check (float 0.01)) "dept2 cut" 950.0
    (float_cell s "select salary from emp where emp_no = 2");
  Alcotest.(check (float 0.01)) "dept3 cut" 850.0
    (float_cell s "select salary from emp where emp_no = 3");
  Alcotest.(check (float 0.01)) "dept1 raised untouched" 1100.0
    (float_cell s "select salary from emp where emp_no = 1")

let test_example_3_2_no_increase () =
  let s = paper_system () in
  run s rule_32;
  run s "insert into emp values ('d2', 2, 1000, 2)";
  (* a pay cut does not satisfy the condition *)
  run s "update emp set salary = salary - 100 where emp_no = 2";
  Alcotest.(check (float 0.01)) "no further cut" 900.0
    (float_cell s "select salary from emp where emp_no = 2")

(* The rule's self-triggering is benign here: its own updates to
   departments 2 and 3 are cuts, so the condition goes false. *)
let test_example_3_2_terminates () =
  let s = paper_system () in
  run s rule_32;
  run s
    "insert into emp values ('x', 1, 1000, 2), ('y', 2, 1000, 3), ('z', 3, \
     1000, 1)";
  run s "update emp set salary = salary * 2 where emp_no = 3";
  (* one firing: 2x raise for dept 1, then cuts; the cuts do not
     re-satisfy the condition *)
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "one firing" 1 st.Engine.rule_firings;
  Alcotest.(check (float 0.01)) "dept2 cut once" 950.0
    (float_cell s "select salary from emp where emp_no = 1")

(* Example 3.3: composite transition predicate; delete the manager of
   department 5 when some salary exceeds twice its department average. *)
let test_example_3_3 () =
  let s = paper_system () in
  run s rule_33;
  run s "insert into dept values (5, 50)";
  run s
    "insert into emp values ('mgr5', 50, 100, 5), ('a', 1, 100, 1), ('b', 2, \
     100, 1)";
  Alcotest.(check int) "manager present" 1
    (int_cell s "select count(*) from emp where emp_no = 50");
  (* trigger via update of dept_no; make 'a' an outlier: dept 1 now has
     a=500, b=100: avg=300... need salary > 2*avg; use a bigger raise *)
  run s "update emp set salary = 1000 where emp_no = 1";
  (* dept 1: salaries 1000 and 100, avg 550, 1000 < 1100: no violation *)
  Alcotest.(check int) "still present" 1
    (int_cell s "select count(*) from emp where emp_no = 50");
  run s "insert into emp values ('c', 3, 100, 1)";
  (* dept 1: 1000, 100, 100 -> avg 400; 1000 > 800: violation *)
  Alcotest.(check int) "manager of dept 5 deleted" 0
    (int_cell s "select count(*) from emp where emp_no = 50")

(* Example 4.1: recursive cascaded delete over the management
   hierarchy. *)
let org_setup s =
  (* Jane manages Mary and Jim; Mary manages Bill; Jim manages Sam and
     Sue.  Using departments: dept d is managed by employee m; an
     employee's dept_no is the department of their manager. *)
  run s
    "insert into dept values (1, 100), (2, 200), (3, 300)";
  (* Jane(100) root in dept 0; Mary(200), Jim(300) in dept 1 (managed
     by Jane); Bill in dept 2 (managed by Mary); Sam, Sue in dept 3
     (managed by Jim) *)
  run s
    "insert into emp values ('Jane', 100, 60000, 0), ('Mary', 200, 70000, 1), \
     ('Jim', 300, 40000, 1), ('Bill', 400, 25000, 2), ('Sam', 500, 30000, 3), \
     ('Sue', 600, 30000, 3)"

let test_example_4_1 () =
  let s = paper_system () in
  run s rule_41;
  org_setup s;
  (* deleting Jane cascades through the whole hierarchy *)
  run s "delete from emp where emp_no = 100";
  Alcotest.(check int) "no employees left" 0
    (int_cell s "select count(*) from emp");
  Alcotest.(check int) "no departments left" 0
    (int_cell s "select count(*) from dept");
  let st = Engine.stats (System.engine s) in
  (* firings: {Mary,Jim} then {Bill,Sam,Sue} then the empty check *)
  Alcotest.(check int) "three firings" 3 st.Engine.rule_firings

let test_example_4_1_leaf_delete () =
  let s = paper_system () in
  run s rule_41;
  org_setup s;
  (* deleting a non-manager fires the rule once (no further deletes) *)
  run s "delete from emp where emp_no = 400";
  Alcotest.(check int) "five left" 5 (int_cell s "select count(*) from emp");
  Alcotest.(check int) "departments intact" 3
    (int_cell s "select count(*) from dept")

(* Example 4.2: salary-update control. *)
let test_example_4_2 () =
  let s = paper_system () in
  run s rule_42;
  run s
    "insert into emp values ('Bill', 1, 25000, 1), ('Mary', 2, 70000, 1)";
  (* update Bill 25K->30K and Mary 70K->85K in one block: average of
     updated salaries (30K+85K)/2 = 57.5K > 50K; Mary (>80K) deleted *)
  ignore
    (System.exec_block s
       "update emp set salary = 30000 where emp_no = 1; update emp set salary \
        = 85000 where emp_no = 2");
  Alcotest.(check (list string)) "Mary deleted" [ "Bill" ]
    (string_list_cells s "select name from emp");
  (* the delete is not an update of salary: no second firing *)
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "one firing" 1 st.Engine.rule_firings

let test_example_4_2_below_threshold () =
  let s = paper_system () in
  run s rule_42;
  run s "insert into emp values ('Bill', 1, 25000, 1), ('Mary', 2, 70000, 1)";
  (* average of updated salaries below 50K: nothing happens *)
  run s "update emp set salary = 30000 where emp_no = 1";
  Alcotest.(check int) "both remain" 2 (int_cell s "select count(*) from emp")

(* Example 4.3: both rules together, with R2 (the salary rule) having
   priority over R1 (the cascade rule).  The paper walks through the
   exact interleaving; we check the final state and the firing count. *)
let test_example_4_3 () =
  let s = paper_system () in
  run s rule_41;
  run s rule_42;
  run s "create rule priority ex42 before ex41";
  org_setup s;
  (* one operation block: delete Jane, raise Mary to 85K and Bill to
     40K (updated average (85K+40K)/2 = 62.5K > 50K) *)
  ignore
    (System.exec_block s
       "delete from emp where emp_no = 100; update emp set salary = 85000 \
        where emp_no = 200; update emp set salary = 40000 where emp_no = 400");
  (* R2 fires first deleting Mary (updated and > 80K).  R1 is then
     considered with the composite deleted set {Jane, Mary}: deletes
     Bill and Jim (their managers are Jane or Mary — Bill's department
     2 is managed by Mary, Jim sits in Jane's department 1).  R1 again
     with {Bill, Jim}: deletes Sam and Sue.  Finally nothing more. *)
  Alcotest.(check int) "everyone gone" 0 (int_cell s "select count(*) from emp");
  Alcotest.(check int) "departments gone" 0
    (int_cell s "select count(*) from dept")

(* The same scenario WITHOUT the priority is confluent: every order
   ends with emp and dept empty.  Under creation order R1 fires three
   times ({Jane}, then {Mary, Jim}, then {Bill, Sam, Sue}); once the
   cascade has deleted Mary and Bill, their updates have netted into
   deletes, R2 is no longer triggered, and it is never considered.  If
   R2 acts first instead, it deletes Mary (85K; the updated salaries
   average 62.5K) and the cascade removes the rest.  The selection-order
   explorer finds one final state over every order
   (test_selection_orders.ml). *)
let test_example_4_3_confluent_without_priority () =
  let s = paper_system () in
  run s rule_41;
  run s rule_42;
  org_setup s;
  ignore
    (System.exec_block s
       "delete from emp where emp_no = 100; update emp set salary = 85000 \
        where emp_no = 200; update emp set salary = 40000 where emp_no = 400");
  Alcotest.(check int) "cascade empties emp" 0
    (int_cell s "select count(*) from emp");
  Alcotest.(check int) "cascade empties dept" 0
    (int_cell s "select count(*) from dept")

let suite =
  [
    Alcotest.test_case "example 3.1 cascaded delete" `Quick test_example_3_1;
    Alcotest.test_case "example 3.2 salary raise control" `Quick
      test_example_3_2;
    Alcotest.test_case "example 3.2 no increase" `Quick
      test_example_3_2_no_increase;
    Alcotest.test_case "example 3.2 terminates" `Quick
      test_example_3_2_terminates;
    Alcotest.test_case "example 3.3 composite predicate" `Quick
      test_example_3_3;
    Alcotest.test_case "example 4.1 recursive cascade" `Quick test_example_4_1;
    Alcotest.test_case "example 4.1 leaf delete" `Quick
      test_example_4_1_leaf_delete;
    Alcotest.test_case "example 4.2 salary update control" `Quick
      test_example_4_2;
    Alcotest.test_case "example 4.2 below threshold" `Quick
      test_example_4_2_below_threshold;
    Alcotest.test_case "example 4.3 multi-rule interleaving" `Quick
      test_example_4_3;
    Alcotest.test_case "example 4.3 confluent without priority" `Quick
      test_example_4_3_confluent_without_priority;
  ]
