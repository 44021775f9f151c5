(* Query evaluator tests: filters, joins, aggregates, grouping,
   subqueries, ordering, distinct, null semantics. *)

open Core
open Helpers

let sample () =
  system
    "create table emp (name string, emp_no int, salary float, dept_no int);\n\
     create table dept (dept_no int, mgr_no int);\n\
     insert into dept values (1, 10), (2, 20), (3, 30);\n\
     insert into emp values ('Jane', 10, 90000, 1), ('Mary', 20, 60000, 2), \
     ('Jim', 30, 55000, 2), ('Bill', 40, 30000, 3), ('Sam', 50, null, 3)"

let names s sql = string_list_cells s sql

let test_scan_and_filter () =
  let s = sample () in
  Alcotest.(check int) "all" 5 (int_cell s "select count(*) from emp");
  Alcotest.(check (list string)) "filter"
    [ "Jane"; "Mary" ]
    (names s "select name from emp where salary > 55000");
  Alcotest.(check (list string)) "neq"
    [ "Jane"; "Bill"; "Sam" ]
    (names s "select name from emp where dept_no <> 2")

let test_null_filter_semantics () =
  let s = sample () in
  (* Sam has null salary: neither selected by > nor by <= *)
  Alcotest.(check int) "gt" 2 (int_cell s "select count(*) from emp where salary > 55000");
  Alcotest.(check int) "le" 2
    (int_cell s "select count(*) from emp where salary <= 55000");
  Alcotest.(check (list string)) "is null" [ "Sam" ]
    (names s "select name from emp where salary is null");
  Alcotest.(check int) "is not null" 4
    (int_cell s "select count(*) from emp where salary is not null");
  (* NOT of unknown is unknown: still not selected *)
  Alcotest.(check int) "not gt" 2
    (int_cell s "select count(*) from emp where not (salary > 55000)")

let test_projection () =
  let s = sample () in
  let cols, rows = System.query s "select name, salary * 2 as double_pay from emp where emp_no = 10" in
  Alcotest.(check (list string)) "headers" [ "name"; "double_pay" ] cols;
  Alcotest.(check rows_testable) "row" [ [| vs "Jane"; vf 180000.0 |] ] rows;
  (* implicit name for expression *)
  let cols, _ = System.query s "select salary + 1 from emp where emp_no = 10" in
  Alcotest.(check int) "one col" 1 (List.length cols)

let test_star_projections () =
  let s = sample () in
  let cols, rows = System.query s "select * from dept order by dept_no" in
  Alcotest.(check (list string)) "star cols" [ "dept_no"; "mgr_no" ] cols;
  Alcotest.(check int) "star rows" 3 (List.length rows);
  let cols, _ =
    System.query s
      "select e.*, d.mgr_no from emp e, dept d where e.dept_no = d.dept_no"
  in
  Alcotest.(check (list string)) "table star"
    [ "name"; "emp_no"; "salary"; "dept_no"; "mgr_no" ]
    cols

let test_join () =
  let s = sample () in
  Alcotest.(check int) "inner join count" 5
    (int_cell s
       "select count(*) from emp e, dept d where e.dept_no = d.dept_no");
  Alcotest.(check int) "cross product" 15
    (int_cell s "select count(*) from emp, dept");
  (* self join with aliases *)
  Alcotest.(check int) "self join" 2
    (int_cell s
       "select count(*) from emp e1, emp e2 where e1.dept_no = e2.dept_no and \
        e1.emp_no < e2.emp_no")

let test_duplicate_from_rejected () =
  let s = sample () in
  expect_error (fun () -> System.query s "select * from emp, emp")

let test_aggregates () =
  let s = sample () in
  Alcotest.(check int) "count star" 5 (int_cell s "select count(*) from emp");
  (* count/avg/sum ignore nulls *)
  Alcotest.(check int) "count col" 4 (int_cell s "select count(salary) from emp");
  Alcotest.(check (float 0.01)) "sum" 235000.0
    (float_cell s "select sum(salary) from emp");
  Alcotest.(check (float 0.01)) "avg over non-null" 58750.0
    (float_cell s "select avg(salary) from emp");
  Alcotest.(check (float 0.01)) "min" 30000.0
    (float_cell s "select min(salary) from emp");
  Alcotest.(check (float 0.01)) "max" 90000.0
    (float_cell s "select max(salary) from emp");
  (* aggregates over empty sets *)
  Alcotest.(check int) "count empty" 0
    (int_cell s "select count(*) from emp where salary > 1000000");
  Alcotest.check value_testable "sum empty is null" vnull
    (cell s "select sum(salary) from emp where salary > 1000000");
  Alcotest.check value_testable "min empty is null" vnull
    (cell s "select min(salary) from emp where 1 = 2")

let test_group_by_having () =
  let s = sample () in
  let _, rows =
    System.query s
      "select dept_no, count(*) as n from emp group by dept_no order by dept_no"
  in
  Alcotest.(check rows_testable) "groups"
    [ [| vi 1; vi 1 |]; [| vi 2; vi 2 |]; [| vi 3; vi 2 |] ]
    rows;
  let _, rows =
    System.query s
      "select dept_no from emp group by dept_no having count(*) > 1 order by \
       dept_no"
  in
  Alcotest.(check rows_testable) "having" [ [| vi 2 |]; [| vi 3 |] ] rows;
  (* grouped aggregate with nulls in group *)
  let _, rows =
    System.query s
      "select dept_no, count(salary) from emp group by dept_no order by dept_no"
  in
  Alcotest.(check rows_testable) "count ignores nulls"
    [ [| vi 1; vi 1 |]; [| vi 2; vi 2 |]; [| vi 3; vi 1 |] ]
    rows

let test_subqueries () =
  let s = sample () in
  (* scalar *)
  Alcotest.(check (list string)) "scalar" [ "Jane" ]
    (names s
       "select name from emp where salary = (select max(salary) from emp)");
  (* in select *)
  Alcotest.(check (list string)) "in" [ "Mary"; "Jim" ]
    (names s
       "select name from emp where dept_no in (select dept_no from dept where \
        mgr_no = 20)");
  (* correlated exists *)
  Alcotest.(check (list string)) "correlated"
    [ "Jane"; "Mary"; "Jim"; "Bill"; "Sam" ]
    (names s
       "select name from emp e where exists (select * from dept d where \
        d.dept_no = e.dept_no)");
  (* correlated scalar: employees above their department average *)
  Alcotest.(check (list string)) "above dept avg" [ "Mary" ]
    (names s
       "select name from emp e1 where salary > (select avg(salary) from emp \
        e2 where e2.dept_no = e1.dept_no)");
  (* scalar subquery with no rows is null *)
  Alcotest.(check int) "empty scalar" 0
    (int_cell s
       "select count(*) from emp where salary = (select salary from emp where \
        1 = 2)");
  (* scalar subquery with two rows errors *)
  expect_error (fun () ->
      System.query s "select name from emp where salary = (select salary from emp)")

let test_in_null_semantics () =
  let s = sample () in
  (* Sam's null salary: "salary in (...)" is unknown, row not selected;
     "salary not in (...)" also unknown *)
  Alcotest.(check int) "in" 0
    (int_cell s "select count(*) from emp where salary in (null)");
  Alcotest.(check int) "not in with null element" 0
    (int_cell s "select count(*) from emp where salary not in (30000, null)");
  Alcotest.(check int) "not in without nulls" 3
    (int_cell s
       "select count(*) from emp where salary not in (30000, null) or salary \
        not in (30000)")

let test_order_by_limit () =
  let s = sample () in
  Alcotest.(check (list string)) "asc nulls first"
    [ "Sam"; "Bill"; "Jim"; "Mary"; "Jane" ]
    (names s "select name from emp order by salary");
  Alcotest.(check (list string)) "desc"
    [ "Jane"; "Mary"; "Jim"; "Bill"; "Sam" ]
    (names s "select name from emp order by salary desc");
  Alcotest.(check (list string)) "two keys"
    [ "Sam"; "Bill"; "Jim"; "Mary"; "Jane" ]
    (names s "select name from emp order by dept_no desc, salary asc");
  Alcotest.(check (list string)) "limit"
    [ "Jane"; "Mary" ]
    (names s "select name from emp order by salary desc limit 2");
  Alcotest.(check (list string)) "limit zero" []
    (names s "select name from emp limit 0")

let test_distinct () =
  let s = sample () in
  Alcotest.(check int) "distinct depts" 3
    (List.length (rows s "select distinct dept_no from emp"));
  Alcotest.(check int) "plain depts" 5
    (List.length (rows s "select dept_no from emp"))

let test_derived_tables () =
  let s = sample () in
  Alcotest.(check int) "derived" 2
    (int_cell s
       "select count(*) from (select name from emp where dept_no = 2) sub");
  Alcotest.(check (list string)) "derived projection" [ "Mary"; "Jim" ]
    (names s "select sub.name from (select name from emp where dept_no = 2) sub")

let test_expressions_in_select () =
  let s = sample () in
  Alcotest.(check string) "concat" "Jane!"
    (match cell s "select name || '!' from emp where emp_no = 10" with
    | Value.Str str -> str
    | _ -> Alcotest.fail "not a string");
  Alcotest.(check int) "case" 2
    (int_cell s
       "select count(*) from emp where case when salary > 55000 then true \
        else false end");
  Alcotest.(check int) "between" 3
    (int_cell s "select count(*) from emp where salary between 30000 and 60000");
  Alcotest.(check int) "like" 3
    (int_cell s "select count(*) from emp where name like 'J%' or name like '%y'")

let test_compound_queries () =
  let s = system "create table a (x int);\ncreate table b (x int)" in
  run s "insert into a values (1), (2), (2), (3)";
  run s "insert into b values (2), (3), (4)";
  let col sql = List.map (fun r -> r.(0)) (rows s sql) in
  Alcotest.(check (list value_testable)) "union dedupes"
    [ vi 1; vi 2; vi 3; vi 4 ]
    (col "select x from a union select x from b order by x");
  Alcotest.(check int) "union all keeps duplicates" 7
    (List.length (rows s "select x from a union all select x from b"));
  Alcotest.(check (list value_testable)) "except"
    [ vi 1 ]
    (col "select x from a except select x from b");
  Alcotest.(check (list value_testable)) "intersect"
    [ vi 2; vi 3 ]
    (col "select x from a intersect select x from b order by x");
  (* chain of three, with limit over the combined result *)
  Alcotest.(check (list value_testable)) "chained with limit"
    [ vi 4; vi 3 ]
    (col
       "select x from a union select x from b union select 9 where 1 = 2 \
        order by x desc limit 2");
  (* arity mismatch *)
  expect_error (fun () ->
      System.query s "select x from a union select x, x from b");
  (* compound inside IN subquery *)
  Alcotest.(check int) "compound subquery" 3
    (int_cell s
       "select count(*) from a where x in (select x from b except select 4)")

let test_select_no_from () =
  let s = sample () in
  let _, rows = System.query s "select 1 + 1, 'x'" in
  Alcotest.(check rows_testable) "constants" [ [| vi 2; vs "x" |] ] rows

let test_empty_table_headers () =
  let s = system "create table t (a int, b string)" in
  let cols, rows = System.query s "select * from t" in
  Alcotest.(check (list string)) "headers survive emptiness" [ "a"; "b" ] cols;
  Alcotest.(check int) "no rows" 0 (List.length rows)

let test_error_cases () =
  let s = sample () in
  expect_error (fun () -> System.query s "select nope from emp");
  expect_error (fun () -> System.query s "select name from nope");
  (* ambiguous column across two tables *)
  expect_error (fun () ->
      System.query s "select dept_no from emp e, dept d where 1 = 1");
  (* aggregate in where *)
  expect_error (fun () ->
      System.query s "select name from emp where count(*) > 1");
  (* unknown qualified column *)
  expect_error (fun () -> System.query s "select e.nope from emp e")

(* Hash joins and GROUP BY hash their keys; a key must find every key
   [Value.compare_total] calls equal, across Int and Float (including
   -0.0, NaN and the 2^53 boundary where ints stop being exact
   floats). *)
let gen_key_value st =
  let open QCheck.Gen in
  let big = 9007199254740992 in
  match int_bound 8 st with
  | 0 -> Value.Null
  | 1 -> Value.Int (int_range (-3) 3 st)
  | 2 -> Value.Float (float_of_int (int_range (-3) 3 st))
  | 3 -> Value.Float (oneofl [ -0.0; 0.0; Float.nan; 0.5; -2.5 ] st)
  | 4 -> Value.Int (big + int_range (-2) 2 st)
  | 5 -> Value.Float (float_of_int (big + int_range (-2) 2 st))
  | 6 -> Value.Str (oneofl [ "a"; "b" ] st)
  | 7 -> Value.Bool (bool st)
  | _ -> Value.Int (-big + int_range (-2) 2 st)

let prop_hashed_keys_match_compare_total =
  QCheck.Test.make ~count:2000 ~name:"hashed keys agree with compare_total"
    (QCheck.make
       ~print:(fun (a, b) -> Value.to_string a ^ " / " ^ Value.to_string b)
       (QCheck.Gen.pair gen_key_value gen_key_value))
    (fun (a, b) ->
      let equal = Value.compare_total a b = 0 in
      let groups = Eval.Row_tbl.create 4 in
      Eval.Row_tbl.add groups [| a; Value.Int 1 |] ();
      let joined = Eval.build_join_table ~size:1 0 (fun f -> f [| a |]) in
      Eval.Row_tbl.mem groups [| b; Value.Int 1 |] = equal
      && (Eval.join_matches joined b <> []) = equal)

let suite =
  [
    Alcotest.test_case "scan and filter" `Quick test_scan_and_filter;
    Alcotest.test_case "null filter semantics" `Quick test_null_filter_semantics;
    Alcotest.test_case "projection" `Quick test_projection;
    Alcotest.test_case "star projections" `Quick test_star_projections;
    Alcotest.test_case "joins" `Quick test_join;
    Alcotest.test_case "duplicate from rejected" `Quick
      test_duplicate_from_rejected;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "group by / having" `Quick test_group_by_having;
    Alcotest.test_case "subqueries" `Quick test_subqueries;
    Alcotest.test_case "IN null semantics" `Quick test_in_null_semantics;
    Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "derived tables" `Quick test_derived_tables;
    Alcotest.test_case "expressions" `Quick test_expressions_in_select;
    Alcotest.test_case "compound queries" `Quick test_compound_queries;
    Alcotest.test_case "select without from" `Quick test_select_no_from;
    Alcotest.test_case "empty table headers" `Quick test_empty_table_headers;
    Alcotest.test_case "error cases" `Quick test_error_cases;
    QCheck_alcotest.to_alcotest prop_hashed_keys_match_compare_total;
  ]
