(* Facade-level tests: the System API, statement dispatch, result
   rendering, and the execution-trace tooling. *)

open Core
open Helpers

let test_exec_script () =
  let s = System.create () in
  let results =
    System.exec s
      "create table t (a int); insert into t values (1); insert into t values \
       (2); select a from t"
  in
  Alcotest.(check int) "four results" 4 (List.length results);
  match List.rev results with
  | System.Relation rel :: _ ->
    Alcotest.(check int) "two rows" 2 (List.length rel.Eval.rows)
  | _ -> Alcotest.fail "last result should be a relation"

let test_render_relation () =
  let s = system "create table t (a int, name string)" in
  run s "insert into t values (1, 'x'), (22, 'longer')";
  match System.exec_one s "select * from t" with
  | System.Relation rel ->
    let text = System.render_relation rel in
    let lines = String.split_on_char '\n' text in
    Alcotest.(check int) "header + sep + 2 rows + count" 5 (List.length lines);
    Alcotest.(check bool) "row count line" true
      (List.exists (fun l -> l = "(2 rows)") lines)
  | _ -> Alcotest.fail "expected relation"

let test_render_messages () =
  Alcotest.(check string) "msg" "hi" (System.render_result (System.Msg "hi"));
  Alcotest.(check string) "committed" "committed"
    (System.render_result (System.Outcome Engine.Committed));
  Alcotest.(check string) "rolled back" "rolled back"
    (System.render_result (System.Outcome Engine.Rolled_back))

let test_show_and_describe () =
  let s = system "create table emp (name string, salary float not null)" in
  (match System.exec_one s "show tables" with
  | System.Relation rel ->
    Alcotest.(check int) "one table" 1 (List.length rel.Eval.rows)
  | _ -> Alcotest.fail "show tables");
  (match System.exec_one s "describe emp" with
  | System.Relation rel -> (
    Alcotest.(check int) "two columns" 2 (List.length rel.Eval.rows);
    match rel.Eval.rows with
    | [ _; [| _; Value.Str "FLOAT"; Value.Bool true |] ] -> ()
    | _ -> Alcotest.fail "describe shape")
  | _ -> Alcotest.fail "describe");
  run s "create rule r when inserted into emp then rollback";
  match System.exec_one s "show rules" with
  | System.Msg text ->
    Alcotest.(check bool) "rule text" true
      (String.length text > 0 && String.sub text 0 11 = "create rule")
  | _ -> Alcotest.fail "show rules"

let test_query_value () =
  let s = system "create table t (a int)" in
  Alcotest.check value_testable "empty is null" vnull
    (System.query_value s "select a from t");
  run s "insert into t values (7)";
  Alcotest.check value_testable "single cell" (vi 7)
    (System.query_value s "select a from t");
  run s "insert into t values (8)";
  expect_error (fun () -> System.query_value s "select a from t")

let test_exec_block_rejects_ddl () =
  let s = system "create table t (a int)" in
  expect_error (fun () -> System.exec_block s "create table u (b int)")

let test_transaction_statement_errors () =
  let s = system "create table t (a int)" in
  expect_error (fun () -> System.exec s "commit");
  expect_error (fun () -> System.exec s "rollback");
  run s "begin";
  expect_error (fun () -> System.exec s "begin");
  run s "commit"

let test_ddl_inside_transaction_rejected () =
  let s = system "create table t (a int)" in
  run s "begin";
  expect_error (fun () -> System.exec s "create table u (b int)");
  expect_error (fun () -> System.exec s "drop table t");
  run s "rollback"

let test_drop_table_with_rule_rejected () =
  let s = system "create table t (a int)" in
  run s "create rule r when inserted into t then rollback";
  expect_error (fun () -> System.exec s "drop table t");
  run s "drop rule r";
  run s "drop table t"

let test_rule_on_unknown_table_rejected () =
  let s = System.create () in
  expect_error (fun () ->
      System.exec s "create rule r when inserted into ghost then rollback");
  let s2 = system "create table t (a int)" in
  expect_error (fun () ->
      System.exec s2 "create rule r when updated t.ghost then rollback")

let test_trace () =
  let s = system "create table t (a int);\ncreate table log (a int)" in
  run s "create rule r when inserted into t then insert into log (select a from inserted t)";
  let eng = System.engine s in
  Engine.set_tracing eng true;
  run s "insert into t values (1), (2)";
  let trace = Engine.trace eng in
  (match trace with
  | Engine.Ev_external { effect_size = 2 }
    :: Engine.Ev_considered { rule = "r"; condition_held = true }
    :: Engine.Ev_fired { rule = "r"; effect_size = 2 }
    :: rest ->
    Alcotest.(check bool) "ends quiescent" true
      (List.exists (function Engine.Ev_quiescent -> true | _ -> false) rest)
  | _ -> Alcotest.failf "unexpected trace of %d events" (List.length trace));
  (* events render *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) "printable" true
        (String.length (Fmt.str "%a" Engine.pp_event ev) > 0))
    trace

let test_trace_rollback_event () =
  let s = system "create table t (a int)" in
  run s "create rule guard when inserted into t then rollback";
  let eng = System.engine s in
  Engine.set_tracing eng true;
  run s "insert into t values (1)";
  Alcotest.(check bool) "has rollback event" true
    (List.exists
       (function Engine.Ev_rollback { rule = "guard" } -> true | _ -> false)
       (Engine.trace eng))

(* WF89a: boolean combinations of basic transition predicates can be
   encoded with conditions over transition tables. *)
let test_conjunction_of_predicates () =
  (* fire only when BOTH an insert into a AND a delete from b occurred
     in the same transition *)
  let s =
    system
      "create table a (x int);\ncreate table b (x int);\ncreate table log (x \
       int)"
  in
  run s
    "create rule both when inserted into a or deleted from b if exists \
     (select * from inserted a) and exists (select * from deleted b) then \
     insert into log values (1)";
  run s "insert into b values (1), (2)";
  run s "insert into a values (1)";
  Alcotest.(check int) "insert alone: no" 0 (int_cell s "select count(*) from log");
  run s "delete from b where x = 1";
  Alcotest.(check int) "delete alone: no" 0 (int_cell s "select count(*) from log");
  ignore (System.exec_block s "insert into a values (2); delete from b where x = 2");
  Alcotest.(check int) "both together: yes" 1
    (int_cell s "select count(*) from log")

let test_negated_predicate () =
  (* fire on updates of t that did NOT touch column a *)
  let s = system "create table t (a int, b int);\ncreate table log (x int)" in
  run s
    "create rule not_a when updated t if not exists (select * from old \
     updated t.a) then insert into log values (1)";
  run s "insert into t values (1, 1)";
  run s "update t set b = 2";
  Alcotest.(check int) "b-update fires" 1 (int_cell s "select count(*) from log");
  run s "update t set a = 2";
  Alcotest.(check int) "a-update does not" 1
    (int_cell s "select count(*) from log")

(* [System.query] plans its select like any other statement, so its
   uncorrelated subquery runs once: the subquery's table is scanned
   once, not once per outer row. *)
let test_query_memoizes_subquery () =
  let s = system "create table t (a int)" in
  run s "insert into t values (1), (2), (3), (4), (5)";
  let st () = (Engine.stats (System.engine s)).Engine.seq_scans in
  let scans0 = st () in
  Alcotest.(check rows_testable) "rows"
    [ [| vi 3 |]; [| vi 4 |]; [| vi 5 |] ]
    (rows s "select a from t where a in (select a from t where a > 2) order by a");
  Alcotest.(check int) "seq scans" 2 (st () - scans0)

let suite =
  [
    Alcotest.test_case "exec script" `Quick test_exec_script;
    Alcotest.test_case "render relation" `Quick test_render_relation;
    Alcotest.test_case "render messages" `Quick test_render_messages;
    Alcotest.test_case "show and describe" `Quick test_show_and_describe;
    Alcotest.test_case "query_value" `Quick test_query_value;
    Alcotest.test_case "query memoizes uncorrelated subquery" `Quick
      test_query_memoizes_subquery;
    Alcotest.test_case "exec_block rejects DDL" `Quick
      test_exec_block_rejects_ddl;
    Alcotest.test_case "transaction statement errors" `Quick
      test_transaction_statement_errors;
    Alcotest.test_case "DDL inside transaction rejected" `Quick
      test_ddl_inside_transaction_rejected;
    Alcotest.test_case "drop table with rule rejected" `Quick
      test_drop_table_with_rule_rejected;
    Alcotest.test_case "rule on unknown table rejected" `Quick
      test_rule_on_unknown_table_rejected;
    Alcotest.test_case "execution trace" `Quick test_trace;
    Alcotest.test_case "trace rollback event" `Quick test_trace_rollback_event;
    Alcotest.test_case "conjunctive trigger encoding (WF89a)" `Quick
      test_conjunction_of_predicates;
    Alcotest.test_case "negated trigger encoding (WF89a)" `Quick
      test_negated_predicate;
  ]
