(* DML execution and affected-set semantics (paper Section 2.1). *)

open Core
open Helpers

module Dml = Sqlf.Dml

let setup () =
  let db = Database.empty in
  let db =
    Database.create_table db
      (Schema.table "t"
         [
           Schema.column "a" Schema.T_int;
           Schema.column "b" Schema.T_string;
           Schema.column "c" Schema.T_float;
         ])
  in
  db

let exec db sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_op op -> Dml.exec_op (Eval.base_resolver db) db op
  | _ -> Alcotest.fail "expected a DML statement"

let exec_tracked db sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_op op ->
    Dml.exec_op ~track_selects:true (Eval.base_resolver db) db op
  | _ -> Alcotest.fail "expected a DML statement"

let test_insert_values_affected () =
  let db = setup () in
  let r = exec db "insert into t values (1, 'x', 2.5), (2, 'y', 3.5)" in
  (match r.Dml.affected with
  | Dml.A_insert [ h1; h2 ] ->
    Alcotest.(check string) "table" "t" (Handle.table h1);
    Alcotest.(check bool) "distinct" false (Handle.equal h1 h2)
  | _ -> Alcotest.fail "affected");
  Alcotest.(check int) "rows" 2 (Database.total_rows r.Dml.db)

let test_insert_select_affected () =
  let db = setup () in
  let r = exec db "insert into t values (1, 'x', 1.0), (2, 'y', 2.0)" in
  let r2 = exec r.Dml.db "insert into t (select a + 10, b, c from t)" in
  (match r2.Dml.affected with
  | Dml.A_insert [ _; _ ] -> ()
  | _ -> Alcotest.fail "two inserted");
  Alcotest.(check int) "four rows" 4 (Database.total_rows r2.Dml.db)

let test_insert_self_select_no_loop () =
  (* the embedded select is evaluated against the pre-operation state *)
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 1.0)").Dml.db in
  let r = exec db "insert into t (select * from t)" in
  Alcotest.(check int) "doubled once" 2 (Database.total_rows r.Dml.db)

let test_insert_column_list_defaults () =
  let db = Database.empty in
  let db =
    Database.create_table db
      (Schema.table "d"
         [
           Schema.column "a" Schema.T_int;
           Schema.column ~default:(vi 7) "b" Schema.T_int;
         ])
  in
  let r = exec db "insert into d (a) values (1)" in
  (match Database.table r.Dml.db "d" |> Table.rows with
  | [ [| a; b |] ] ->
    Alcotest.check value_testable "a" (vi 1) a;
    Alcotest.check value_testable "default" (vi 7) b
  | _ -> Alcotest.fail "one row");
  expect_error (fun () -> exec db "insert into d (a, nope) values (1, 2)")

let test_delete_affected () =
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 1.0), (2, 'y', 2.0), (3, 'z', 3.0)").Dml.db in
  let r = exec db "delete from t where a >= 2" in
  (match r.Dml.affected with
  | Dml.A_delete [ (h1, row1); (_, row2) ] ->
    Alcotest.(check string) "table" "t" (Handle.table h1);
    (* the affected set carries the deleted values *)
    Alcotest.check value_testable "old value" (vs "y") row1.(1);
    Alcotest.check value_testable "old value 2" (vs "z") row2.(1)
  | _ -> Alcotest.fail "two deleted");
  Alcotest.(check int) "one left" 1 (Database.total_rows r.Dml.db)

let test_delete_no_predicate () =
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 1.0)").Dml.db in
  let r = exec db "delete from t" in
  Alcotest.(check int) "all gone" 0 (Database.total_rows r.Dml.db)

let test_update_affected_even_when_unchanged () =
  (* Section 2.1: the affected set includes tuples selected for update
     even if the stored value does not change *)
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 1.0)").Dml.db in
  let r = exec db "update t set a = a" in
  match r.Dml.affected with
  | Dml.A_update [ (_, [ "a" ], old_row) ] ->
    Alcotest.check value_testable "old recorded" (vi 1) old_row.(0)
  | _ -> Alcotest.fail "one update pair"

let test_update_multiple_columns () =
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 1.0)").Dml.db in
  let r = exec db "update t set a = a + 1, c = c * 2.0" in
  (match r.Dml.affected with
  | Dml.A_update [ (_, cols, _) ] ->
    Alcotest.(check (list string)) "columns" [ "a"; "c" ] cols
  | _ -> Alcotest.fail "affected");
  match Database.table r.Dml.db "t" |> Table.rows with
  | [ [| a; _; c |] ] ->
    Alcotest.check value_testable "a" (vi 2) a;
    Alcotest.check value_testable "c" (vf 2.0) c
  | _ -> Alcotest.fail "one row"

let test_update_set_sees_old_values () =
  (* swap semantics: both assignments read the pre-update tuple *)
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 5.0)").Dml.db in
  let r = exec db "update t set a = 100, c = a + 0.0" in
  match Database.table r.Dml.db "t" |> Table.rows with
  | [ [| a; _; c |] ] ->
    Alcotest.check value_testable "a new" (vi 100) a;
    Alcotest.check value_testable "c from old a" (vf 1.0) c
  | _ -> Alcotest.fail "one row"

let test_update_subquery_pre_state () =
  (* predicate subqueries see the pre-operation state *)
  let db = setup () in
  let db =
    (exec db "insert into t values (1, 'x', 1.0), (5, 'y', 5.0)").Dml.db
  in
  let r = exec db "update t set a = a + 10 where a < (select max(a) from t)" in
  match r.Dml.affected with
  | Dml.A_update [ (_, _, old_row) ] ->
    Alcotest.check value_testable "only the small one" (vi 1) old_row.(0)
  | _ -> Alcotest.fail "exactly one updated"

let test_update_unknown_column () =
  let db = setup () in
  expect_error (fun () -> exec db "update t set nope = 1")

let test_select_read_set_single_table () =
  let db = setup () in
  let db =
    (exec db "insert into t values (1, 'x', 1.0), (2, 'y', 2.0), (3, 'z', 3.0)").Dml.db
  in
  let r = exec_tracked db "select b from t where a >= 2" in
  (match r.Dml.affected with
  | Dml.A_select [ (cols, handles) ] ->
    Alcotest.(check int) "precise read set" 2 (List.length handles);
    Alcotest.(check bool) "cols include a" true (List.mem "a" cols);
    Alcotest.(check bool) "cols include b" true (List.mem "b" cols);
    Alcotest.(check bool) "cols exclude c" false (List.mem "c" cols)
  | _ -> Alcotest.fail "select affected");
  match r.Dml.result with
  | Some rel -> Alcotest.(check int) "rows returned" 2 (List.length rel.Eval.rows)
  | None -> Alcotest.fail "no result rows"

(* The read set of a tracked select, as (columns, the [a] value of each
   tuple read) per table read. *)
let read_set db sql =
  match (exec_tracked db sql).Dml.affected with
  | Dml.A_select reads ->
    List.map
      (fun (cols, handles) ->
        ( cols,
          List.map (fun h -> Value.to_string (Database.get_row db h).(0)) handles ))
      reads
  | _ -> Alcotest.fail "select affected"

let read_set_testable = Alcotest.(list (pair (list string) (list string)))

let five_rows () =
  (exec (setup ())
     "insert into t values (1, 'v', 1.0), (2, 'w', 2.0), (3, 'x', 3.0), \
      (4, 'y', 4.0), (5, 'z', 5.0)")
    .Dml.db

(* The read set comes from the rows the executor produced, by index
   probe or by scan: both report the same tuples and columns. *)
let test_read_set_index_independent () =
  let db = five_rows () in
  let indexed = Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a" ~kind:`Hash in
  List.iter
    (fun sql ->
      Alcotest.check read_set_testable sql (read_set db sql) (read_set indexed sql))
    [
      "select b from t where a = 3";
      "select b from t where a in (2, 4) and c > 1.5";
      "select * from t where a = 9";
      "select c from t where b = 'x' or a = 1";
    ];
  Alcotest.check read_set_testable "probe read set"
    [ ([ "b"; "a" ], [ "3" ]) ]
    (read_set indexed "select b from t where a = 3")

(* DISTINCT, ORDER BY and LIMIT shape the output, not what was read. *)
let test_read_set_ignores_limit () =
  let db = five_rows () in
  let r = exec_tracked db "select distinct c from t where a >= 2 order by c desc limit 1" in
  (match r.Dml.result with
  | Some rel -> Alcotest.(check int) "one row returned" 1 (List.length rel.Eval.rows)
  | None -> Alcotest.fail "no result");
  Alcotest.check read_set_testable "every qualifying row read"
    [ ([ "c"; "a" ], [ "2"; "3"; "4"; "5" ]) ]
    (read_set db "select distinct c from t where a >= 2 order by c desc limit 1")

(* Beside a derived table or in a join, a base table counts as read in
   full; so does a grouped select's. *)
let test_read_set_conservative_shapes () =
  let db = five_rows () in
  let all = [ "1"; "2"; "3"; "4"; "5" ] in
  Alcotest.check read_set_testable "base plus derived"
    [ ([ "b"; "a" ], all) ]
    (read_set db "select b from t, (select 1 as one) d where a = one");
  Alcotest.check read_set_testable "grouped"
    [ ([ "b"; "a" ], all) ]
    (read_set db "select b, count(a) from t where a > 3 group by b")

(* A row the executor never tested is not read, even when its WHERE
   would raise: the probe on [a = 2] skips the row whose [10 / (a - 1)]
   divides by zero. *)
let test_read_set_skips_unevaluated_rows () =
  let db = five_rows () in
  let indexed = Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a" ~kind:`Hash in
  Alcotest.check read_set_testable "probed row only"
    [ ([ "b"; "a" ], [ "2" ]) ]
    (read_set indexed "select b from t where a = 2 and 10 / (a - 1) > 0");
  expect_error (fun () ->
      exec_tracked db "select b from t where a = 2 and 10 / (a - 1) > 0")

(* Through the engine, in a transition table: an EXECUTE of a prepared
   select records exactly the rows its bound predicate matched, under
   both evaluators. *)
let test_read_set_prepared () =
  List.iter
    (fun compiled ->
      with_compile compiled (fun () ->
          let config = { Engine.default_config with Engine.track_selects = true } in
          let s = system ~config "create table t (a int, b int); create table log (a int)" in
          run s
            "create rule audit when selected t then insert into log (select a from \
             selected t)";
          run s "insert into t values (1, 10), (2, 20), (3, 30), (4, 40)";
          run s "prepare q as select b from t where a > ? limit 1";
          run s "begin";
          run s "execute q (2)";
          run s "commit";
          Alcotest.check rows_testable "matching rows only"
            [ [| vi 3 |]; [| vi 4 |] ]
            (rows s "select a from log order by a")))
    [ true; false ]

let test_select_read_set_untracked () =
  let db = setup () in
  let db = (exec db "insert into t values (1, 'x', 1.0)").Dml.db in
  let r = exec db "select * from t" in
  match r.Dml.affected with
  | Dml.A_select [] -> ()
  | _ -> Alcotest.fail "untracked select reports nothing"

let suite =
  [
    Alcotest.test_case "insert values affected set" `Quick
      test_insert_values_affected;
    Alcotest.test_case "insert select affected set" `Quick
      test_insert_select_affected;
    Alcotest.test_case "insert from self does not loop" `Quick
      test_insert_self_select_no_loop;
    Alcotest.test_case "insert column list and defaults" `Quick
      test_insert_column_list_defaults;
    Alcotest.test_case "delete affected set carries values" `Quick
      test_delete_affected;
    Alcotest.test_case "delete without predicate" `Quick test_delete_no_predicate;
    Alcotest.test_case "update affected even when value unchanged" `Quick
      test_update_affected_even_when_unchanged;
    Alcotest.test_case "update multiple columns" `Quick
      test_update_multiple_columns;
    Alcotest.test_case "update reads old values" `Quick
      test_update_set_sees_old_values;
    Alcotest.test_case "update subquery sees pre-state" `Quick
      test_update_subquery_pre_state;
    Alcotest.test_case "update unknown column" `Quick test_update_unknown_column;
    Alcotest.test_case "select read set (single table)" `Quick
      test_select_read_set_single_table;
    Alcotest.test_case "select untracked" `Quick test_select_read_set_untracked;
    Alcotest.test_case "read set: index or scan alike" `Quick
      test_read_set_index_independent;
    Alcotest.test_case "read set: limit keeps every qualifying row" `Quick
      test_read_set_ignores_limit;
    Alcotest.test_case "read set: conservative shapes" `Quick
      test_read_set_conservative_shapes;
    Alcotest.test_case "read set: rows the probe skipped" `Quick
      test_read_set_skips_unevaluated_rows;
    Alcotest.test_case "read set: prepared select" `Quick test_read_set_prepared;
  ]
