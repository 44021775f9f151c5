(* Transition-table materialization tests, driven through the engine so
   the tables are exactly what rule conditions/actions observe. *)

open Core
open Helpers

(* Install a probe rule whose action copies a transition table into a
   log table, so tests can inspect what the rule saw. *)
let probe_system ~preds ~select =
  let s =
    system
      "create table t (a int, b string);\n\
       create table log (a int, b string)"
  in
  run s
    (Printf.sprintf "create rule probe when %s then insert into log (%s)" preds
       select);
  s

let log_rows s = rows s "select a, b from log order by a"

let test_inserted_table () =
  let s = probe_system ~preds:"inserted into t" ~select:"select * from inserted t" in
  run s "insert into t values (1, 'x'), (2, 'y')";
  Alcotest.check rows_testable "both inserted"
    [ [| vi 1; vs "x" |]; [| vi 2; vs "y" |] ]
    (log_rows s)

let test_deleted_table () =
  let s = probe_system ~preds:"deleted from t" ~select:"select * from deleted t" in
  run s "insert into t values (1, 'x'), (2, 'y'), (3, 'z')";
  run s "delete from t where a >= 2";
  Alcotest.check rows_testable "deleted values"
    [ [| vi 2; vs "y" |]; [| vi 3; vs "z" |] ]
    (log_rows s)

let test_old_updated_table () =
  let s =
    probe_system ~preds:"updated t.a" ~select:"select * from old updated t.a"
  in
  run s "insert into t values (1, 'x'), (2, 'y')";
  run s "update t set a = a + 10 where a = 2";
  Alcotest.check rows_testable "old value" [ [| vi 2; vs "y" |] ] (log_rows s)

let test_new_updated_table () =
  let s =
    probe_system ~preds:"updated t.a" ~select:"select * from new updated t.a"
  in
  run s "insert into t values (1, 'x'), (2, 'y')";
  run s "update t set a = a + 10 where a = 2";
  Alcotest.check rows_testable "new value" [ [| vi 12; vs "y" |] ] (log_rows s)

let test_updated_without_column () =
  (* "updated t" exposes tuples updated in any column *)
  let s =
    probe_system ~preds:"updated t" ~select:"select * from old updated t"
  in
  run s "insert into t values (1, 'x'), (2, 'y')";
  run s "update t set b = 'z' where a = 1";
  Alcotest.check rows_testable "by other column" [ [| vi 1; vs "x" |] ] (log_rows s)

let test_column_restriction () =
  (* updated t.a must not fire for updates of b alone *)
  let s =
    probe_system ~preds:"updated t.a" ~select:"select * from old updated t.a"
  in
  run s "insert into t values (1, 'x')";
  run s "update t set b = 'q'";
  Alcotest.check rows_testable "not triggered" [] (log_rows s)

(* Within one operation block, the transition tables reflect the NET
   effect: a tuple inserted and updated in the same block appears in
   "inserted t" with its updated value and not in "new updated t". *)
let test_net_effect_within_block () =
  let s =
    system
      "create table t (a int, b string);\n\
       create table ins_log (a int, b string);\n\
       create table upd_log (a int, b string)"
  in
  run s
    "create rule probe_ins when inserted into t then insert into ins_log \
     (select * from inserted t)";
  run s
    "create rule probe_upd when updated t then insert into upd_log (select * \
     from new updated t)";
  ignore
    (System.exec_block s
       "insert into t values (1, 'x'); update t set b = 'y' where a = 1");
  Alcotest.check rows_testable "inserted with updated value"
    [ [| vi 1; vs "y" |] ]
    (rows s "select a, b from ins_log");
  Alcotest.check rows_testable "no update reported" []
    (rows s "select a, b from upd_log")

let test_delete_within_block_suppresses () =
  let s = probe_system ~preds:"inserted into t" ~select:"select * from inserted t" in
  ignore
    (System.exec_block s
       "insert into t values (1, 'x'); delete from t where a = 1");
  Alcotest.check rows_testable "insert+delete invisible" [] (log_rows s)

let test_alias_references () =
  (* transition tables can take table variables, as in the paper's
     "from ..., inserted t tvar, ..." *)
  let s =
    system
      "create table t (a int, b string);\n\
       create table log (a int, b string)"
  in
  run s
    "create rule probe when inserted into t then insert into log (select i.a, \
     i.b from inserted t i where i.a > 1)";
  run s "insert into t values (1, 'x'), (5, 'y')";
  Alcotest.check rows_testable "alias works" [ [| vi 5; vs "y" |] ] (log_rows s)

let test_illegal_reference_rejected () =
  (* Section 3's syntactic restriction: a rule may only reference
     transition tables matching its own transition predicates *)
  let s = system "create table t (a int, b string)" in
  expect_error (fun () ->
      System.exec s
        "create rule bad when inserted into t then delete from t where a in \
         (select a from deleted t)")

let test_reference_outside_rule_rejected () =
  let s = system "create table t (a int, b string)" in
  expect_error (fun () -> System.query s "select * from inserted t")

(* Rows come out in handle (insertion) order when the composite holds
   two tables' handles interleaved and its transitions reach them out
   of handle order.  Within each table the values fall as the handles
   rise, so a sort by value would reverse every pair. *)
let test_row_order_two_tables () =
  let table name = Schema.table name [ Schema.column "a" Schema.T_int ] in
  let db =
    Database.create_table
      (Database.create_table Database.empty (table "t"))
      (table "u")
  in
  let db, hs =
    List.fold_left
      (fun (db, hs) (tbl, a) ->
        let db, h = Database.insert db tbl [| vi a |] in
        (db, hs @ [ h ]))
      (db, [])
      [
        ("t", 5); ("u", 50); ("t", 9); ("u", 90); ("t", 8); ("u", 80);
        ("t", 1); ("u", 10); ("t", 2); ("u", 20); ("t", 3); ("u", 30);
      ]
  in
  let h i = List.nth hs i in
  let old i = Database.get_row db (h i) in
  let del is = eff_del (List.map (fun i -> (h i, old i)) is) in
  let upd is = eff_upd (List.map (fun i -> (h i, [ "a" ], old i)) is) in
  (* one read per base table, as a select reports them *)
  let sel is =
    eff_sel
      (List.map
         (fun tbl ->
           ([ "a" ], List.filter (fun x -> Handle.table x = tbl) (List.map h is)))
         [ "t"; "u" ])
  in
  let composite =
    List.fold_left Effect.compose Effect.empty
      [
        del [ 6; 7 ]; upd [ 8; 9 ]; sel [ 10; 11 ];
        del [ 0; 1 ]; upd [ 2; 3 ]; sel [ 4; 5 ];
      ]
  in
  let db =
    List.fold_left (fun db i -> Database.delete db (h i)) db [ 0; 1; 6; 7 ]
  in
  let db =
    List.fold_left
      (fun db i ->
        Database.update db (h i) [| Value.add (old i).(0) (vi 100) |])
      db [ 2; 3; 8; 9 ]
  in
  let check name expected tt =
    Alcotest.check rows_testable name
      (List.map (fun a -> [| vi a |]) expected)
      (Rules.Transition_tables.materialize composite ~current_db:db tt)
        .Eval.rows
  in
  check "deleted t" [ 5; 1 ] (Ast.Tt_deleted "t");
  check "deleted u" [ 50; 10 ] (Ast.Tt_deleted "u");
  check "old updated t" [ 9; 2 ] (Ast.Tt_old_updated ("t", None));
  check "old updated u.a" [ 90; 20 ] (Ast.Tt_old_updated ("u", Some "a"));
  check "new updated t" [ 109; 102 ] (Ast.Tt_new_updated ("t", None));
  check "selected t" [ 8; 3 ] (Ast.Tt_selected ("t", None));
  check "selected u.a" [ 80; 30 ] (Ast.Tt_selected ("u", Some "a"))

let suite =
  [
    Alcotest.test_case "inserted" `Quick test_inserted_table;
    Alcotest.test_case "deleted" `Quick test_deleted_table;
    Alcotest.test_case "old updated t.c" `Quick test_old_updated_table;
    Alcotest.test_case "new updated t.c" `Quick test_new_updated_table;
    Alcotest.test_case "updated t (any column)" `Quick
      test_updated_without_column;
    Alcotest.test_case "column restriction" `Quick test_column_restriction;
    Alcotest.test_case "net effect within block" `Quick
      test_net_effect_within_block;
    Alcotest.test_case "insert+delete invisible" `Quick
      test_delete_within_block_suppresses;
    Alcotest.test_case "alias references" `Quick test_alias_references;
    Alcotest.test_case "illegal transition reference rejected" `Quick
      test_illegal_reference_rejected;
    Alcotest.test_case "transition table outside rules rejected" `Quick
      test_reference_outside_rule_rejected;
    Alcotest.test_case "row order across two tables" `Quick
      test_row_order_two_tables;
  ]
