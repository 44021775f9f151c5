(* Tests for the instance-oriented (tuple-at-a-time) baseline engine,
   including the semantic differences from set-oriented execution that
   the paper calls out. *)

open Core
open Helpers

let parse_rule sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_create_rule def -> def
  | _ -> Alcotest.fail "expected a rule"

let parse_ops sql =
  List.map
    (function
      | Ast.Stmt_op op -> op
      | _ -> Alcotest.fail "expected DML")
    (Parser.parse_script sql)

let make_instance_system ?config tables =
  let ie = Instance_engine.create ?config Database.empty in
  List.iter
    (fun (name, cols) ->
      Instance_engine.create_table ie (Schema.table name cols))
    tables;
  ie

let t_table = [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ]
let log_table = [ Schema.column "n" Schema.T_int ]

let count ie table =
  match
    (Instance_engine.query ie
       (Parser.parse_select_string (Printf.sprintf "select count(*) from %s" table)))
      .Eval.rows
  with
  | [ [| Value.Int n |] ] -> n
  | _ -> Alcotest.fail "count"

let test_per_row_firing () =
  let ie = make_instance_system [ ("t", t_table); ("log", log_table) ] in
  ignore
    (Instance_engine.create_rule ie
       (parse_rule
          "create rule audit when inserted into t then insert into log \
           (select a from inserted t)"));
  let outcome =
    Instance_engine.execute_block ie
      (parse_ops "insert into t values (1, 'x'), (2, 'y'), (3, 'z')")
  in
  Alcotest.(check bool) "committed" true (outcome = Instance_engine.Committed);
  (* three separate firings, one per row *)
  Alcotest.(check int) "log rows" 3 (count ie "log");
  Alcotest.(check int) "three firings" 3
    (Instance_engine.stats ie).Instance_engine.rule_firings

let test_transition_tables_are_singletons () =
  let ie = make_instance_system [ ("t", t_table); ("log", log_table) ] in
  ignore
    (Instance_engine.create_rule ie
       (parse_rule
          "create rule probe when inserted into t then insert into log values \
           ((select count(*) from inserted t))"));
  ignore
    (Instance_engine.execute_block ie
       (parse_ops "insert into t values (1, 'x'), (2, 'y')"));
  (* each firing saw exactly one tuple *)
  match
    (Instance_engine.query ie (Parser.parse_select_string "select n from log")).Eval.rows
  with
  | [ [| Value.Int 1 |]; [| Value.Int 1 |] ] -> ()
  | rows -> Alcotest.failf "unexpected log: %d rows" (List.length rows)

(* The paper's point: a set-oriented condition (aggregate over the set
   of changes) is not expressible per-row — the instance engine
   evaluates it per singleton and behaves differently. *)
let test_set_condition_differs () =
  (* set-oriented: average of the two updated salaries (150) > 100 ->
     rule fires.  instance-oriented: each row checked alone: 100 and
     200; only the 200 row passes. *)
  let emp_cols =
    [ Schema.column "id" Schema.T_int; Schema.column "salary" Schema.T_float ]
  in
  let rule_sql =
    "create rule r when updated e.salary if (select avg(salary) from new \
     updated e.salary) > 100 then insert into log values ((select count(*) \
     from new updated e.salary))"
  in
  (* set-oriented run *)
  let s =
    system "create table e (id int, salary float);\ncreate table log (n int)"
  in
  run s rule_sql;
  run s "insert into e values (1, 50), (2, 100)";
  run s "update e set salary = salary * 2";
  Alcotest.(check rows_testable) "set-oriented: one firing over both"
    [ [| vi 2 |] ]
    (rows s "select n from log");
  (* instance-oriented run *)
  let ie = make_instance_system [ ("e", emp_cols); ("log", log_table) ] in
  ignore (Instance_engine.create_rule ie (parse_rule rule_sql));
  ignore (Instance_engine.execute_block ie (parse_ops "insert into e values (1, 50), (2, 100)"));
  ignore (Instance_engine.execute_block ie (parse_ops "update e set salary = salary * 2"));
  match
    (Instance_engine.query ie (Parser.parse_select_string "select n from log")).Eval.rows
  with
  | [ [| Value.Int 1 |] ] -> () (* only the 200-salary row fired, alone *)
  | rows -> Alcotest.failf "instance log had %d rows" (List.length rows)

let test_cascading_depth_first () =
  let ie = make_instance_system [ ("t", t_table); ("log", log_table) ] in
  ignore
    (Instance_engine.create_rule ie
       (parse_rule
          "create rule casc when inserted into t if (select count(*) from \
           t) < 4 then insert into t (select a + 1, b from inserted t)"));
  ignore (Instance_engine.execute_block ie (parse_ops "insert into t values (1, 'x')"));
  Alcotest.(check int) "chain of inserts" 4 (count ie "t")

let test_rollback_action () =
  let ie = make_instance_system [ ("t", t_table) ] in
  ignore
    (Instance_engine.create_rule ie
       (parse_rule
          "create rule guard when inserted into t if exists (select * from \
           inserted t where a < 0) then rollback"));
  let outcome =
    Instance_engine.execute_block ie
      (parse_ops "insert into t values (1, 'x'); insert into t values (-1, 'y')")
  in
  Alcotest.(check bool) "rolled back" true (outcome = Instance_engine.Rolled_back);
  Alcotest.(check int) "both undone" 0 (count ie "t")

let test_divergence_guard () =
  let config = { Instance_engine.max_steps = 10 } in
  let ie = make_instance_system ~config [ ("t", t_table) ] in
  ignore
    (Instance_engine.create_rule ie
       (parse_rule
          "create rule forever when inserted into t then insert into t \
           (select a + 1, b from inserted t)"));
  (match
     Instance_engine.execute_block ie (parse_ops "insert into t values (1, 'x')")
   with
  | _ -> Alcotest.fail "expected divergence error"
  | exception Errors.Error (Errors.Rule_limit_exceeded _) -> ());
  Alcotest.(check int) "restored" 0 (count ie "t")

let test_stale_instance_skipped () =
  (* rule one deletes high rows; rule two would fire per inserted row
     but must skip rows already deleted *)
  let ie = make_instance_system [ ("t", t_table); ("log", log_table) ] in
  ignore
    (Instance_engine.create_rule ie
       (parse_rule "create rule censor when inserted into t then delete from t where a > 10"));
  ignore
    (Instance_engine.create_rule ie
       (parse_rule
          "create rule audit when inserted into t then insert into log \
           (select a from inserted t)"));
  ignore
    (Instance_engine.execute_block ie (parse_ops "insert into t values (50, 'x')"));
  (* censor (defined first) deleted the row before audit considered it *)
  Alcotest.(check int) "no audit of dead row" 0 (count ie "log")

(* A rule whose condition and action look the inserted key up in an
   indexed column reads that table in place, by index probe: it fires
   for exactly the rows, and leaves exactly the state, it does over the
   same table without the index. *)
let test_indexed_lookup () =
  let run ~indexed =
    let lim = Schema.table "lim" [ Schema.column "k" Schema.T_int; Schema.column "cap" Schema.T_int ] in
    let db =
      List.fold_left
        (fun db i -> fst (Database.insert db "lim" [| Value.Int i; Value.Int (i mod 3) |]))
        (Database.create_table Database.empty lim)
        (List.init 40 Fun.id)
    in
    let db =
      if indexed then Database.create_index db ~ix_name:"lim_k" ~table:"lim" ~column:"k" ~kind:`Hash
      else db
    in
    let ie = Instance_engine.create db in
    Instance_engine.create_table ie (Schema.table "t" t_table);
    Instance_engine.create_table ie (Schema.table "log" log_table);
    ignore
      (Instance_engine.create_rule ie
         (parse_rule
            "create rule spend when inserted into t if exists (select * from lim where k in \
             (select a from inserted t) and cap > 0) then update lim set cap = cap - 1 where k \
             in (select a from inserted t); insert into log (select a from inserted t)"));
    ignore
      (Instance_engine.execute_block ie
         (parse_ops "insert into t values (1, 'a'), (1, 'b'), (3, 'c'), (4, 'd'), (50, 'e'), (4, 'f')"));
    let rows sql = (Instance_engine.query ie (Parser.parse_select_string sql)).Eval.rows in
    ( (Instance_engine.stats ie).Instance_engine.rule_firings,
      rows "select n from log",
      rows "select k, cap from lim order by k" )
  in
  let firings, log, lim = run ~indexed:true in
  let firings', log', lim' = run ~indexed:false in
  (* keys 1 and 4 have cap 1: each fires once, then is spent *)
  Alcotest.(check int) "firings" 2 firings;
  Alcotest.(check int) "firings without the index" firings' firings;
  Alcotest.(check bool) "log" true (List.equal Row.equal log log');
  Alcotest.(check int) "logged keys" 2 (List.length log);
  Alcotest.(check bool) "final lim" true (List.equal Row.equal lim lim')

let suite =
  [
    Alcotest.test_case "per-row firing" `Quick test_per_row_firing;
    Alcotest.test_case "singleton transition tables" `Quick
      test_transition_tables_are_singletons;
    Alcotest.test_case "set condition differs from per-row" `Quick
      test_set_condition_differs;
    Alcotest.test_case "depth-first cascading" `Quick test_cascading_depth_first;
    Alcotest.test_case "rollback action" `Quick test_rollback_action;
    Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
    Alcotest.test_case "stale instances skipped" `Quick
      test_stale_instance_skipped;
    Alcotest.test_case "indexed lookup = unindexed" `Quick test_indexed_lookup;
  ]
