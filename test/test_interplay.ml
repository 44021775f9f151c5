(* Interplay tests: combinations of features that stress the engine's
   bookkeeping — multi-table rules, assertions under triggering points,
   pruning with partially relevant rules, and priority ordering under
   randomized rule sets. *)

open Core
open Helpers

(* One rule triggered by changes to TWO tables, referencing both
   transition tables in one action: its trans-info must hold both
   tables' entries at once. *)
let test_multi_table_rule () =
  let s =
    system
      "create table emp (name string, dept_no int);\n\
       create table dept (dept_no int);\n\
       create table obituary (kind string, who string)"
  in
  run s
    "create rule mourn when deleted from emp or deleted from dept then insert \
     into obituary (select 'emp', name from deleted emp); insert into \
     obituary (select 'dept', 'dept ' || 'x' from deleted dept)";
  run s "insert into dept values (1), (2)";
  run s "insert into emp values ('ada', 1), ('bob', 2)";
  (* one block deleting from both tables: ONE firing sees both *)
  ignore
    (System.exec_block s
       "delete from emp where dept_no = 1; delete from dept where dept_no = 1");
  Alcotest.(check int) "both kinds recorded" 2
    (int_cell s "select count(*) from obituary");
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "single firing" 1 st.Engine.rule_firings

(* Pruning with a partially relevant rule: a rule on tables {a, b}
   while a transition touches only b must still see b's changes. *)
let test_partial_relevance_pruning () =
  let s =
    system
      "create table a (x int);\ncreate table b (x int);\n\
       create table log (x int)"
  in
  run s
    "create rule watch when inserted into a or inserted into b then insert \
     into log (select x from inserted b)";
  run s "insert into b values (7)";
  Alcotest.check rows_testable "pruned sees b" [ [| vi 7 |] ]
    (rows s "select x from log")

(* Assertions hold at triggering points too, and a violation there
   rolls back the WHOLE transaction including already-processed
   blocks. *)
let test_assertion_at_triggering_point () =
  let s = System.create () in
  run s "create table pot (n int)";
  run s "insert into pot values (100)";
  run s
    "create assertion non_negative check (not exists (select * from pot \
     where n < 0))";
  run s "begin";
  run s "update pot set n = n - 50";
  (match System.exec s "process rules" with
  | [ System.Outcome Engine.Committed ] -> ()
  | _ -> Alcotest.fail "first half should pass");
  run s "update pot set n = n - 100";
  (match System.exec s "commit" with
  | [ System.Outcome Engine.Rolled_back ] -> ()
  | _ -> Alcotest.fail "second half should violate");
  (* rolled back to before the transaction, not to the triggering point *)
  Alcotest.(check int) "fully restored" 100 (int_cell s "select n from pot")

(* A repairing rule can fix an assertion violation before the
   assertion's own rollback rule considers the state (priorities). *)
let test_repair_before_assertion () =
  let s = System.create () in
  run s "create table stock (qty int)";
  run s "insert into stock values (10)";
  run s
    "create rule clamp when updated stock.qty if exists (select * from stock \
     where qty < 0) then update stock set qty = 0 where qty < 0";
  run s
    "create assertion stock_ok check (not exists (select * from stock where \
     qty < 0))";
  run s "create rule priority clamp before assert_stock_ok";
  Alcotest.(check bool) "overdraw repaired, not rejected" true
    (exec_committed s "update stock set qty = qty - 25");
  Alcotest.(check int) "clamped to zero" 0 (int_cell s "select qty from stock")

(* Rollback from a rule fired at the second triggering point must also
   discard rule actions performed at the first. *)
let test_rule_actions_across_triggering_points () =
  let s =
    system "create table t (x int);\ncreate table audit (x int)"
  in
  run s
    "create rule audit_t when inserted into t then insert into audit (select \
     x from inserted t)";
  run s
    "create rule veto when inserted into t if exists (select * from inserted \
     t where x = 13) then rollback";
  run s "begin";
  run s "insert into t values (1)";
  run s "process rules";
  Alcotest.(check int) "audit written mid-txn" 1
    (int_cell s "select count(*) from audit");
  run s "insert into t values (13)";
  (match System.exec s "commit" with
  | [ System.Outcome Engine.Rolled_back ] -> ()
  | _ -> Alcotest.fail "veto should fire");
  Alcotest.(check int) "audit rolled back too" 0
    (int_cell s "select count(*) from audit");
  Alcotest.(check int) "t rolled back too" 0 (int_cell s "select count(*) from t")

(* Deactivated rules are skipped even when their trigger matches, and
   reactivation does not resurrect stale transition information. *)
let test_deactivation_mid_stream () =
  let s = system "create table t (x int);\ncreate table log (x int)" in
  run s
    "create rule logger when inserted into t then insert into log (select x \
     from inserted t)";
  run s "deactivate rule logger";
  run s "insert into t values (1)";
  run s "activate rule logger";
  (* the old insert is gone; only new transitions trigger *)
  run s "insert into t values (2)";
  Alcotest.check rows_testable "only the new insert" [ [| vi 2 |] ]
    (rows s "select x from log")

(* Property: under a random linear priority chain, the firing order of
   co-triggered independent rules follows the declared order exactly. *)
let prop_priorities_respected =
  QCheck.Test.make ~name:"linear priorities dictate firing order" ~count:50
    QCheck.(pair (int_range 2 6) (int_bound 1000))
    (fun (k, seed) ->
      let s =
        system "create table t (x int);\ncreate table trace (who int, at int)"
      in
      (* k independent rules, each firing once *)
      for i = 1 to k do
        run s
          (Printf.sprintf
             "create rule p%d when inserted into t then insert into trace \
              values (%d, (select count(*) from trace))"
             i i)
      done;
      (* a random permutation as the priority chain *)
      let order = Array.init k (fun i -> i + 1) in
      let st = Random.State.make [| seed |] in
      for i = k - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      for i = 0 to k - 2 do
        run s
          (Printf.sprintf "create rule priority p%d before p%d" order.(i)
             order.(i + 1))
      done;
      run s "insert into t values (1)";
      let fired =
        List.map
          (fun row -> match row.(0) with Value.Int n -> n | _ -> -1)
          (rows s "select who from trace order by at")
      in
      fired = Array.to_list order)

let suite =
  [
    Alcotest.test_case "multi-table rule" `Quick test_multi_table_rule;
    Alcotest.test_case "partial relevance under pruning" `Quick
      test_partial_relevance_pruning;
    Alcotest.test_case "assertion at triggering point" `Quick
      test_assertion_at_triggering_point;
    Alcotest.test_case "repair before assertion" `Quick
      test_repair_before_assertion;
    Alcotest.test_case "rollback across triggering points" `Quick
      test_rule_actions_across_triggering_points;
    Alcotest.test_case "deactivation mid-stream" `Quick
      test_deactivation_mid_stream;
    qtest prop_priorities_respected;
  ]
