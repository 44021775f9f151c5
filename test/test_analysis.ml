(* Static rule analysis tests (Section 6 direction): may-trigger graph,
   loop warnings, order-dependence warnings. *)

open Core

let parse_rule seq sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_create_rule def -> Rules.Rule.create ~seq def
  | _ -> Alcotest.fail "expected a rule"

let rules_of sqls = List.mapi (fun i sql -> parse_rule (i + 1) sql) sqls

let edge_exists report a b =
  List.exists
    (fun e -> e.Analysis.from_rule = a && e.Analysis.to_rule = b)
    report.Analysis.graph

let test_may_trigger_edges () =
  let rules =
    rules_of
      [
        "create rule r1 when inserted into a then insert into b values (1)";
        "create rule r2 when inserted into b then update c set x = 1";
        "create rule r3 when updated c.x then delete from a";
        "create rule r4 when updated c.y then delete from a";
        "create rule r5 when deleted from a then insert into a values (1)";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check bool) "r1->r2" true (edge_exists report "r1" "r2");
  Alcotest.(check bool) "r2->r3" true (edge_exists report "r2" "r3");
  (* r2 updates column x, so it must not edge to the y-rule *)
  Alcotest.(check bool) "r2 !-> r4" false (edge_exists report "r2" "r4");
  Alcotest.(check bool) "r3 !-> r1 (delete vs insert)" false
    (edge_exists report "r3" "r1");
  Alcotest.(check bool) "r3->r5" true (edge_exists report "r3" "r5");
  Alcotest.(check bool) "r5->r1" true (edge_exists report "r5" "r1");
  (* the r1->r2->r3->r5->r1 cycle is reported *)
  Alcotest.(check bool) "cycle reported" true
    (report.Analysis.potential_loops <> [])

let test_self_loop_detected () =
  (* the paper's Example 4.1 rule is self-triggering *)
  let rules =
    rules_of
      [
        "create rule ex41 when deleted from emp then delete from emp where \
         dept_no in (select dept_no from dept where mgr_no in (select emp_no \
         from deleted emp)); delete from dept where mgr_no in (select emp_no \
         from deleted emp)";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check int) "one loop" 1 (List.length report.Analysis.potential_loops);
  Alcotest.(check (list string)) "self" [ "ex41" ]
    (List.hd report.Analysis.potential_loops)

let test_two_rule_cycle () =
  let rules =
    rules_of
      [
        "create rule ping when inserted into a then insert into b values (1)";
        "create rule pong when inserted into b then insert into a values (1)";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check bool) "cycle found" true
    (List.exists
       (fun c -> List.sort compare c = [ "ping"; "pong" ])
       report.Analysis.potential_loops)

let test_no_false_loop () =
  let rules =
    rules_of
      [
        "create rule r1 when inserted into a then insert into b values (1)";
        "create rule r2 when inserted into b then insert into c values (1)";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check int) "acyclic" 0 (List.length report.Analysis.potential_loops)

let test_rollback_breaks_cycle () =
  (* a rollback action performs no database operations *)
  let rules =
    rules_of
      [
        "create rule r1 when inserted into a then rollback";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check int) "no edges" 0 (List.length report.Analysis.graph)

let test_order_conflicts () =
  let r1 =
    "create rule w1 when inserted into t then update t set a = 1"
  in
  let r2 =
    "create rule w2 when inserted into t then update t set a = 2"
  in
  let rules = rules_of [ r1; r2 ] in
  (* unordered: both write table t -> conflict *)
  let report = Analysis.analyze rules in
  Alcotest.(check int) "conflict" 1 (List.length report.Analysis.order_conflicts);
  (* declaring a priority silences the warning *)
  let prio = Priority.declare Priority.empty ~high:"w1" ~low:"w2" in
  let report = Analysis.analyze ~priorities:prio rules in
  Alcotest.(check int) "ordered" 0 (List.length report.Analysis.order_conflicts)

let test_read_write_conflict () =
  let rules =
    rules_of
      [
        "create rule reader when inserted into t then insert into log \
         (select count(*) from emp)";
        "create rule writer when inserted into t then delete from emp";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check int) "read/write conflict" 1
    (List.length report.Analysis.order_conflicts)

(* A rule reads every table any of its selects names, wherever the
   select sits: in a compound arm (r2), a derived FROM table (r3) or a
   scalar subquery of ORDER BY (r4).  r1 writes [u], which all three
   read, so each pair with r1 is order-dependent; r2 also reads the [w]
   r3 writes. *)
let test_reads_through_every_select () =
  let rules =
    rules_of
      [
        "create rule r1 when inserted into t then insert into u values (1)";
        "create rule r2 when inserted into t then insert into v (select a \
         from w union select a from u)";
        "create rule r3 when inserted into t then insert into w (select a \
         from (select a from u) d)";
        "create rule r4 when inserted into t then insert into x (select a \
         from y order by (select max(a) from u))";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check (list (pair string string)))
    "conflicting pairs"
    [ ("r1", "r2"); ("r1", "r3"); ("r1", "r4"); ("r2", "r3") ]
    (List.map
       (fun c -> (c.Analysis.rule1, c.Analysis.rule2))
       report.Analysis.order_conflicts)

let test_disjoint_rules_no_conflict () =
  let rules =
    rules_of
      [
        "create rule ra when inserted into t then insert into a values (1)";
        "create rule rb when inserted into t then insert into b values (1)";
      ]
  in
  let report = Analysis.analyze rules in
  Alcotest.(check int) "no conflict" 0
    (List.length report.Analysis.order_conflicts)

let test_call_action_is_conservative () =
  let rules =
    rules_of
      [
        "create rule proc when inserted into t then call something";
        "create rule other when inserted into u then insert into v values (1)";
      ]
  in
  let report = Analysis.analyze rules in
  (* a call action may do anything: edges to every rule, conflicts with
     everyone *)
  Alcotest.(check bool) "edge to other" true (edge_exists report "proc" "other");
  Alcotest.(check bool) "conflict" true
    (List.length report.Analysis.order_conflicts >= 1)

let test_report_printing () =
  let rules =
    rules_of
      [ "create rule r when inserted into a then insert into a values (1)" ]
  in
  let report = Analysis.analyze rules in
  let text = Fmt.str "%a" Analysis.pp_report report in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the rule" true (contains text "r -> r");
  Alcotest.(check bool) "has loop section" true (contains text "potential loops")

let suite =
  [
    Alcotest.test_case "may-trigger edges" `Quick test_may_trigger_edges;
    Alcotest.test_case "self-loop detected" `Quick test_self_loop_detected;
    Alcotest.test_case "two-rule cycle" `Quick test_two_rule_cycle;
    Alcotest.test_case "no false loop" `Quick test_no_false_loop;
    Alcotest.test_case "rollback has no writes" `Quick test_rollback_breaks_cycle;
    Alcotest.test_case "order conflicts" `Quick test_order_conflicts;
    Alcotest.test_case "read/write conflict" `Quick test_read_write_conflict;
    Alcotest.test_case "reads through every select" `Quick
      test_reads_through_every_select;
    Alcotest.test_case "disjoint rules no conflict" `Quick
      test_disjoint_rules_no_conflict;
    Alcotest.test_case "call action conservative" `Quick
      test_call_action_is_conservative;
    Alcotest.test_case "report printing" `Quick test_report_printing;
  ]
