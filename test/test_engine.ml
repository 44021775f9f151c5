(* Semantics tests for the set-oriented rule engine (paper Section 4). *)

open Core
open Helpers

let counter_system () =
  system "create table c (n int);\ncreate table log (msg string, n int)"

let test_no_rules_commit () =
  let s = counter_system () in
  Alcotest.(check bool) "commits" true (exec_committed s "insert into c values (1)");
  Alcotest.(check int) "row stored" 1 (int_cell s "select count(*) from c")

let test_not_triggered_by_other_table () =
  let s = counter_system () in
  run s "create rule r when inserted into log then delete from c";
  run s "insert into c values (1)";
  Alcotest.(check int) "untouched" 1 (int_cell s "select count(*) from c")

let test_empty_effect_triggers_nothing () =
  let s = counter_system () in
  run s "create rule r when deleted from c then insert into log values ('fired', 0)";
  (* a delete selecting no tuples produces an empty effect *)
  run s "delete from c where n = 999";
  Alcotest.(check int) "no firing" 0 (int_cell s "select count(*) from log")

let test_condition_false_no_action () =
  let s = counter_system () in
  run s
    "create rule r when inserted into c if (select count(*) from c) > 10 then \
     insert into log values ('fired', 0)";
  run s "insert into c values (1)";
  Alcotest.(check int) "not fired" 0 (int_cell s "select count(*) from log")

let test_condition_sees_current_state () =
  let s = counter_system () in
  (* condition reads the post-transition (current) state *)
  run s
    "create rule r when inserted into c if (select count(*) from c) = 2 then \
     insert into log values ('two', 2)";
  run s "insert into c values (1)";
  Alcotest.(check int) "first: one row, no fire" 0
    (int_cell s "select count(*) from log");
  run s "insert into c values (2)";
  Alcotest.(check int) "second: fires" 1 (int_cell s "select count(*) from log")

(* Self-triggering rule reaching a fixpoint (Section 4.1): decrement a
   counter until it reaches zero. *)
let test_self_triggering_fixpoint () =
  let s = counter_system () in
  run s "create rule dec when updated c.n or inserted into c if exists (select * from c where n > 0) then update c set n = n - 1 where n > 0";
  run s "insert into c values (5)";
  Alcotest.(check int) "reached zero" 0 (int_cell s "select n from c");
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "fired five times" 5 st.Engine.rule_firings

(* A rule whose action makes no changes stops being re-triggered: its
   new transition information is empty. *)
let test_acting_rule_info_resets () =
  let s = counter_system () in
  run s
    "create rule r when inserted into c then delete from c where n < 0";
  run s "insert into c values (1)";
  (* delete selected nothing -> empty effect -> r not re-triggered *)
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "fired once" 1 st.Engine.rule_firings

(* Two triggered rules: the first (by priority) executes; the second is
   then considered against the COMPOSITE effect of both transitions
   (Section 4.2). *)
let test_composite_effect_for_waiting_rule () =
  let s =
    system
      "create table t (a int);\n\
       create table audit (total int)"
  in
  (* hi fires first and inserts 10 more rows into t; lo then counts ALL
     inserted rows (external 2 + rule-inserted 10) because its
     transition tables are based on the composite effect *)
  run s
    "create rule hi when inserted into t if (select count(*) from t) < 10 \
     then insert into t (select a + 100 from inserted t); insert into t \
     (select a + 200 from inserted t)";
  run s
    "create rule lo when inserted into t then insert into audit values \
     ((select count(*) from inserted t))";
  run s "create rule priority hi before lo";
  run s "insert into t values (1), (2)";
  (* hi fires on {1,2} inserting {101,102,201,202}; then hi reconsidered
     on its own effect {101,102,201,202}: condition (count(t)=6 < 10)
     holds, inserts {201,202,301,302,401,402} wait - carefully:
     hi's second firing sees only its own previous transition (4 rows),
     inserts 8 more; now count(t)=14, condition false. lo then sees the
     composite: 2 + 4 + 8 = 14 inserted rows. *)
  Alcotest.(check int) "lo saw composite" 14 (int_cell s "select total from audit")

(* Figure 1's get-old-value: a waiting rule's old and new values span
   its whole composite transition.  The user updates a to 2; [bump]
   (first by priority) updates it on to 3; [keep] then sees the value
   before the user's update as old and the value after bump's as new,
   and deleted values are likewise the ones before the composite. *)
let test_waiting_rule_sees_first_old_value () =
  let s =
    system
      "create table t (a int, b int);\n\
       create table log (kind string, a int)"
  in
  run s "insert into t values (1, 0), (10, 0)";
  run s
    "create rule bump when updated t.a if (select count(*) from t where a = \
     2) > 0 then update t set a = 3 where a = 2; delete from t where a = 20";
  run s
    "create rule keep when updated t or deleted from t then insert into log \
     (select 'old', a from old updated t); insert into log (select 'new', a \
     from new updated t); insert into log (select 'deleted', a from deleted t)";
  run s "create rule priority bump before keep";
  run s "update t set a = 2 * a";
  Alcotest.check rows_testable "keep saw the composite's first values"
    [ [| vs "deleted"; vi 10 |]; [| vs "new"; vi 3 |]; [| vs "old"; vi 1 |] ]
    (rows s "select kind, a from log order by kind")

(* A higher-priority rule that undoes the triggering changes prevents a
   lower-priority rule from firing (trigger permanence, Section 1 /
   4.2: composite effect netting). *)
let test_undo_removes_triggering () =
  let s = counter_system () in
  run s "create rule censor when inserted into c then delete from c where n > 100";
  run s
    "create rule logger when inserted into c then insert into log values \
     ('saw', (select count(*) from inserted c))";
  run s "create rule priority censor before logger";
  run s "insert into c values (200)";
  (* censor deleted the only inserted row: logger's composite effect is
     empty, so it never fires *)
  Alcotest.(check int) "logger suppressed" 0
    (int_cell s "select count(*) from log");
  run s "insert into c values (1)";
  Alcotest.(check int) "logger fires normally" 1
    (int_cell s "select count(*) from log")

(* A rule whose condition was false is reconsidered after another
   rule's transition (Section 4.2). *)
let test_condition_retry_after_new_transition () =
  let s = counter_system () in
  run s
    "create rule threshold when inserted into c if (select count(*) from c) \
     >= 3 then insert into log values ('full', 3)";
  run s
    "create rule filler when inserted into c if (select count(*) from c) < 3 \
     then insert into c values (99)";
  (* threshold considered first (creation order), condition false; filler
     fires adding rows; threshold must be reconsidered *)
  run s "insert into c values (1)";
  Alcotest.(check int) "eventually fired" 1
    (int_cell s "select count(*) from log");
  Alcotest.(check int) "three rows" 3 (int_cell s "select count(*) from c")

let test_rollback_action () =
  let s = counter_system () in
  run s "insert into c values (1)";
  run s
    "create rule guard when updated c.n if exists (select * from c where n < \
     0) then rollback";
  Alcotest.(check bool) "rolled back" false
    (exec_committed s "update c set n = -5");
  Alcotest.(check int) "value restored" 1 (int_cell s "select n from c");
  Alcotest.(check bool) "legal update commits" true
    (exec_committed s "update c set n = 7");
  Alcotest.(check int) "value updated" 7 (int_cell s "select n from c")

let test_rollback_undoes_rule_actions_too () =
  let s = counter_system () in
  run s "create rule chain when inserted into c then insert into log values ('x', 1)";
  run s
    "create rule guard when inserted into log then rollback";
  run s "insert into c values (1)";
  Alcotest.(check int) "c restored" 0 (int_cell s "select count(*) from c");
  Alcotest.(check int) "log restored" 0 (int_cell s "select count(*) from log")

let test_divergence_guard () =
  let config = { Engine.default_config with max_steps = 25 } in
  let s = system ~config "create table c (n int)" in
  run s "create rule forever when updated c.n then update c set n = n + 1";
  run s "insert into c values (0)";
  (match System.exec s "update c set n = 1" with
  | _ -> Alcotest.fail "expected divergence error"
  | exception Errors.Error (Errors.Rule_limit_exceeded { steps; _ }) ->
    (* the reported count is the attempted action execution that
       tripped the limit: one past the configured maximum *)
    Alcotest.(check int) "steps" 26 steps);
  (* the transaction was rolled back *)
  Alcotest.(check int) "state restored" 0 (int_cell s "select n from c")

let test_deactivate_activate () =
  let s = counter_system () in
  run s "create rule r when inserted into c then insert into log values ('x', 1)";
  run s "deactivate rule r";
  run s "insert into c values (1)";
  Alcotest.(check int) "inactive" 0 (int_cell s "select count(*) from log");
  run s "activate rule r";
  run s "insert into c values (2)";
  Alcotest.(check int) "active" 1 (int_cell s "select count(*) from log")

let test_drop_rule () =
  let s = counter_system () in
  run s "create rule r when inserted into c then insert into log values ('x', 1)";
  run s "drop rule r";
  run s "insert into c values (1)";
  Alcotest.(check int) "dropped" 0 (int_cell s "select count(*) from log");
  expect_error (fun () -> System.exec s "drop rule r")

let test_duplicate_rule_rejected () =
  let s = counter_system () in
  run s "create rule r when inserted into c then delete from log";
  expect_error (fun () ->
      System.exec s "create rule r when inserted into c then delete from log")

let test_priority_cycle_rejected () =
  let s = counter_system () in
  run s "create rule a when inserted into c then delete from log";
  run s "create rule b when inserted into c then delete from log";
  run s "create rule priority a before b";
  expect_error (fun () -> System.exec s "create rule priority b before a");
  expect_error (fun () -> System.exec s "create rule priority a before a")

let test_priority_unknown_rule_rejected () =
  let s = counter_system () in
  run s "create rule a when inserted into c then delete from log";
  expect_error (fun () -> System.exec s "create rule priority a before ghost")

(* Explicit transactions: several statements form one operation block;
   rules run at commit. *)
let test_explicit_transaction () =
  let s = counter_system () in
  run s
    "create rule r when inserted into c then insert into log values ('batch', \
     (select count(*) from inserted c))";
  run s "begin";
  run s "insert into c values (1)";
  run s "insert into c values (2)";
  run s "insert into c values (3)";
  Alcotest.(check int) "rules not yet run" 0
    (int_cell s "select count(*) from log");
  run s "commit";
  (* one firing over the whole set, not three *)
  Alcotest.(check int) "one firing" 1 (int_cell s "select count(*) from log");
  Alcotest.(check int) "saw all three" 3 (int_cell s "select n from log")

let test_explicit_rollback_statement () =
  let s = counter_system () in
  run s "begin";
  run s "insert into c values (1)";
  run s "rollback";
  Alcotest.(check int) "nothing" 0 (int_cell s "select count(*) from c")

(* Section 5.3 rule triggering points. *)
let test_process_rules_triggering_point () =
  let s = counter_system () in
  run s
    "create rule r when inserted into c then insert into log values ('seen', \
     (select count(*) from inserted c))";
  run s "begin";
  run s "insert into c values (1)";
  run s "insert into c values (2)";
  run s "process rules";
  (* first processing: one firing over two inserts *)
  Alcotest.(check int) "first batch" 2 (int_cell s "select max(n) from log");
  run s "insert into c values (3)";
  run s "commit";
  (* second processing sees only the third insert *)
  Alcotest.(check rows_testable) "two firings"
    [ [| vi 2 |]; [| vi 1 |] ]
    (rows s "select n from log");
  Alcotest.(check int) "three rows" 3 (int_cell s "select count(*) from c")

let test_rollback_after_triggering_point_restores_all () =
  let s = counter_system () in
  run s
    "create rule guard when inserted into c if exists (select * from c where \
     n < 0) then rollback";
  run s "begin";
  run s "insert into c values (1)";
  run s "process rules";
  run s "insert into c values (-1)";
  (* commit triggers the guard; rollback must restore to the state
     before the FIRST block, discarding the already-processed insert *)
  (match System.exec s "commit" with
  | [ System.Outcome Engine.Rolled_back ] -> ()
  | _ -> Alcotest.fail "expected rollback");
  Alcotest.(check int) "everything gone" 0 (int_cell s "select count(*) from c")

(* Section 5.1: rules triggered by data retrieval. *)
let test_select_triggered_rule () =
  let config = { Engine.default_config with track_selects = true } in
  let s =
    system ~config
      "create table secrets (id int, payload string);\n\
       create table audit (id int)"
  in
  run s
    "create rule auditor when selected secrets then insert into audit (select \
     id from selected secrets)";
  run s "insert into secrets values (1, 'a'), (2, 'b')";
  Alcotest.(check int) "no audit yet" 0 (int_cell s "select count(*) from audit");
  (* retrieval inside a transaction triggers the rule at commit *)
  run s "begin";
  run s "select payload from secrets where id = 2";
  run s "commit";
  Alcotest.(check rows_testable) "read audited" [ [| vi 2 |] ]
    (rows s "select id from audit")

let test_select_not_tracked_by_default () =
  let s =
    system
      "create table secrets (id int, payload string);\n\
       create table audit (id int)"
  in
  run s
    "create rule auditor when selected secrets then insert into audit (select \
     id from selected secrets)";
  run s "insert into secrets values (1, 'a')";
  run s "begin";
  run s "select payload from secrets";
  run s "commit";
  Alcotest.(check int) "not tracked" 0 (int_cell s "select count(*) from audit")

(* Section 5.2: external procedure actions. *)
let test_external_procedure_action () =
  let s = counter_system () in
  let observed = ref [] in
  System.register_procedure s "observe" (fun ctx ->
      let rel =
        ctx.Procedures.query
          (Parser.parse_select_string "select n from inserted c")
      in
      observed :=
        List.map (fun row -> row.(0)) rel.Eval.rows @ !observed;
      (* the returned block is the action's database effect *)
      [
        (match Parser.parse_statement_string
                 "insert into log values ('proc', 0)"
         with
        | Ast.Stmt_op op -> op
        | _ -> assert false);
      ]);
  run s "create rule r when inserted into c then call observe";
  run s "insert into c values (41), (42)";
  Alcotest.(check int) "procedure saw both" 2 (List.length !observed);
  Alcotest.(check int) "block applied" 1 (int_cell s "select count(*) from log")

(* A procedure's query runs through the engine's plan for it, like a
   statement: the equality on indexed [u.a] is one index probe, counted
   in the engine statistics. *)
let test_procedure_query_is_planned () =
  let s =
    system
      "create table t (a int); create table u (a int);\n\
       create index u_a on u (a)"
  in
  run s "insert into u values (1), (2), (3), (3), (4), (5), (6), (7)";
  let answer = ref [] in
  System.register_procedure s "count_u" (fun ctx ->
      answer :=
        (ctx.Procedures.query (Parser.parse_select_string "select count(*) from u where a = 3"))
          .Eval.rows;
      []);
  run s "create rule r when inserted into t then call count_u";
  let stats = Engine.stats (System.engine s) in
  let probes = stats.Engine.index_probes and scans = stats.Engine.seq_scans in
  run s "insert into t values (1)";
  Alcotest.(check int) "one index probe" 1 (stats.Engine.index_probes - probes);
  Alcotest.(check int) "no scan" 0 (stats.Engine.seq_scans - scans);
  Alcotest.(check (list (array string)))
    "the count" [ [| "2" |] ]
    (List.map (Array.map Value.to_string) !answer)

(* [Engine.tables_read] is every base table a plan of the transaction
   scanned or probed, whatever the read found and whoever ran it: the
   server's serializable read claims. *)
let test_tables_read () =
  let s =
    system
      "create table dv (a int); create table uv (a int); create table ix (a \
       int); create table rx (a int); create table trig (n int); create \
       table cs (a int); create table act (a int); create table pq (a int); \
       create table fl (a int); create table ex (a int); create index ix_a \
       on ix (a); create index rx_a on rx (a) using ordered"
  in
  run s "insert into ix values (1), (2), (3), (4), (5), (6), (7), (8)";
  run s "insert into rx values (1), (2), (3), (4), (5), (6), (7), (8)";
  run s "insert into fl values (0)";
  System.register_procedure s "p" (fun ctx ->
      ignore (ctx.Procedures.query (Parser.parse_select_string "select * from pq"));
      []);
  run s
    "create rule r1 when inserted into trig if (select count(*) from cs) = 0 \
     then update trig set n = (select count(*) from act)";
  run s "create rule r2 when inserted into trig then call p";
  let eng = System.engine s in
  let read () = Effect.Col_set.elements (Engine.tables_read eng) in
  let check what expected =
    Alcotest.(check (list string)) what (List.sort compare expected) (read ())
  in
  run s "begin";
  check "begin clears the set" [];
  run s "explain select * from ex where a > 2";
  run s "explain delete from ex where a = 1";
  run s "explain rule r1";
  check "EXPLAIN reads nothing" [];
  run s "delete from dv where a = 99";
  run s "update uv set a = 1 where a = 99";
  check "victim scans that matched nothing" [ "dv"; "uv" ];
  let st = Engine.stats eng in
  let probes = st.Engine.index_probes and ranges = st.Engine.range_probes in
  run s "select * from ix where a = 3";
  run s "select * from rx where a > 6";
  Alcotest.(check (pair int int)) "one index and one range probe" (1, 1)
    (st.Engine.index_probes - probes, st.Engine.range_probes - ranges);
  check "probed tables" [ "dv"; "uv"; "ix"; "rx" ];
  run s "insert into trig values (1)";
  check "an insert reads nothing" [ "dv"; "uv"; "ix"; "rx" ];
  run s "process rules";
  check "condition, action and procedure reads"
    [ "dv"; "uv"; "ix"; "rx"; "trig"; "cs"; "act"; "pq" ];
  expect_error (fun () -> System.exec s "select 1 / a from fl");
  Alcotest.(check bool) "the transaction survives the error" true
    (Engine.in_transaction eng);
  check "a failed statement's read stays"
    [ "dv"; "uv"; "ix"; "rx"; "trig"; "cs"; "act"; "pq"; "fl" ];
  run s "commit";
  run s "begin";
  check "the next transaction starts empty" [];
  run s "rollback"

let test_unknown_procedure () =
  let s = counter_system () in
  run s "create rule r when inserted into c then call ghost";
  expect_error (fun () -> System.exec s "insert into c values (1)")

let test_error_mid_block_aborts () =
  let s = counter_system () in
  run s "insert into c values (1)";
  (* second op references an unknown column: whole block must abort *)
  (match
     System.exec_block s
       "insert into c values (2); update c set nope = 1"
   with
  | _ -> Alcotest.fail "expected error"
  | exception Errors.Error _ -> ());
  Alcotest.(check int) "block undone" 1 (int_cell s "select count(*) from c")

let test_stats_counting () =
  let s = counter_system () in
  run s "create rule r when inserted into c then delete from log";
  run s "insert into c values (1)";
  run s "insert into c values (2)";
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "transactions" 2 st.Engine.transactions;
  Alcotest.(check int) "firings" 2 st.Engine.rule_firings;
  Alcotest.(check bool) "conditions >= firings" true
    (st.Engine.conditions_evaluated >= st.Engine.rule_firings)

(* Selection strategies: with mutually-triggering rules, least- vs
   most-recently-considered visit in different orders. *)
let strategy_trace strategy =
  let config = { Engine.default_config with strategy } in
  let s =
    system ~config
      "create table t (x int);\ncreate table trace (who string, seq int)"
  in
  (* both rules append their name; each fires at most twice via a
     guard on how many times it has written *)
  run s
    "create rule ra when inserted into t or inserted into trace if (select \
     count(*) from trace where who = 'ra') < 2 then insert into trace values \
     ('ra', (select count(*) from trace))";
  run s
    "create rule rb when inserted into t or inserted into trace if (select \
     count(*) from trace where who = 'rb') < 2 then insert into trace values \
     ('rb', (select count(*) from trace))";
  run s "insert into t values (1)";
  string_list_cells s "select who from trace order by seq"

let test_selection_strategies () =
  (* creation order keeps preferring ra until its condition goes false *)
  Alcotest.(check (list string)) "creation order chains first rule"
    [ "ra"; "ra"; "rb"; "rb" ]
    (strategy_trace Selection.Creation_order);
  (* least-recently-considered also alternates, starting with ra *)
  Alcotest.(check (list string)) "lrc alternates"
    [ "ra"; "rb"; "ra"; "rb" ]
    (strategy_trace Selection.Least_recently_considered);
  (* most-recently-considered chains the same rule while possible *)
  Alcotest.(check (list string)) "mrc chains"
    [ "ra"; "ra"; "rb"; "rb" ]
    (strategy_trace Selection.Most_recently_considered)

let test_priority_beats_strategy () =
  let config =
    { Engine.default_config with strategy = Selection.Most_recently_considered }
  in
  let s =
    system ~config "create table t (x int);\ncreate table trace (who string)"
  in
  run s
    "create rule lo when inserted into t then insert into trace values ('lo')";
  run s
    "create rule hi when inserted into t then insert into trace values ('hi')";
  run s "create rule priority hi before lo";
  run s "insert into t values (1)";
  Alcotest.(check (list string)) "hi first" [ "hi"; "lo" ]
    (string_list_cells s "select who from trace")

(* The execution trace must record the exact event sequence of
   Figure 1: the external transition, each consideration in priority
   order, each firing, and quiescence. *)
let test_trace_event_sequence () =
  let s = counter_system () in
  run s
    "create rule a when inserted into c then insert into log values ('a', 1)";
  run s
    "create rule b when inserted into c then insert into log values ('b', 2)";
  run s "create rule priority b before a";
  Engine.set_tracing (System.engine s) true;
  run s "insert into c values (7)";
  let expected =
    [
      Engine.Ev_external { effect_size = 1 };
      Engine.Ev_considered { rule = "b"; condition_held = true };
      Engine.Ev_fired { rule = "b"; effect_size = 1 };
      Engine.Ev_considered { rule = "a"; condition_held = true };
      Engine.Ev_fired { rule = "a"; effect_size = 1 };
      Engine.Ev_quiescent;
    ]
  in
  Alcotest.(check bool)
    "exact trace sequence" true
    (Engine.trace (System.engine s) = expected)

(* The Section 4.3 pruning must be semantically invisible: the
   composite-effect scenario runs as the Section 4 reference, which
   keeps every transition's whole effect, runs it — the same
   considerations and firings, the same final state. *)
let test_prune_info_equivalence () =
  let case =
    {
      Test_reference_rules.setup = "create table t (a int);\ncreate table audit (total int)";
      ddl =
        [
          "create rule hi when inserted into t if (select count(*) from t) < 10 then insert into t \
           (select a + 100 from inserted t); insert into t (select a + 200 from inserted t)";
          "create rule lo when inserted into t then insert into audit values ((select count(*) \
           from inserted t))";
          "create rule priority hi before lo";
        ];
      txns = [ [ "insert into t values (1), (2)" ] ];
    }
  in
  match Test_reference_rules.differential ~config:Engine.default_config case with
  | Ok _ -> ()
  | Error diff -> Alcotest.failf "engine and reference differ: %s" diff

let suite =
  [
    Alcotest.test_case "no rules" `Quick test_no_rules_commit;
    Alcotest.test_case "prune-info optimization invisible" `Quick
      test_prune_info_equivalence;
    Alcotest.test_case "not triggered by other table" `Quick
      test_not_triggered_by_other_table;
    Alcotest.test_case "empty effect triggers nothing" `Quick
      test_empty_effect_triggers_nothing;
    Alcotest.test_case "false condition blocks action" `Quick
      test_condition_false_no_action;
    Alcotest.test_case "condition sees current state" `Quick
      test_condition_sees_current_state;
    Alcotest.test_case "self-triggering fixpoint" `Quick
      test_self_triggering_fixpoint;
    Alcotest.test_case "acting rule info resets" `Quick
      test_acting_rule_info_resets;
    Alcotest.test_case "waiting rule sees composite effect" `Quick
      test_composite_effect_for_waiting_rule;
    Alcotest.test_case "waiting rule sees the first old value" `Quick
      test_waiting_rule_sees_first_old_value;
    Alcotest.test_case "undo removes triggering" `Quick
      test_undo_removes_triggering;
    Alcotest.test_case "condition retried after new transition" `Quick
      test_condition_retry_after_new_transition;
    Alcotest.test_case "rollback action" `Quick test_rollback_action;
    Alcotest.test_case "rollback undoes rule actions" `Quick
      test_rollback_undoes_rule_actions_too;
    Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
    Alcotest.test_case "deactivate/activate" `Quick test_deactivate_activate;
    Alcotest.test_case "drop rule" `Quick test_drop_rule;
    Alcotest.test_case "duplicate rule rejected" `Quick
      test_duplicate_rule_rejected;
    Alcotest.test_case "priority cycle rejected" `Quick
      test_priority_cycle_rejected;
    Alcotest.test_case "priority needs known rules" `Quick
      test_priority_unknown_rule_rejected;
    Alcotest.test_case "explicit transaction batches" `Quick
      test_explicit_transaction;
    Alcotest.test_case "explicit rollback statement" `Quick
      test_explicit_rollback_statement;
    Alcotest.test_case "process rules triggering point" `Quick
      test_process_rules_triggering_point;
    Alcotest.test_case "rollback restores past triggering point" `Quick
      test_rollback_after_triggering_point_restores_all;
    Alcotest.test_case "select-triggered rule (ext 5.1)" `Quick
      test_select_triggered_rule;
    Alcotest.test_case "selects untracked by default" `Quick
      test_select_not_tracked_by_default;
    Alcotest.test_case "external procedure action (ext 5.2)" `Quick
      test_external_procedure_action;
    Alcotest.test_case "procedure query is planned" `Quick
      test_procedure_query_is_planned;
    Alcotest.test_case "tables read by a transaction" `Quick test_tables_read;
    Alcotest.test_case "unknown procedure" `Quick test_unknown_procedure;
    Alcotest.test_case "error mid-block aborts" `Quick test_error_mid_block_aborts;
    Alcotest.test_case "stats counting" `Quick test_stats_counting;
    Alcotest.test_case "selection strategies" `Quick test_selection_strategies;
    Alcotest.test_case "priority beats strategy" `Quick
      test_priority_beats_strategy;
  ]
