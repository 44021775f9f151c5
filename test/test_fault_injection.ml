(* Exception-safety of the engine, proven by systematic fault
   injection.

   The paper's transition model assumes operation blocks "are executed
   indivisibly" (Section 2.1) and that rollback restores the exact
   transaction-start state (Section 4).  The engine must therefore
   recover to a well-defined state when an error — genuine or injected
   — is raised at ANY point of execution: mid-block, during a rule
   condition, inside a rule action or external procedure, or at commit.

   Layers of this suite:

   - regression tests for concrete atomicity bugs (partial blocks left
     behind by [submit_ops], select effects missing from
     [Effect.cardinality], the off-by-one step-limit report, old rows
     of an undone transaction reaching the next one);

   - unit tests for the [Fault] countdown module itself;

   - the systematic differential harness: seeded random transaction
     workloads driving a rule set that inserts, deletes, updates,
     selects, calls an external procedure and rolls back.  Each
     transaction is executed once on a fault-free system and, on a
     second system, re-attempted with a fault injected at hit point
     1, 2, ... until an attempt runs fault-free.  After every induced
     abort the harness asserts

       (a) the engine state is physically the pre-transaction snapshot
           (database, no open transaction),
       (b) the final fault-free retry produces the outcome, select
           results and firing trace of the clean system, with
           identical final states at the end of the workload,
       (c) the abort is observable: an [Ev_abort] trace event and the
           [aborts] statistic.

     The harness runs under the default configuration and, as a qcheck
     property, across the track_selects x selection-order configuration
     matrix.  Global counters prove the run was not
     vacuous: >= 500 transactions driven and every injection site
     actually faulted at least once. *)

open Core
open Helpers

let parse_ops sql =
  List.map
    (function
      | Ast.Stmt_op op -> op
      | _ -> Alcotest.fail "expected DML statements")
    (Parser.parse_script sql)

(* Every test that arms the fault module must return it to its pristine
   state on ANY exit.  [Fault.reset] (not just [enable false]) matters:
   the countdown is process-global, so a test aborted between [arm] and
   the fault — an alcotest failure, an interrupted qcheck shrink run —
   would otherwise leak an armed countdown into the next test (see the
   leak-regression test below). *)
let with_faults f =
  Fun.protect ~finally:Fault.reset f

(* ------------------------------------------------------------------ *)
(* Regression: a failing operation mid-block must not leave the        *)
(* earlier operations' mutations behind (Section 2.1 indivisibility).  *)

let test_partial_block_restored () =
  let s = system "create table t (a int, b int)" in
  let eng = System.engine s in
  Engine.begin_txn eng;
  ignore (Engine.submit_ops eng (parse_ops "insert into t values (1, 2)"));
  (* first op succeeds, second raises an arity error: the whole block
     must be undone while the transaction stays open *)
  expect_error (fun () ->
      Engine.submit_ops eng
        (parse_ops "insert into t values (3, 4); insert into t values (5)"));
  Alcotest.(check bool) "transaction still open" true (Engine.in_transaction eng);
  ignore (Engine.commit eng);
  Alcotest.(check int) "only the successful block committed" 1
    (int_cell s "select count(*) from t");
  Alcotest.(check int) "the partial insert did not survive" 0
    (int_cell s "select count(*) from t where a = 3")

(* The same indivisibility, driven through the SQL front-end the way
   the REPL submits statements. *)
let test_failed_statement_has_no_effect () =
  let s = system "create table t (a int, b int)" in
  run s "begin";
  run s "insert into t values (1, 1)";
  (* one statement = one block; the arity error in the second tuple
     must undo the first tuple too *)
  expect_error (fun () -> System.exec s "insert into t values (2, 2), (9)");
  Alcotest.(check bool) "still in transaction" true
    (Engine.in_transaction (System.engine s));
  run s "insert into t values (3, 3)";
  run s "commit";
  Alcotest.check rows_testable "exactly the successful statements"
    [ [| vi 1 |]; [| vi 3 |] ]
    (rows s "select a from t order by a")

(* ------------------------------------------------------------------ *)
(* Regression: the S component counts in effect sizes.                 *)

let test_select_effect_counted () =
  let schema =
    Schema.table "t" [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_int ]
  in
  let db = Database.create_table Database.empty schema in
  let _, h = Database.insert db "t" [| vi 1; vi 2 |] in
  Alcotest.(check int) "sel-only effect has cardinality" 1
    (Effect.cardinality (eff_sel [ ([ "a" ], [ h ]) ]));
  (* and through the engine trace: with select tracking on, the
     external transition's effect_size reflects the rows read *)
  let config = { Engine.default_config with track_selects = true } in
  let s = system ~config "create table t (a int, b int)" in
  run s "insert into t values (1, 10), (2, 20)";
  Engine.set_tracing (System.engine s) true;
  run s "begin; select a from t; commit";
  let sizes =
    List.filter_map
      (function Engine.Ev_external { effect_size } -> Some effect_size | _ -> None)
      (Engine.trace (System.engine s))
  in
  Alcotest.(check (list int)) "read set counted in effect_size" [ 2 ] sizes

(* ------------------------------------------------------------------ *)
(* Regression: the step-limit error reports the action number that     *)
(* tripped the limit, and the abort is observable.                     *)

let test_limit_reports_true_count () =
  let config = { Engine.default_config with max_steps = 2 } in
  let s = system ~config "create table t (a int, b int)" in
  let eng = System.engine s in
  run s "create rule forever when inserted into t or updated t.b then update \
         t set b = b + 1";
  Engine.set_tracing eng true;
  (match System.exec s "insert into t values (1, 0)" with
  | _ -> Alcotest.fail "expected the step limit to trip"
  | exception Errors.Error (Errors.Rule_limit_exceeded { steps; rule }) ->
    Alcotest.(check int) "attempted action count" 3 steps;
    Alcotest.(check string) "offending rule" "forever" rule);
  Alcotest.(check int) "state restored" 0 (int_cell s "select count(*) from t");
  Alcotest.(check bool) "transaction closed" false (Engine.in_transaction eng);
  Alcotest.(check int) "abort counted" 1 (Engine.stats eng).Engine.aborts;
  (match List.rev (Engine.trace eng) with
  | Engine.Ev_abort _ :: _ -> ()
  | _ -> Alcotest.fail "expected the trace to end with an abort event")

(* ------------------------------------------------------------------ *)
(* Regression: an undone transaction leaves no old rows behind.        *)

(* Update a row 1 -> 2, reach a triggering point, update it 2 -> 3 and
   undo the transaction.  The next transaction updates the row to 4,
   and its rule must report the committed 1 as the old value: no
   transition information of the undone transaction (which would
   report 2) may reach it. *)
let test_undone_transaction_leaves_no_old_rows () =
  let next_sees_committed how undo =
    let s = system "create table t (a int); create table log (a int)" in
    run s "insert into t values (1)";
    run s
      "create rule keep when updated t then insert into log (select a from \
       old updated t)";
    let eng = System.engine s in
    Engine.begin_txn eng;
    ignore (Engine.submit_ops eng (parse_ops "update t set a = 2"));
    ignore (Engine.process_rules eng);
    ignore (Engine.submit_ops eng (parse_ops "update t set a = 3"));
    undo eng;
    Alcotest.(check bool) (how ^ ": transaction closed") false
      (Engine.in_transaction eng);
    run s "update t set a = 4";
    Alcotest.check rows_testable (how ^ ": the rule saw the committed value")
      [ [| vi 1 |] ]
      (rows s "select a from log")
  in
  next_sees_committed "rollback" Engine.rollback_txn;
  with_faults (fun () ->
      next_sees_committed "injected abort" (fun eng ->
          Fault.arm 1;
          (match Engine.commit eng with
          | _ -> Alcotest.fail "expected the injected fault to escape"
          | exception Fault.Injected _ -> ());
          Fault.disarm ()))

(* ------------------------------------------------------------------ *)
(* The Fault module's countdown semantics.                             *)

let test_fault_module () =
  with_faults (fun () ->
      Fault.enable false;
      (* disabled: hits are no-ops *)
      Fault.hit Fault.Dml_op;
      Alcotest.(check int) "disabled hit not counted" 0 (Fault.observed_hits ());
      Fault.arm 3;
      Fault.hit Fault.Dml_op;
      Fault.hit Fault.Rule_condition;
      (match Fault.hit Fault.Rule_action with
      | _ -> Alcotest.fail "third hit must fault"
      | exception Fault.Injected Fault.Rule_action -> ()
      | exception Fault.Injected _ -> Alcotest.fail "faulted at the wrong site");
      Alcotest.(check bool) "site recorded" true
        (Fault.injected () = Some Fault.Rule_action);
      (* after firing, the module only counts *)
      Fault.hit Fault.Dml_op;
      Alcotest.(check int) "counting continues" 4 (Fault.observed_hits ()))

(* A single armed fault through the public API: the abort restores the
   exact pre-transaction state and is observable. *)
let test_single_fault_aborts_cleanly () =
  with_faults (fun () ->
      let s = system "create table t (a int, b int)" in
      let eng = System.engine s in
      run s "insert into t values (1, 1)";
      Engine.set_tracing eng true;
      let db0 = Engine.database eng in
      Fault.arm 1;
      (match System.exec s "insert into t values (2, 2)" with
      | _ -> Alcotest.fail "expected the injected fault to escape"
      | exception Fault.Injected Fault.Dml_op -> ()
      | exception Fault.Injected _ -> Alcotest.fail "unexpected site");
      Fault.disarm ();
      Alcotest.(check bool) "exact pre-transaction state" true
        (Engine.database eng == db0);
      Alcotest.(check bool) "transaction closed" false (Engine.in_transaction eng);
      Alcotest.(check int) "abort counted" 1 (Engine.stats eng).Engine.aborts;
      (match List.rev (Engine.trace eng) with
      | Engine.Ev_abort { reason } :: _ ->
        Alcotest.(check bool) "reason names the site" true
          (String.length reason > 0)
      | _ -> Alcotest.fail "expected an abort event");
      (* the retry behaves as if nothing happened *)
      run s "insert into t values (2, 2)";
      Alcotest.(check int) "retry applied" 2 (int_cell s "select count(*) from t"))

(* A fault inside an open interactive transaction: the failed statement
   has no effect, the transaction survives, and the retry commits. *)
let test_fault_mid_transaction_keeps_it_open () =
  with_faults (fun () ->
      let s = system "create table t (a int, b int)" in
      let eng = System.engine s in
      run s "begin";
      run s "insert into t values (1, 1)";
      let mid = Engine.database eng in
      Fault.arm 1;
      (match System.exec s "insert into t values (2, 2)" with
      | _ -> Alcotest.fail "expected the injected fault to escape"
      | exception Fault.Injected _ -> ());
      Fault.disarm ();
      Alcotest.(check bool) "transaction still open" true
        (Engine.in_transaction eng);
      Alcotest.(check bool) "block had no effect" true
        (Engine.database eng == mid);
      run s "insert into t values (2, 2)";
      run s "commit";
      Alcotest.(check int) "both rows committed" 2
        (int_cell s "select count(*) from t"))

(* A read-only query runs through the same plan path as a statement:
   it passes the [Dml_op] site before the evaluator's [Query_eval], a
   fault at either escapes without opening a transaction, and the next
   query answers as before. *)
let test_query_fault_sites () =
  with_faults (fun () ->
      let s = system "create table t (a int)" in
      let eng = System.engine s in
      run s "insert into t values (1), (2)";
      List.iter
        (fun (k, site) ->
          Fault.arm k;
          (match System.query s "select a from t" with
          | _ -> Alcotest.fail "expected the injected fault to escape"
          | exception Fault.Injected got ->
            Alcotest.(check string)
              (Printf.sprintf "hit %d" k)
              (Fault.site_name site) (Fault.site_name got));
          Fault.disarm ();
          Alcotest.(check bool) "no transaction left open" false
            (Engine.in_transaction eng);
          Alcotest.(check int) "query answers afterwards" 2
            (int_cell s "select count(*) from t"))
        [ (1, Fault.Dml_op); (2, Fault.Query_eval) ])

(* ------------------------------------------------------------------ *)
(* The systematic differential harness                                 *)

(* Non-vacuity counters, asserted by the final test of the suite. *)
let txns_driven = ref 0
let faults_injected = ref 0
let injected_at : (Fault.site, int) Hashtbl.t = Hashtbl.create 8

let note_injection site =
  incr faults_injected;
  Hashtbl.replace injected_at site
    (1 + Option.value (Hashtbl.find_opt injected_at site) ~default:0)

let schema_sql =
  "create table t (a int, b int);\n\
   create table u (a int, c int);\n\
   create table log (n int)"

(* A terminating rule set exercising every trigger kind and every
   action shape (literal blocks, rollback, an external procedure), so
   injected faults land in conditions, actions and procedure calls as
   well as in externally-generated operations. *)
let rules_sql =
  [
    "create rule r1 when inserted into t if exists (select * from inserted t \
     where a = 3) then insert into u values (3, 0)";
    "create rule r2 when deleted from t then delete from u where a in \
     (select a from deleted t)";
    "create rule r3 when updated t.a if (select count(*) from new updated \
     t.a where a = 5) > 0 then update u set c = c + 1 where a = 5";
    "create rule r4 when inserted into u or deleted from u or updated u.c \
     if (select count(*) from u where a = 99) > 3 then delete from u where \
     a = 99";
    "create rule r5 when updated t.b if (select count(*) from new updated \
     t.b where b > 100) > 0 then rollback";
    "create rule r6 when inserted into u then call note_u";
    "create rule r7 when selected t.b then insert into log values (0 - 1)";
  ]

(* The external procedure reads the current state through the engine
   (a [Query_eval] site) and returns a deterministic operation block. *)
let note_u_proc ctx =
  let rel =
    ctx.Procedures.query (Parser.parse_select_string "select count(*) from u")
  in
  let n =
    match rel.Eval.rows with [ [| Value.Int n |] ] -> n | _ -> 0
  in
  parse_ops (Printf.sprintf "insert into log values (%d)" n)

let gen_small st = QCheck.Gen.int_bound 12 st

let gen_term st =
  let open QCheck.Gen in
  if int_bound 9 st = 0 then "null" else string_of_int (gen_small st)

(* One operation as SQL: inserts, deletes, updates and selects over
   both tables, occasionally big enough to trip the rollback rule r5,
   and rarely a genuinely erroneous statement (wrong arity) so genuine
   errors and injected faults mix. *)
let gen_op st =
  let open QCheck.Gen in
  match int_bound 13 st with
  | 0 | 1 ->
    Printf.sprintf "insert into t values (%s, %s)" (gen_term st) (gen_term st)
  | 2 | 3 ->
    Printf.sprintf "insert into u values (%s, %s)" (gen_term st) (gen_term st)
  | 4 -> Printf.sprintf "delete from t where a = %s" (gen_term st)
  | 5 ->
    Printf.sprintf "delete from u where a in (%d, %d)" (gen_small st)
      (gen_small st)
  | 6 -> Printf.sprintf "update t set b = b + 1 where a = %d" (gen_small st)
  | 7 ->
    Printf.sprintf "update t set a = %d where a = %d" (gen_small st)
      (gen_small st)
  | 8 ->
    Printf.sprintf
      "update u set c = c + 1 where a in (select a from t where b = %d)"
      (gen_small st)
  | 9 -> Printf.sprintf "select a, b from t where a = %s" (gen_term st)
  | 10 -> Printf.sprintf "select b from t where b = %d" (gen_small st)
  | 11 ->
    (* occasionally large enough to trip the rollback rule r5 *)
    Printf.sprintf "update t set b = %d where a = %d"
      (if int_bound 3 st = 0 then 200 else gen_small st)
      (gen_small st)
  | 12 ->
    Printf.sprintf "insert into u values (99, %d); insert into u values \
                    (99, %d)" (gen_small st) (gen_small st)
  | _ ->
    (* a genuine error: wrong arity, raised mid-block *)
    Printf.sprintf "insert into t values (%d, %d, %d)" (gen_small st)
      (gen_small st) (gen_small st)

let gen_block st =
  let open QCheck.Gen in
  let n = 1 + int_bound 3 st in
  String.concat "; " (List.init n (fun _ -> gen_op st))

let make_system ~config () =
  let s = system ~config schema_sql in
  System.register_procedure s "note_u" note_u_proc;
  List.iter (run s) rules_sql;
  Engine.set_tracing (System.engine s) true;
  s

(* Execute one block and normalize everything observable about it:
   outcome or genuine-error string, and the produced select results. *)
let run_block s sql =
  match System.exec_block s sql with
  | outcome, rels ->
    Ok
      ( outcome,
        List.map (fun r -> (Array.to_list r.Eval.cols, r.Eval.rows)) rels )
  | exception Errors.Error e -> Error (Errors.to_string e)

let check_same_relation label (cols_a, rows_a) (cols_b, rows_b) =
  Alcotest.(check (list string)) (label ^ " cols") cols_a cols_b;
  Alcotest.check rows_testable (label ^ " rows") rows_a rows_b

let check_same_result label a b =
  match a, b with
  | Error ea, Error eb -> Alcotest.(check string) (label ^ " error") ea eb
  | Ok (oa, ra), Ok (ob, rb) ->
    Alcotest.(check bool)
      (label ^ " outcome") true
      (oa = ob && List.length ra = List.length rb);
    List.iter2 (fun x y -> check_same_relation label x y) ra rb
  | _ ->
    Alcotest.failf "%s: one side errored and the other did not" label

let harness_tables = [ "t"; "u"; "log" ]

(* Drive one transaction on the faulted system: inject at hit point 1,
   2, ... (checking the abort invariants after each induced fault)
   until an attempt completes without injection, and return that
   fault-free result. *)
let run_with_systematic_faults s block =
  let eng = System.engine s in
  let rec attempt k =
    let pre_db = System.database s in
    let aborts0 = (Engine.stats eng).Engine.aborts in
    Fault.arm k;
    match run_block s block with
    | result ->
      Fault.disarm ();
      result
    | exception Fault.Injected site ->
      Fault.disarm ();
      note_injection site;
      (* invariant (a): the exact pre-transaction snapshot — physical
         equality, the strongest form of bit-for-bit *)
      Alcotest.(check bool)
        (Printf.sprintf "abort at %s restored the exact state"
           (Fault.site_name site))
        true
        (System.database s == pre_db);
      Alcotest.(check bool) "abort closed the transaction" false
        (Engine.in_transaction eng);
      (* invariant (c): the abort is observable *)
      Alcotest.(check int) "abort counted in stats" (aborts0 + 1)
        (Engine.stats eng).Engine.aborts;
      (match List.rev (Engine.trace eng) with
      | Engine.Ev_abort _ :: _ -> ()
      | _ -> Alcotest.fail "expected the trace to end with an abort event");
      attempt (k + 1)
  in
  attempt 1

(* Run [blocks] on a clean system and on a systematically-faulted one,
   checking invariant (b): identical per-transaction results and firing
   traces, identical final states. *)
let differential ~config blocks =
  with_faults (fun () ->
      let s_clean = make_system ~config () in
      let s_faulty = make_system ~config () in
      List.iter
        (fun block ->
          incr txns_driven;
          Fault.disarm ();
          let r_clean = run_block s_clean block in
          let r_faulty = run_with_systematic_faults s_faulty block in
          check_same_result "faulted-then-retried vs clean" r_clean r_faulty;
          let tr_clean = Engine.trace (System.engine s_clean) in
          let tr_faulty = Engine.trace (System.engine s_faulty) in
          Alcotest.(check bool) "identical firing traces" true
            (tr_clean = tr_faulty))
        blocks;
      List.iter
        (fun tbl ->
          let final s = Table.rows (Database.table (System.database s) tbl) in
          Alcotest.check rows_testable
            (Printf.sprintf "final state of %s" tbl)
            (final s_clean) (final s_faulty))
        harness_tables)

let harness_config = { Engine.default_config with max_steps = 300 }

(* The main run: seeded deterministic workloads under the default
   configuration, faults injected at every hit point of every
   transaction. *)
let test_systematic_differential () =
  List.iter
    (fun seed ->
      with_seed_reported seed (fun () ->
          let st = Random.State.make [| seed |] in
          let blocks = List.init 80 (fun _ -> gen_block st) in
          differential ~config:harness_config blocks))
    (* an override drives as many streams as the default, so the
       coverage bound below holds under any seed *)
    (seed_streams ~default:[ 7; 19; 23; 42 ])

(* Satellite: the same invariants as a qcheck property across the
   track_selects x selection-order configuration matrix.  The
   harness's rule set has several rules, so the three selection orders
   drive different rule orders through the same injection sites.  The
   default (creation order) comes first and keeps its short labels. *)
let config_matrix =
  List.concat_map
    (fun strategy -> List.map (fun track_selects -> (strategy, track_selects)) [ true; false ])
    [
      Selection.Creation_order;
      Selection.Least_recently_considered;
      Selection.Most_recently_considered;
    ]

(* The combination's index salts the generator, so the six properties
   draw different block lists from one QCheck seed. *)
let arb_blocks i =
  QCheck.make
    ~print:(fun blocks -> String.concat ";\n-- block --\n" blocks)
    (fun st ->
      QCheck.Gen.(list_size (int_range 6 10) gen_block)
        (Random.State.make [| Random.State.bits st; i |]))

let combo_label (strategy, track_selects) =
  String.concat " "
    (Printf.sprintf "sel=%b" track_selects
    ::
    match strategy with
    | Selection.Creation_order -> []
    | Selection.Least_recently_considered -> [ "lrc" ]
    | Selection.Most_recently_considered -> [ "mrc" ])

(* 6 cases per setting, 36 in all, so the harness drives the
   transactions [test_coverage] requires. *)
let prop_matrix i ((strategy, track_selects) as combo) =
  let label =
    Printf.sprintf "abort/retry invariants (%s)" (combo_label combo)
  in
  QCheck.Test.make ~name:label ~count:6 (arb_blocks i) (fun blocks ->
      let config = { harness_config with Engine.strategy; track_selects } in
      differential ~config blocks;
      true)

(* Non-vacuity: the harness drove enough work and actually injected at
   every site (runs after the tests above; Alcotest executes a suite in
   order). *)
let test_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf "enough transactions driven (%d)" !txns_driven)
    true
    (!txns_driven >= 500);
  Alcotest.(check bool)
    (Printf.sprintf "faults were injected (%d)" !faults_injected)
    true
    (!faults_injected > 0);
  List.iter
    (fun site ->
      let n = Option.value (Hashtbl.find_opt injected_at site) ~default:0 in
      Alcotest.(check bool)
        (Printf.sprintf "site %s was faulted (%d injections)"
           (Fault.site_name site) n)
        true (n > 0))
    (* this harness drives a purely in-memory workload, which never
       passes a WAL or checkpoint site; those are covered by the
       recovery suite's own coverage assertion *)
    Fault.engine_sites

(* Regression for the countdown-leak bug: a harness that armed the
   module and then died before its workload reached the fault used to
   leave the countdown armed for whatever ran next.  [with_faults]'s
   [Fault.reset] finalizer must fully disarm even when the body
   escapes with an exception. *)
let test_no_countdown_leak () =
  (try
     with_faults (fun () ->
         Fault.arm 1000;
         (* die before any hit consumes the countdown, as an aborted
            qcheck shrink run would *)
         failwith "harness died mid-run")
   with Failure _ -> ());
  (* a pristine module: hits are no-ops and nothing can fire *)
  Fault.hit Fault.Dml_op;
  Alcotest.(check int) "disabled after leak-prone exit" 0
    (Fault.observed_hits ());
  Alcotest.(check bool) "no pending injection" true (Fault.injected () = None);
  let s = system "create table leakcheck (a int)" in
  run s "insert into leakcheck values (1)";
  Alcotest.(check int) "workload unaffected" 1
    (int_cell s "select count(*) from leakcheck")

let suite =
  [
    Alcotest.test_case "partial block restored on error" `Quick
      test_partial_block_restored;
    Alcotest.test_case "failed statement has no effect" `Quick
      test_failed_statement_has_no_effect;
    Alcotest.test_case "select effects counted in sizes" `Quick
      test_select_effect_counted;
    Alcotest.test_case "step limit reports the true count" `Quick
      test_limit_reports_true_count;
    Alcotest.test_case "undone transaction leaves no old rows" `Quick
      test_undone_transaction_leaves_no_old_rows;
    Alcotest.test_case "fault module countdown" `Quick test_fault_module;
    Alcotest.test_case "single fault aborts cleanly" `Quick
      test_single_fault_aborts_cleanly;
    Alcotest.test_case "fault mid-transaction keeps it open" `Quick
      test_fault_mid_transaction_keeps_it_open;
    Alcotest.test_case "query passes the Dml_op and Query_eval sites" `Quick
      test_query_fault_sites;
    Alcotest.test_case "systematic differential (faults at every site)" `Slow
      test_systematic_differential;
  ]
  @ List.mapi (fun i combo -> qtest (prop_matrix i combo)) config_matrix
  @ [
      Alcotest.test_case "harness coverage" `Slow test_coverage;
      Alcotest.test_case "no armed-countdown leak on aborted harness" `Quick
        test_no_countdown_leak;
    ]
