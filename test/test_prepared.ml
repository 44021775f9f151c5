(* Prepared statements and the statement cache.

   PREPARE name AS <stmt> parses and registers a parameterized DML
   statement; EXECUTE binds constants into a parameter frame and runs
   the compiled plan without re-parsing or re-compiling; DEALLOCATE
   drops one name or all of them.  Unprepared statements go through an
   engine-level statement cache keyed on (canonical text, DDL
   generation).  This suite covers:

   - the user-visible lifecycle and its typed errors (wrong arity,
     unknown/duplicate names, parameters outside PREPARE);
   - the cache-validity matrix: hits on repetition, invalidation on
     DDL-generation bumps, teardown on DEALLOCATE and on session forks;
   - the differential oracle: EXECUTE under the compiled path
     (parameter frame) equals EXECUTE under the interpreter
     (substitution into the tree);
   - parse/print round-trips for the new statement forms. *)

open Core
open Helpers
module Pretty = Sqlf.Pretty

let stats s = Engine.stats (System.engine s)

(* Rows of a statement that is not plain SELECT text (EXECUTE). *)
let erows s sql =
  match System.exec_one s sql with
  | System.Relation rel -> rel.Eval.rows
  | _ -> Alcotest.failf "expected rows from %s" sql

(* Expect a specific typed error. *)
let expect_err ~name pred f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an error" name
  | exception Errors.Error e ->
    if not (pred e) then
      Alcotest.failf "%s: wrong error: %s" name (Errors.to_string e)

let fixture ?(compiled = true) () =
  system ~config:(evaluator compiled)
    "create table emp (name string, emp_no int, salary float);\n\
     insert into emp values ('ada', 1, 100.0);\n\
     insert into emp values ('bob', 2, 200.0);\n\
     insert into emp values ('cyd', 3, 300.0)"

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let test_lifecycle () =
  let s = fixture () in
  run s "prepare by_no as select name from emp where emp_no = ?";
  Alcotest.(check (list (list value_testable)))
    "execute binds the constant"
    [ [ Value.Str "bob" ] ]
    (List.map Array.to_list (erows s "execute by_no (2)"));
  Alcotest.(check (list (list value_testable)))
    "re-execute with a different binding"
    [ [ Value.Str "cyd" ] ]
    (List.map Array.to_list (erows s "execute by_no (3)"));
  (* DML through EXECUTE runs as its own transaction *)
  run s "prepare raise as update emp set salary = salary + ? where emp_no = ?";
  run s "execute raise (5.0, 1)";
  Alcotest.(check (float 0.001))
    "update applied" 105.0
    (float_cell s "select salary from emp where emp_no = 1");
  run s "deallocate by_no";
  expect_err ~name:"executing a deallocated name"
    (function Errors.Unknown_prepared "by_no" -> true | _ -> false)
    (fun () -> erows s "execute by_no (2)");
  run s "deallocate all";
  expect_err ~name:"deallocate all empties the namespace"
    (function Errors.Unknown_prepared "raise" -> true | _ -> false)
    (fun () -> run s "execute raise (1.0, 1)")

let test_zero_param_and_empty_args () =
  let s = fixture () in
  run s "prepare all_emps as select name from emp order by name";
  Alcotest.(check int) "no params, bare execute" 3
    (List.length (erows s "execute all_emps"));
  Alcotest.(check int) "no params, empty parens" 3
    (List.length (erows s "execute all_emps ()"))

let test_typed_errors () =
  let s = fixture () in
  run s "prepare p as select name from emp where emp_no = ?";
  expect_err ~name:"duplicate name"
    (function Errors.Duplicate_prepared "p" -> true | _ -> false)
    (fun () -> run s "prepare p as select * from emp");
  expect_err ~name:"too few arguments"
    (function
      | Errors.Prepared_arity { name = "p"; expected = 1; got = 0 } -> true
      | _ -> false)
    (fun () -> erows s "execute p");
  expect_err ~name:"too many arguments"
    (function
      | Errors.Prepared_arity { name = "p"; expected = 1; got = 3 } -> true
      | _ -> false)
    (fun () -> erows s "execute p (1, 2, 3)");
  expect_err ~name:"unknown name"
    (function Errors.Unknown_prepared "q" -> true | _ -> false)
    (fun () -> erows s "execute q (1)");
  expect_err ~name:"deallocating an unknown name"
    (function Errors.Unknown_prepared "q" -> true | _ -> false)
    (fun () -> run s "deallocate q")

let is_param_error = function Errors.Parameter_error _ -> true | _ -> false

let test_params_only_in_prepare () =
  let s = fixture () in
  expect_err ~name:"? in a direct select" is_param_error (fun () ->
      rows s "select name from emp where emp_no = ?");
  expect_err ~name:"? in a direct update" is_param_error (fun () ->
      run s "update emp set salary = ? where emp_no = 1");
  expect_err ~name:"? in EXPLAIN" is_param_error (fun () ->
      run s "explain select * from emp where emp_no = ?");
  (* rule bodies compile at DDL time: nothing would ever bind them *)
  expect_err ~name:"? in a rule condition" is_param_error (fun () ->
      run s
        "create rule r when inserted into emp if exists (select * from emp \
         where salary > ?) then rollback");
  expect_err ~name:"? in a rule action" is_param_error (fun () ->
      run s
        "create rule r when inserted into emp then update emp set salary = ? \
         where emp_no = 1");
  expect_err ~name:"? in an assertion" is_param_error (fun () ->
      run s "create assertion a check (not exists (select * from emp where \
             salary < ?))");
  (* and PREPARE itself admits DML only *)
  expect_error (fun () -> run s "prepare d as create table t2 (x int)")

(* ------------------------------------------------------------------ *)
(* Statement cache                                                     *)

let test_cache_hits_on_repetition () =
  let s = fixture () in
  let st = stats s in
  let h0 = st.Engine.stmt_cache_hits and m0 = st.Engine.stmt_cache_misses in
  run s "select name from emp where emp_no = 2";
  run s "select name from emp where emp_no = 2";
  run s "select name from emp where emp_no = 2";
  Alcotest.(check int) "one miss" (m0 + 1) st.Engine.stmt_cache_misses;
  Alcotest.(check int) "then hits" (h0 + 2) st.Engine.stmt_cache_hits;
  (* equivalent concrete syntax canonicalizes to the same key *)
  run s "SELECT name FROM emp WHERE emp_no = 2";
  Alcotest.(check int) "case-insensitive hit" (h0 + 3)
    st.Engine.stmt_cache_hits

let test_cache_invalidation_on_ddl () =
  let s = fixture () in
  let st = stats s in
  run s "prepare p as select name from emp where emp_no = ?";
  run s "execute p (1)";
  run s "execute p (1)";
  let i0 = st.Engine.stmt_cache_invalidations in
  run s "create index ix on emp (emp_no)";
  Alcotest.(check (list (list value_testable)))
    "correct result after DDL"
    [ [ Value.Str "ada" ] ]
    (List.map Array.to_list (erows s "execute p (1)"));
  Alcotest.(check int) "DDL invalidated the prepared plan" (i0 + 1)
    st.Engine.stmt_cache_invalidations;
  (* the recompiled plan now uses the index *)
  let probes0 = st.Engine.index_probes in
  run s "execute p (2)";
  Alcotest.(check bool) "recompiled plan probes the new index" true
    (st.Engine.index_probes > probes0)

let test_fork_gets_fresh_namespace () =
  let s = fixture () in
  let eng = System.engine s in
  run s "prepare p as select name from emp where emp_no = ?";
  run s "select name from emp";
  Alcotest.(check bool) "parent cache is warm" true
    (Engine.stmt_cache_size eng > 0);
  let f = Engine.fork eng in
  Alcotest.(check int) "fork starts with an empty statement cache" 0
    (Engine.stmt_cache_size f);
  Alcotest.(check (list string)) "fork starts with no prepared statements" []
    (Engine.prepared_names f);
  Alcotest.(check bool) "parent keeps its registry" true
    (Engine.has_prepared eng "p")

let test_explain_reports_cache_state () =
  let s = fixture () in
  let explain sql =
    match System.exec_one s ("explain " ^ sql) with
    | System.Msg m -> m
    | _ -> Alcotest.fail "explain returned a non-message"
  in
  let has_line needle msg =
    List.exists (String.equal needle) (String.split_on_char '\n' msg)
  in
  let sql = "select name from emp where emp_no = 2" in
  Alcotest.(check bool) "miss before first execution" true
    (has_line "  statement cache: miss" (explain sql));
  run s sql;
  Alcotest.(check bool) "hit after execution" true
    (has_line "  statement cache: hit" (explain sql));
  run s "create index ix2 on emp (salary)";
  Alcotest.(check bool) "stale after DDL" true
    (has_line "  statement cache: stale" (explain sql))

(* ------------------------------------------------------------------ *)
(* Differential oracle: compiled frame binding = interpreter           *)
(* substitution                                                        *)

(* Run the same prepared-statement script on two fresh systems, one per
   evaluator, and compare every rendered result (including errors). *)
let differential script =
  let run_path compiled =
    let s = fixture ~compiled () in
    run s "create table log (name string, salary float)";
    run s
      "create rule audit when updated emp.salary then insert into log \
       (select name, salary from new updated emp.salary)";
    List.map
      (fun stmt ->
        match System.exec_one s stmt with
        | r -> System.render_result r
        | exception Errors.Error e -> "error: " ^ Errors.to_string e)
      script
  in
  let compiled = run_path true and interpreted = run_path false in
  Alcotest.(check (list string)) "compiled = interpreted" interpreted compiled

let test_execute_differential () =
  differential
    [
      "prepare by_no as select name, salary from emp where emp_no = ?";
      "prepare raise as update emp set salary = salary * ? where salary >= ?";
      "prepare add as insert into emp values (?, ?, ?)";
      "prepare fire as delete from emp where emp_no = ?";
      "execute by_no (2)";
      "execute raise (1.1, 150.0)";
      "execute by_no (3)";
      "execute add ('dee', 4, 400.0)";
      "execute by_no (4)";
      "execute fire (1)";
      "select name from emp order by emp_no";
      "select name, salary from log order by salary";
      (* error paths must render identically too *)
      "execute by_no ()";
      "execute by_no (1, 2)";
      "execute nope (1)";
      (* NULL binds like any other constant *)
      "execute by_no (null)";
    ]

let test_execute_inside_transaction () =
  List.iter
    (fun compiled ->
      let s = fixture ~compiled () in
      run s "prepare bump as update emp set salary = salary + ? where \
             emp_no = ?";
      run s "begin";
      run s "execute bump (10.0, 1)";
      run s "execute bump (20.0, 1)";
      Alcotest.(check (float 0.001)) "both executes visible in-transaction"
        130.0
        (float_cell s "select salary from emp where emp_no = 1");
      run s "rollback";
      Alcotest.(check (float 0.001)) "rollback undoes both" 100.0
        (float_cell s "select salary from emp where emp_no = 1"))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Parse/print round-trips                                             *)

let test_round_trip () =
  List.iter
    (fun (src, printed) ->
      let stmt = Parser.parse_statement_string src in
      Alcotest.(check string) src printed (Pretty.statement_str stmt);
      (* printing then reparsing is a fixed point *)
      let again = Parser.parse_statement_string printed in
      Alcotest.(check string) "fixed point" printed
        (Pretty.statement_str again))
    [
      ( "PREPARE p AS SELECT name FROM emp WHERE emp_no = ?",
        "prepare p as select name from emp where (emp_no = ?)" );
      ( "prepare q as update emp set salary = ? where name like ?",
        "prepare q as update emp set salary = ? where (name like ?)" );
      ("execute p (1, 'it''s', 2.5, null)", "execute p (1, 'it''s', 2.5, NULL)");
      ("EXECUTE p", "execute p");
      ("execute p ()", "execute p");
      ("deallocate p", "deallocate p");
      ("DEALLOCATE ALL", "deallocate all");
    ]

let test_param_numbering_is_statement_order () =
  match
    Parser.parse_statement_string
      "prepare p as select * from emp where salary > ? and emp_no in (?, ?)"
  with
  | Ast.Stmt_prepare (_, op) ->
    Alcotest.(check int) "three parameters" 3 (Ast.param_count_op op);
    (* substituting distinct constants shows the numbering is
       left-to-right in statement order *)
    let bound =
      Ast.subst_params_op
        [| Value.Int 10; Value.Int 20; Value.Int 30 |]
        op
    in
    Alcotest.(check string) "numbered left to right"
      "select * from emp where ((salary > 10) and (emp_no in (20, 30)))"
      (Pretty.op_str bound)
  | _ -> Alcotest.fail "expected a PREPARE statement"

(* Select tracking (Section 5.1) must see the BOUND predicate: the
   read set is computed by interpreting the select's WHERE over the
   stored AST, and a dangling [?] would error out and conservatively
   count every row as selected — firing selected-rules on selects
   that matched nothing.  Found by the prepared workload
   differential. *)
let test_tracked_select_binds_params () =
  let config = { Engine.default_config with Engine.track_selects = true } in
  let s = system ~config "" in
  run s "create table t (a int, b int)";
  run s "create table log (n int)";
  run s "create rule read_audit when selected t.a then insert into log values (1)";
  run s "insert into t values (1, 10), (2, 20)";
  run s "prepare q as select a from t where a = ?";
  let log_count () =
    match erows s "select count(*) from log" with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "expected a count"
  in
  (* the direct and prepared forms of the same empty select must agree:
     nothing was read, so the selected-rule must not fire *)
  run s "begin";
  run s "select a from t where a = 99";
  run s "commit";
  let after_direct_empty = log_count () in
  run s "begin";
  run s "execute q (99)";
  run s "commit";
  Alcotest.(check int) "empty EXECUTE reads nothing" after_direct_empty
    (log_count ());
  (* and a matching select must fire identically under both forms *)
  run s "begin";
  run s "select a from t where a = 1";
  run s "commit";
  let fired = log_count () - after_direct_empty in
  Alcotest.(check bool) "direct non-empty select fires" true (fired > 0);
  run s "begin";
  run s "execute q (1)";
  run s "commit";
  Alcotest.(check int) "EXECUTE tracks like the direct select"
    (after_direct_empty + (2 * fired))
    (log_count ())

let suite =
  [
    Alcotest.test_case "prepare/execute/deallocate lifecycle" `Quick
      test_lifecycle;
    Alcotest.test_case "zero-parameter statements" `Quick
      test_zero_param_and_empty_args;
    Alcotest.test_case "typed errors: arity, unknown, duplicate" `Quick
      test_typed_errors;
    Alcotest.test_case "parameters allowed only under PREPARE" `Quick
      test_params_only_in_prepare;
    Alcotest.test_case "statement cache hits on repetition" `Quick
      test_cache_hits_on_repetition;
    Alcotest.test_case "invalidation: DDL generation bump" `Quick
      test_cache_invalidation_on_ddl;
    Alcotest.test_case "fork gets a fresh statement namespace" `Quick
      test_fork_gets_fresh_namespace;
    Alcotest.test_case "EXPLAIN reports cache state" `Quick
      test_explain_reports_cache_state;
    Alcotest.test_case "EXECUTE differential: frame binding = substitution"
      `Quick test_execute_differential;
    Alcotest.test_case "EXECUTE inside explicit transactions" `Quick
      test_execute_inside_transaction;
    Alcotest.test_case "select tracking binds parameters" `Quick
      test_tracked_select_binds_params;
    Alcotest.test_case "parse/print round trips" `Quick test_round_trip;
    Alcotest.test_case "parameters number in statement order" `Quick
      test_param_numbering_is_statement_order;
  ]
