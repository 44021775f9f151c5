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
     DDL-generation bumps, teardown on DEALLOCATE, and the statement
     state a fork is handed;
   - EXECUTE (parameter frame) equals the statement with its arguments
     substituted into the tree, and EXECUTE inside a transaction;
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

let fixture () =
  system
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

(* A fork runs its statements through the statement state it is
   handed: a fresh state starts empty whatever its parent holds, and
   two forks handed one state share its plans and prepared statements
   (the server hands every fork of a session the session's). *)
let test_fork_statement_state () =
  let s = fixture () in
  let eng = System.engine s in
  run s "prepare p as select name from emp where emp_no = ?";
  run s "select name from emp";
  Alcotest.(check bool) "parent cache is warm" true
    (Engine.stmt_cache_size (Engine.statements eng) > 0);
  let fresh = Engine.fork eng (Engine.new_statements ()) in
  Alcotest.(check int) "a fork given fresh state has an empty statement cache" 0
    (Engine.stmt_cache_size (Engine.statements fresh));
  Alcotest.(check (list string)) "and no prepared statements" []
    (Engine.prepared_names (Engine.statements fresh));
  Alcotest.(check (list string)) "the parent keeps its registry" [ "p" ]
    (Engine.prepared_names (Engine.statements eng));
  let shared = Engine.new_statements () in
  let a = System.of_engine (Engine.fork eng shared)
  and b = System.of_engine (Engine.fork eng shared) in
  run a "prepare q as select name from emp where emp_no = ?";
  run a "select salary from emp";
  Alcotest.(check (list (list value_testable)))
    "b executes the statement a prepared"
    [ [ Value.Str "ada" ] ]
    (List.map Array.to_list (erows b "execute q (1)"));
  let hits0 = (stats b).Engine.stmt_cache_hits in
  run b "select salary from emp";
  Alcotest.(check int) "b is served the plan a compiled"
    (hits0 + 1) (stats b).Engine.stmt_cache_hits;
  Alcotest.(check int) "the shared state counts both forks' lookups"
    ((stats a).Engine.stmt_cache_hits + (stats b).Engine.stmt_cache_hits)
    (let h, _, _ = Engine.statement_counts shared in h)

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
(* Frame binding = substitution                                        *)

(* Run a prepared-statement script, and beside it, on a second fresh
   system, the same script with each EXECUTE of a statement the script
   prepared (with matching arity) replaced by that statement's text with
   the arguments substituted for its parameters; every rendered result
   (including errors) must agree. *)
let differential script =
  let run_script stmts =
    let s = fixture () in
    run s "create table log (name string, salary float)";
    run s
      "create rule audit when updated emp.salary then insert into log \
       (select name, salary from new updated emp.salary)";
    List.map
      (fun stmt ->
        match System.exec_one s stmt with
        | r -> System.render_result r
        | exception Errors.Error e -> "error: " ^ Errors.to_string e)
      stmts
  in
  let prepared = Hashtbl.create 8 in
  let substituted =
    List.map
      (fun sql ->
        match Parser.parse_statement_string sql with
        | Ast.Stmt_prepare (name, op) ->
          Hashtbl.replace prepared name op;
          sql
        | Ast.Stmt_execute (name, args) -> (
          match Hashtbl.find_opt prepared name with
          | Some op when Ast.param_count_op op = List.length args ->
            Pretty.op_str (Ast.subst_params_op (Array.of_list args) op)
          | _ -> sql)
        | _ -> sql)
      script
  in
  Alcotest.(check (list string))
    "frame binding = substitution" (run_script substituted) (run_script script)

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
  let s = fixture () in
  run s "prepare bump as update emp set salary = salary + ? where emp_no = ?";
  run s "begin";
  run s "execute bump (10.0, 1)";
  run s "execute bump (20.0, 1)";
  Alcotest.(check (float 0.001)) "both executes visible in-transaction" 130.0
    (float_cell s "select salary from emp where emp_no = 1");
  run s "rollback";
  Alcotest.(check (float 0.001)) "rollback undoes both" 100.0
    (float_cell s "select salary from emp where emp_no = 1")

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

(* Select tracking (Section 5.1) must see the BOUND predicate: a read
   set computed from the select's WHERE over the stored AST would see
   a dangling [?], error out and conservatively count every row as
   selected — firing selected-rules on selects that matched nothing.
   Found by the prepared workload differential. *)
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

(* The AST traversal under the parameter rewrites, over compile-diff's
   generated selects: bare, as the source of an INSERT, and inside the
   WHERE of a DELETE and an UPDATE.  Lifting the bindable literals into
   parameters and substituting them back restores the operation; the
   parameter count is the number of literals lifted; and the printed
   parameterized operation is a PREPARE body that parses back to it. *)
let gen_operation st =
  let sel = Test_compile_diff.gen_select st in
  match QCheck.Gen.int_bound 3 st with
  | 0 -> sel
  | 1 -> Printf.sprintf "insert into u (%s)" sel
  | 2 ->
    Printf.sprintf "delete from u where a = %d or exists (%s)"
      (QCheck.Gen.int_bound 9 st) sel
  | _ ->
    Printf.sprintf "update u set c = %s where exists (%s)"
      (Test_compile_diff.gen_expr 2 st) sel

let prop_parameterize_round_trip =
  QCheck.Test.make ~count:500 ~name:"parameterize / substitute / print round trip"
    (QCheck.make ~print:Fun.id gen_operation)
    (fun sql ->
      match Parser.parse_statement_string sql with
      | Ast.Stmt_op op ->
        let op', args = Ast.parameterize_op op in
        if Ast.subst_params_op args op' <> op then
          QCheck.Test.fail_reportf "substitution does not restore %s" sql;
        if Ast.param_count_op op' <> Array.length args then
          QCheck.Test.fail_reportf "%d parameters counted, %d lifted"
            (Ast.param_count_op op') (Array.length args);
        let body = Pretty.op_str op' in
        (match Parser.parse_statement_string ("prepare p as " ^ body) with
        | Ast.Stmt_prepare (_, op'') when op'' = op' -> true
        | _ -> QCheck.Test.fail_reportf "%s does not parse back" body)
      | _ -> QCheck.Test.fail_reportf "not an operation: %s" sql)

(* The name of each expression constructor; the exhaustive match makes
   a new constructor fail to compile here until the fixture below
   covers it. *)
let constructor_name : Ast.expr -> string = function
  | Ast.Lit _ -> "Lit"
  | Ast.Param _ -> "Param"
  | Ast.Col _ -> "Col"
  | Ast.Binop _ -> "Binop"
  | Ast.Neg _ -> "Neg"
  | Ast.Cmp _ -> "Cmp"
  | Ast.And _ -> "And"
  | Ast.Or _ -> "Or"
  | Ast.Not _ -> "Not"
  | Ast.Is_null _ -> "Is_null"
  | Ast.Is_not_null _ -> "Is_not_null"
  | Ast.In_list _ -> "In_list"
  | Ast.In_select _ -> "In_select"
  | Ast.Not_in_list _ -> "Not_in_list"
  | Ast.Not_in_select _ -> "Not_in_select"
  | Ast.Exists _ -> "Exists"
  | Ast.Between _ -> "Between"
  | Ast.Like _ -> "Like"
  | Ast.Scalar_select _ -> "Scalar_select"
  | Ast.Agg _ -> "Agg"
  | Ast.Fn _ -> "Fn"
  | Ast.Case _ -> "Case"

let constructor_count = 22

(* One select with every expression constructor and every select part,
   each holding a select over its own base table [bK] and transition
   table [inserted tK] with its own [?]: the table folds find every
   table, the parameter count every [?], and substitution replaces
   every [?] in text order. *)
let test_traversal_reaches_every_part () =
  let k = ref (-1) in
  let arm () =
    incr k;
    Printf.sprintf "select x from b%d, inserted t%d where x = ?" !k !k
  in
  let sub () = "(" ^ arm () ^ ")" in
  let conjuncts =
    [
      Printf.sprintf "(%s + 1) = 2" (sub ());
      Printf.sprintf "- %s < 0" (sub ());
      Printf.sprintf "(%s = 1 or not (%s is null))" (sub ()) (sub ());
      Printf.sprintf "%s is not null" (sub ());
      Printf.sprintf "y in (%s, 2)" (sub ());
      Printf.sprintf "y in %s" (sub ());
      Printf.sprintf "y not in (%s, 3)" (sub ());
      Printf.sprintf "y not in %s" (sub ());
      Printf.sprintf "exists %s" (sub ());
      Printf.sprintf "%s between 1 and 2" (sub ());
      Printf.sprintf "%s like 'a%%'" (sub ());
      Printf.sprintf "abs(%s) = 1" (sub ());
      Printf.sprintf "case when %s = 1 then 1 else 0 end = 1" (sub ());
    ]
  in
  let projection = sub () in
  let derived = sub () in
  let where = String.concat " and " conjuncts in
  let group_by = sub () in
  let having = sub () in
  let compound = arm () in
  let order_by = sub () in
  let sql =
    Printf.sprintf
      "select %s as p, max(y) from b%d, inserted t%d, %s d where %s group by %s \
       having max(%s) > 0 union %s order by %s"
      projection (!k + 1) (!k + 1) derived where group_by having compound order_by
  in
  let n = !k + 1 in
  let prepared text =
    match Parser.parse_statement_string ("prepare p as " ^ text) with
    | Ast.Stmt_prepare (_, op) -> op
    | _ -> Alcotest.fail "expected a PREPARE statement"
  in
  let op = prepared sql in
  let rec expr acc e = Ast.fold_expr ~expr ~select (constructor_name e :: acc) e
  and select acc s = Ast.fold_select ~expr ~select acc s in
  Alcotest.(check int) "every constructor in the fixture" constructor_count
    (List.length (List.sort_uniq compare (Ast.fold_op ~expr ~select [] op)));
  let bases, transitions =
    Ast.fold_sources_op
      (fun (bs, ts) -> function
        | Ast.Base b -> (b :: bs, ts)
        | Ast.Transition tt -> (bs, Ast.trans_table_base tt :: ts)
        | Ast.Derived _ -> Alcotest.fail "a derived source was passed")
      ([], []) op
  in
  let names prefix = List.init (n + 1) (Printf.sprintf "%s%d" prefix) in
  let sorted = List.sort compare in
  Alcotest.(check (list string)) "every base table" (sorted (names "b")) (sorted bases);
  Alcotest.(check (list string))
    "every transition table" (sorted (names "t")) (sorted transitions);
  (match op with
  | Ast.Select_op s ->
    Alcotest.(check (list string))
      "base tables of an expression" (sorted (names "b"))
      (sorted (Ast.base_tables_of_expr (Ast.Exists s)))
  | _ -> Alcotest.fail "expected a select");
  (* the text with its j-th [?] replaced by [f j] *)
  let fill f =
    String.split_on_char '?' sql
    |> List.mapi (fun i piece -> if i = 0 then piece else f (i - 1) ^ piece)
    |> String.concat ""
  in
  Alcotest.(check int) "every parameter" n (Ast.param_count_op op);
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "parameter %d alone" i)
      1
      (Ast.param_count_op (prepared (fill (fun j -> if j = i then "?" else "0"))))
  done;
  Alcotest.(check string) "substitution in text order"
    (Pretty.op_str (prepared (fill (fun j -> string_of_int (100 + j)))))
    (Pretty.op_str (Ast.subst_params_op (Array.init n (fun i -> Value.Int (100 + i))) op))

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
    Alcotest.test_case "forks share the statement state they are handed" `Quick
      test_fork_statement_state;
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
    Alcotest.test_case "traversal reaches every part" `Quick
      test_traversal_reaches_every_part;
    qtest prop_parameterize_round_trip;
  ]
