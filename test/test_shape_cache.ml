(* The shape-keyed statement cache.

   [System.exec] lexes a script into per-statement shapes (token
   streams with typed literal slots) and, when the shape memo knows
   every statement, runs their cached parameterized plans with the
   script's literals bound, without parsing.  These tests pin what
   must not change on that path: results, error messages and
   positions, and the [stmt_cache_*] counters, which must equal those
   of parsing every statement and running it through
   [System.exec_statement] ([Engine.cached_cop], the path the memo
   skips).  Literal slots the plan keeps (projections, ORDER BY,
   LIMIT) are pinned; a literal's kind is part of the shape; DDL
   invalidates plans but not shapes; both tables evict the least
   recently used entry. *)

open Core
open Helpers

let schema =
  "create table t (a int, b int, s string);\n\
   insert into t values (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x'), (4, 40, \
   null), (5, null, 'z'), (-5, 50, 'y')"

(* Observable outcome of one script: rendered results or the error. *)
let observe f =
  match f () with
  | results -> Ok (List.map System.render_result results)
  | exception Errors.Error e -> Error (Errors.to_string e)

let cache_counters s =
  let st = Engine.stats (System.engine s) in
  ( st.Engine.stmt_cache_hits,
    st.Engine.stmt_cache_misses,
    st.Engine.stmt_cache_invalidations )

(* The memo-free reference: parse, then run each statement through
   [exec_statement]. *)
let exec_parsed s sql = List.map (System.exec_statement s) (Parser.parse_script sql)

let outcome_testable =
  Alcotest.(result (list string) string)

let counters_testable = Alcotest.(triple int int int)

(* Run [scripts] on a memo system and a reference system built alike,
   checking after each script that results and counters agree. *)
let agree ?(setup = schema) scripts =
  let memo = system setup and reference = system setup in
  List.iter
    (fun sql ->
      let a = observe (fun () -> System.exec memo sql)
      and b = observe (fun () -> exec_parsed reference sql) in
      Alcotest.check outcome_testable sql b a;
      Alcotest.check counters_testable ("counters after " ^ sql)
        (cache_counters reference) (cache_counters memo))
    scripts;
  memo

let delta s f =
  let h0, m0, i0 = cache_counters s in
  let r = f () in
  let h1, m1, i1 = cache_counters s in
  (r, (h1 - h0, m1 - m0, i1 - i0))

let first_relation = function
  | System.Relation rel :: _ -> rel
  | _ -> Alcotest.fail "expected a relation"

let test_pinned_literals () =
  let s =
    agree
      [
        "select 1, a from t where b = 10";
        "select 1, a from t where b = 20";
        "select 2, a from t where b = 20";
        "select 1, a from t where b = 30";
        "select a, b from t where a > 0 order by 1";
        "select a, b from t where a > 0 order by 2";
        "select a, b from t where a > 1 order by 1";
        "select a from t where a > 0 order by a limit 1";
        "select a from t where a > 0 order by a limit 3";
        "select a from t where a > 2 order by a limit 1";
      ]
  in
  (* a pinned projection literal keeps its value and column name *)
  let rel, d = delta s (fun () -> first_relation (System.exec s "select 7, a from t where b = 40")) in
  Alcotest.(check (array string)) "projection name" [| "7"; "a" |] rel.Eval.cols;
  Alcotest.(check bool) "projection value" true (rel.Eval.rows = [ [| vi 7; vi 4 |] ]);
  Alcotest.check counters_testable "new pinned value: a miss" (0, 1, 0) d;
  let _, d = delta s (fun () -> System.exec s "select 7, a from t where b = 10") in
  Alcotest.check counters_testable "same pinned value: a hit" (1, 0, 0) d;
  let rel = first_relation (System.exec s "select a from t where a > 0 order by a limit 2") in
  Alcotest.(check int) "limit bound" 2 (List.length rel.Eval.rows)

let test_literal_kinds () =
  ignore
    (agree
       [
         "select a from t where a = 1";
         "select a from t where a = 1.5";
         "select a from t where a = 2";
         "select a from t where a = 2.0";
         "select a from t where a = 'x'";
         "select a from t where a = null";
         "select a from t where a = 3";
         "select a from t where s = 'x' and b > 5";
         "select a from t where s = 'y' and b > 25";
         "select a from t where s = true";
         "select a from t where s = 1";
       ]);
  let s = system schema in
  ignore (System.exec s "select a from t where a = 1");
  let _, d = delta s (fun () -> System.exec s "select a from t where a = 1.5") in
  Alcotest.check counters_testable "Int and Float share a plan" (1, 0, 0) d;
  let r, d = delta s (fun () -> observe (fun () -> System.exec s "select a from t where a = 'x'")) in
  Alcotest.(check bool) "int = string errors" true (Result.is_error r);
  Alcotest.check counters_testable "Str is a new plan" (0, 1, 0) d;
  let _, d = delta s (fun () -> System.exec s "select a from t where a = null") in
  Alcotest.check counters_testable "NULL is a new plan" (0, 1, 0) d

let test_in_list_arity () =
  let s =
    agree
      [
        "select a from t where a in (1, 2) order by a";
        "select a from t where a in (3, 4) order by a";
        "select a from t where a in (1, 2, 3) order by a";
        "select a from t where a in (5) order by a";
        "select a from t where a not in (1, 2, 3) order by a";
        "select a from t where a not in (4, 5, 6) order by a";
        "select a from t where a in (1, null) order by a";
        "select a from t where a in (1, 'x') order by a";
      ]
  in
  let rel, d = delta s (fun () -> first_relation (System.exec s "select a from t where a in (2, 4) order by a")) in
  Alcotest.(check bool) "bound IN list" true (rel.Eval.rows = [ [| vi 2 |]; [| vi 4 |] ]);
  Alcotest.check counters_testable "same arity: a hit" (1, 0, 0) d

let test_negative_and_overflow () =
  let s =
    agree
      [
        "select a from t where a = - 5";
        "select a from t where a = -5";
        "select a from t where a = - 4";
        "insert into t values (-7, - 70, 'n')";
        "select a, b from t where a < - 6";
        "select a from t where a < 9223372036854775808 order by a";
        "select a from t where a < 4611686018427387903 order by a";
        "select a from t where a < 4611686018427387904 order by a";
        "select a from t where b > -9223372036854775808 order by a";
      ]
  in
  let sh = Sqlf.Lexer.shape "select a from t where a < 9223372036854775808" in
  Alcotest.(check bool)
    "overflowing integer lexes as a float" true
    (sh.Sqlf.Lexer.literals = [| Value.Float 9223372036854775808.0 |]);
  let rel = first_relation (System.exec s "select b from t where a = - 7") in
  Alcotest.(check bool) "negated literal bound" true (rel.Eval.rows = [ [| vi (-70) |] ])

let test_ddl_between_executions () =
  let s = agree [ "select b from t where a = 3"; "select b from t where a = 4" ] in
  let st = Engine.stats (System.engine s) in
  ignore (System.exec s "create index ta on t (a)");
  let probes0 = st.Engine.index_probes in
  let rel, d = delta s (fun () -> first_relation (System.exec s "select b from t where a = 2")) in
  Alcotest.(check bool) "rows" true (rel.Eval.rows = [ [| vi 20 |] ]);
  Alcotest.check counters_testable "one invalidation" (0, 0, 1) d;
  Alcotest.(check int) "the recompiled plan probes" 1 (st.Engine.index_probes - probes0);
  let _, d = delta s (fun () -> System.exec s "select b from t where a = 1") in
  Alcotest.check counters_testable "then hits" (1, 0, 0) d;
  (* and the same through the reference path *)
  ignore
    (agree
       [
         "select b from t where a = 3";
         "create index ta on t (a)";
         "select b from t where a = 2";
         "begin; update t set b = b + 1 where a = 2; select b from t where a = 2; commit";
         "drop index ta";
         "begin; update t set b = b + 1 where a = 3; select b from t where a = 3; commit";
       ])

(* Scripts the memo cannot cover whole: catalog statements beside data
   manipulation, and a rule whose action block spans several
   ';'-separated segments. *)
let test_mixed_scripts () =
  let s =
    agree
      ~setup:(schema ^ ";\ncreate table u (x int)")
      [
        "create rule r when inserted into t then insert into u values (1); \
         insert into u values (2);; insert into t values (7, 70, 'r')";
        "insert into t values (8, 80, 'r'); select count(*) from u";
        "insert into t values (9, 90, 'r'); select count(*) from u";
        "create index tb on t (b); select a from t where b = 80";
        "select a from t where b = 90; drop index tb; select a from t where b = 90";
        "explain select a from t where b = 90; select a from t where b = 80";
      ]
  in
  Alcotest.(check int) "rule fired per insert" 6 (int_cell s "select count(*) from u")

let test_lru_eviction () =
  let s = system schema in
  let hot i = Printf.sprintf "select b from t where a = %d" (i mod 5) in
  ignore (System.exec s (hot 0));
  for i = 1 to 600 do
    (* a distinct shape (and plan) per iteration *)
    ignore (System.exec s (Printf.sprintf "select a as c%d from t where b = %d" i i));
    let _, d = delta s (fun () -> System.exec s (hot i)) in
    if d <> (1, 0, 0) then
      Alcotest.failf "hot shape missed after %d cold shapes: %d/%d/%d" i
        (let h, _, _ = d in h)
        (let _, m, _ = d in m)
        (let _, _, v = d in v)
  done;
  Alcotest.(check int) "plan table bounded" Engine.stmt_cache_max
    (Engine.stmt_cache_size (Engine.statements (System.engine s)));
  (* the coldest shapes were evicted: the first one misses again *)
  let _, d = delta s (fun () -> System.exec s "select a as c1 from t where b = 1") in
  Alcotest.check counters_testable "evicted plan misses" (0, 1, 0) d

let parse_error f =
  match f () with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Errors.Error (Errors.Parse_error { line; col; msg }) -> (line, col, msg)
  | exception Errors.Error e -> Alcotest.failf "expected a parse error, got %s" (Errors.to_string e)

(* Golden positions and messages; the shape scan defers lexical errors
   to the parser, which reports the first error in the text. *)
let test_parse_errors () =
  let s = system schema in
  (* memoize the statement shapes the erroneous scripts start with *)
  ignore (System.exec s "insert into t values (9, 90, 'q'); select a from t where a = 1");
  let count0 = int_cell s "select count(*) from t" in
  List.iter
    (fun (sql, expected) ->
      Alcotest.(check (triple int int string)) sql expected
        (parse_error (fun () -> System.exec s sql));
      Alcotest.(check (triple int int string)) (sql ^ " (parsed)") expected
        (parse_error (fun () -> exec_parsed s sql)))
    [
      ("select a from t where s = 'abc", (1, 31, "unterminated string literal"));
      ( "insert into t values (1, 1, 'a');\nselect a from t where a = 1e+x",
        (2, 30, "malformed float exponent") );
      ("select a from t where a = 1 @ 2", (1, 29, "unexpected character '@'"));
      ("select a from t where a = 1 /* open\ncomment", (2, 8, "unterminated block comment"));
      ( "selec a; select 'unterminated",
        (1, 1, "expected a statement (found identifier \"selec\")") );
      ( "insert into t values (1, 1, 'a'); select a frm t",
        (1, 48, "expected \";\" (found identifier \"t\")") );
    ];
  Alcotest.(check int) "a script with an error runs nothing" count0
    (int_cell s "select count(*) from t")

(* The lexer's literal vector and the parser's literal nodes agree:
   every literal the parser built from a slot token carries the value
   the shape holds at that slot. *)
let prop_slots_agree =
  QCheck.Test.make ~count:300 ~name:"parser literals sit at their shape slots"
    (QCheck.make ~print:Fun.id Test_compile_diff.gen_select)
    (fun sql ->
      match Sqlf.Lexer.shape sql, Parser.parse_script_traced sql with
      | exception Errors.Error _ -> true
      | { Sqlf.Lexer.literals; segments }, traced ->
        List.length segments = List.length traced
        && List.for_all
             (fun (_, lits) ->
               List.for_all
                 (function
                   | Ast.Lit v, j -> j < Array.length literals && literals.(j) = v
                   | _ -> false)
                 lits)
             traced)

let suite =
  [
    Alcotest.test_case "pinned literals" `Quick test_pinned_literals;
    Alcotest.test_case "literal kinds" `Quick test_literal_kinds;
    Alcotest.test_case "IN-list arity" `Quick test_in_list_arity;
    Alcotest.test_case "negative and overflowing literals" `Quick
      test_negative_and_overflow;
    Alcotest.test_case "DDL between executions" `Quick test_ddl_between_executions;
    Alcotest.test_case "scripts with catalog statements and rule blocks" `Quick
      test_mixed_scripts;
    Alcotest.test_case "LRU eviction keeps a hot shape" `Quick test_lru_eviction;
    Alcotest.test_case "parse errors keep position and message" `Quick
      test_parse_errors;
    qtest prop_slots_agree;
  ]
