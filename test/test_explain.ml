(* EXPLAIN and the observability layer.

   The planner must tell the truth: the access path EXPLAIN names is
   asserted against the executor's own scan/probe statistics, not
   against a parallel re-implementation.  Also covered: EXPLAIN RULE,
   trace timestamps, the JSONL exporter, per-rule metrics, and a qcheck
   round-trip property over whole statements including EXPLAIN forms. *)

open Core
open Helpers

let explained s sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_explain (Ast.Explain_op op) ->
    Engine.explain_op (System.engine s) op
  | _ -> Alcotest.failf "expected an EXPLAIN statement: %s" sql

let indexed_system () =
  let s =
    system
      "create table emp (name string, emp_no int, salary float);\n\
       create table audit_log (name string);\n\
       create index emp_no_ix on emp (emp_no);\n\
       create index emp_salary_ix on emp (salary) using ordered"
  in
  run s "insert into emp values ('ada', 1, 100.0), ('bob', 2, 200.0), \
         ('cyd', 3, 300.0)";
  s

(* ---- parsing and printing ---- *)

let test_parse_explain () =
  (match Parser.parse_statement_string "explain select * from emp" with
  | Ast.Stmt_explain (Ast.Explain_op (Ast.Select_op _)) -> ()
  | _ -> Alcotest.fail "explain select parse");
  (match Parser.parse_statement_string "explain delete from emp where a = 1" with
  | Ast.Stmt_explain (Ast.Explain_op (Ast.Delete _)) -> ()
  | _ -> Alcotest.fail "explain delete parse");
  (match Parser.parse_statement_string "explain rule audit" with
  | Ast.Stmt_explain (Ast.Explain_rule "audit") -> ()
  | _ -> Alcotest.fail "explain rule parse");
  (* EXPLAIN is a statement, not an expression: it pretty-prints and
     re-parses *)
  let stmt = Parser.parse_statement_string "explain update emp set a = 1" in
  Alcotest.(check bool) "pretty round trip" true
    (Parser.parse_statement_string (Pretty.statement_str stmt) = stmt)

(* ---- EXPLAIN vs the executor ---- *)

(* Each statement with the base-table accesses its predicate subqueries
   make, as (seq scans, index probes, range probes): a plan covers the
   statement's own FROM sources and victim table, not the tables read
   inside its expressions. *)
let explain_statements =
  let none = (0, 0, 0) in
  [
    ("select * from emp where emp_no = 2", none);
    ("select name from emp where salary > 150.0", none);
    ("select name from emp where salary between 100.0 and 250.0", none);
    ("select name from emp where name like 'a%'", none);
    ("select * from emp e, audit_log a where e.name = a.name", none);
    ("select name, count(*) from emp group by name", none);
    ( "select * from emp where emp_no in (select emp_no from emp where \
       salary > 650.0)",
      (0, 0, 1) );
    (* 7 of 8 rows pass the subquery's range, past its budget of 2 *)
    ( "select * from emp where emp_no in (select emp_no from emp where \
       salary > 150.0)",
      (1, 0, 0) );
    ("update emp set salary = salary + 1.0 where emp_no = 1", none);
    ("delete from emp where salary = (select 150.0 + 50.0)", none);
    ("delete from emp where emp_no in (2, 3)", none);
    ("insert into audit_log select name from emp where emp_no = 1", none);
    ("insert into audit_log values ('zed')", none);
    (* an uncorrelated aggregate subquery runs once *)
    ("select name from emp where emp_no > (select min(emp_no) from emp)", (1, 0, 0));
    (* linked joins on each side of the index nested-loop threshold
       (k partial frames within the budget of 2 of 8 emp rows): 2 badge
       rows probe emp_no twice; 7 emp rows past the range probe hash
       the inner emp *)
    ("select b.emp_no, e.name from badge b, emp e where b.emp_no = e.emp_no", none);
    ( "select x.name, e.name from emp x, emp e where x.salary > 650.0 and \
       x.emp_no = e.emp_no",
      none );
    ( "select x.name, e.name from emp x, emp e where x.salary > 150.0 and \
       x.emp_no = e.emp_no",
      none );
    (* the third source's method is decided from the first two's join *)
    ( "select e.name from badge b, emp x, emp e where b.emp_no = x.emp_no and \
       x.emp_no = e.emp_no",
      none );
  ]

(* For each statement: EXPLAIN first, count the scan/probe/range-probe
   entries, the probes of index nested-loop joins and the hash joins in
   the plan, add the accesses of the statement's subqueries, then
   execute the real statement and compare against the deltas of the
   engine's own counters: EXPLAIN is a plan-only run of the executor,
   so it must tell the truth about it. *)
let explain_matches_executor () =
  let s = indexed_system () in
  run s "insert into emp values ('dan', 4, 400.0), ('eve', 5, 500.0), \
         ('fay', 6, 600.0), ('gus', 7, 700.0), ('hal', 8, 800.0)";
  run s "create table badge (emp_no int)";
  run s "insert into badge values (2), (5)";
  let eng = System.engine s in
  List.iter
    (fun (sql, (sub_scans, sub_probes, sub_ranges)) ->
      let plans = explained s ("explain " ^ sql) in
      let count f = List.length (List.filter f plans) in
      let planned_scans =
        count (fun p ->
            match p.Eval.sp_path with Eval.Seq_scan _ -> true | _ -> false)
      in
      let planned_probes =
        List.fold_left
          (fun n p ->
            match p.Eval.sp_path with
            | Eval.Index_probe _ -> n + 1
            | Eval.Index_join_probes { probes; _ } -> n + probes
            | _ -> n)
          0 plans
      in
      let planned_ranges =
        count (fun p ->
            match p.Eval.sp_path with
            | Eval.Range_probe _ -> true
            | _ -> false)
      in
      let planned_joins =
        count (fun p ->
            match p.Eval.sp_join with
            | Some { Eval.jp_method = Eval.Hash_join; _ } -> true
            | Some { Eval.jp_method = Eval.Index_nested_loop _; _ } | None -> false)
      in
      let st = Engine.stats eng in
      let scans0 = st.Engine.seq_scans
      and probes0 = st.Engine.index_probes
      and ranges0 = st.Engine.range_probes
      and builds0 = st.Engine.hash_join_builds in
      run s sql;
      Alcotest.(check int)
        (sql ^ ": seq scans")
        (planned_scans + sub_scans)
        (st.Engine.seq_scans - scans0);
      Alcotest.(check int)
        (sql ^ ": index probes")
        (planned_probes + sub_probes)
        (st.Engine.index_probes - probes0);
      Alcotest.(check int)
        (sql ^ ": range probes")
        (planned_ranges + sub_ranges)
        (st.Engine.range_probes - ranges0);
      Alcotest.(check int)
        (sql ^ ": hash join builds")
        planned_joins
        (st.Engine.hash_join_builds - builds0))
    explain_statements

let test_explain_names_the_index () =
  let s = indexed_system () in
  match explained s "explain select * from emp where emp_no = 2" with
  | [ { Eval.sp_binding = "emp"; sp_path = Eval.Index_probe p; _ } ] ->
    Alcotest.(check (option string)) "index name" (Some "emp_no_ix") p.index;
    Alcotest.(check string) "column" "emp_no" p.column;
    Alcotest.(check int) "matches" 1 p.matches;
    Alcotest.(check int) "estimate" 1 p.est;
    Alcotest.(check (option int)) "cardinality" (Some 3) p.rows;
    Alcotest.(check bool) "conjunct mentions the column" true
      (String.length p.conjunct > 0)
  | plans ->
    Alcotest.failf "expected one index probe, got: %s"
      (String.concat "; " (List.map Eval.describe_source_plan plans))

(* A range predicate over an ordered index plans (and executes) as a
   range probe, with the cost-model estimate reported. *)
let test_explain_range_probe () =
  let s = indexed_system () in
  match
    explained s
      "explain select name from emp where salary between 150.0 and 250.0"
  with
  | [ { Eval.sp_binding = "emp"; sp_path = Eval.Range_probe p; _ } ] ->
    Alcotest.(check (option string))
      "index name" (Some "emp_salary_ix") p.index;
    Alcotest.(check string) "column" "salary" p.column;
    Alcotest.(check int) "matches" 1 p.matches;
    (* est(range) = (nrows + 2) / 3 with nrows = 3 *)
    Alcotest.(check int) "estimate" 1 p.est;
    Alcotest.(check (option int)) "cardinality" (Some 3) p.rows
  | plans ->
    Alcotest.failf "expected one range probe, got: %s"
      (String.concat "; " (List.map Eval.describe_source_plan plans))

(* With a hash and an ordered index over one column, EXPLAIN names the
   index each probe reads: the ordered one for a range, whose name
   sorts after the hash index's, and any (the first by name) for an
   equality. *)
let test_range_probe_names_ordered_index () =
  let s =
    system
      "create table t (a int);\n\
       create index a_hash on t (a);\n\
       create index b_ord on t (a) using ordered"
  in
  run s
    ("insert into t values "
    ^ String.concat ", " (List.init 20 (fun i -> Printf.sprintf "(%d)" i)));
  let index_of sql =
    match explained s sql with
    | [ { Eval.sp_path = Eval.Range_probe p; _ } ] -> ("range", p.index)
    | [ { Eval.sp_path = Eval.Index_probe p; _ } ] -> ("eq", p.index)
    | plans ->
      Alcotest.failf "expected one probe, got: %s"
        (String.concat "; " (List.map Eval.describe_source_plan plans))
  in
  Alcotest.(check (pair string (option string)))
    "range probe" ("range", Some "b_ord")
    (index_of "explain select * from t where a > 16");
  Alcotest.(check (pair string (option string)))
    "equality probe" ("eq", Some "a_hash")
    (index_of "explain select * from t where a = 7")

(* A range probe gathers at most max 1 (n / max 4 (log2 n)) handles of
   n rows: over 20 rows, a range of 5 rows is probed and one of 6 is
   abandoned for the scan, which EXPLAIN names with the budget the
   probe passed and the engine counts as a scan. *)
let test_range_probe_budget () =
  let s =
    system "create table t (a int);\ncreate index t_ord on t (a) using ordered"
  in
  run s
    ("insert into t values "
    ^ String.concat ", " (List.init 20 (fun i -> Printf.sprintf "(%d)" i)));
  let st = Engine.stats (System.engine s) in
  let shows sql line =
    match System.exec s ("explain " ^ sql) with
    | [ System.Msg text ] ->
      Alcotest.(check bool)
        (Printf.sprintf "explain %s shows %S" sql line)
        true
        (List.mem line (String.split_on_char '\n' text))
    | _ -> Alcotest.fail "expected one explain message"
  in
  let abandoned = "  t: seq scan of t (20 rows): range probe via t_ord passed its budget of 5" in
  List.iter
    (fun (where, line, hits, (scans, ranges)) ->
      let sql = "select a from t where " ^ where in
      shows sql line;
      let scans0 = st.Engine.seq_scans and ranges0 = st.Engine.range_probes in
      Alcotest.(check int) (where ^ ": rows") hits (List.length (rows s sql));
      Alcotest.(check (pair int int))
        (where ^ ": seq scans, range probes")
        (scans, ranges)
        (st.Engine.seq_scans - scans0, st.Engine.range_probes - ranges0))
    [
      ( "a > 14",
        "  t: range probe of t via t_ord on a, conjunct (a > 14): est ~7, 5 of 20 rows",
        5,
        (0, 1) );
      ("a > 13", abandoned, 6, (1, 0));
    ];
  (* a victim selection gives up the same way *)
  shows "delete from t where a > 13" abandoned

(* One column's lower and upper comparisons make one two-sided range
   probe in either conjunct order, for EXPLAIN and the executor:
   [a >= 100 and a < 125] over a = 0..2499 reads the 25 rows of the
   range, where a one-sided probe on the first conjunct read 2,400. *)
let test_two_sided_range () =
  let s =
    system
      "create table t (a int, b int);\n\
       create index ia on t (a) using ordered"
  in
  run s
    (Printf.sprintf "insert into t values %s"
       (String.concat ", " (List.init 2500 (fun i -> Printf.sprintf "(%d, %d)" i (i mod 7)))));
  let st = Engine.stats (System.engine s) in
  List.iter
    (fun (where, conjunct) ->
      let sql = "select b from t where " ^ where in
      (match System.exec s ("explain " ^ sql) with
      | [ System.Msg text ] ->
        let line =
          Printf.sprintf
            "  t: range probe of t via ia on a, conjunct %s: est ~834, 25 of 2500 rows"
            conjunct
        in
        Alcotest.(check bool)
          (Printf.sprintf "explain %s shows %S" where line)
          true
          (List.mem line (String.split_on_char '\n' text))
      | _ -> Alcotest.fail "expected one explain message");
      let ranges0 = st.Engine.range_probes and scans0 = st.Engine.seq_scans in
      Alcotest.(check int) "range rows" 25 (List.length (rows s sql));
      Alcotest.(check int) "one range probe" 1 (st.Engine.range_probes - ranges0);
      Alcotest.(check int) "no scan" 0 (st.Engine.seq_scans - scans0))
    [
      ("a >= 100 and a < 125", "((a >= 100) and (a < 125))");
      ("a < 125 and a >= 100", "((a < 125) and (a >= 100))");
    ]

(* The hash-join annotation and its executor counters: one build for
   the joined source, one probe per partial row of the frame under
   construction. *)
let test_hash_join_counters () =
  let s = indexed_system () in
  let eng = System.engine s in
  run s "insert into audit_log values ('ada'), ('bob')";
  let join_sql = "select * from emp e, audit_log a where e.name = a.name" in
  (match explained s ("explain " ^ join_sql) with
  | [ e_plan; a_plan ] ->
    Alcotest.(check bool)
      "first source joins nothing" true
      (e_plan.Eval.sp_join = None);
    (match a_plan.Eval.sp_join with
    | Some j ->
      Alcotest.(check string) "joined with" "e" j.Eval.jp_with;
      Alcotest.(check bool) "conjunct rendered" true
        (String.length j.Eval.jp_conjunct > 0)
    | None -> Alcotest.fail "expected a hash-join annotation")
  | plans ->
    Alcotest.failf "expected two source plans, got %d" (List.length plans));
  let st = Engine.stats eng in
  let builds0 = st.Engine.hash_join_builds
  and probes0 = st.Engine.hash_join_probes in
  let r = rows s join_sql in
  Alcotest.(check int) "joined rows" 2 (List.length r);
  Alcotest.(check int) "one build" 1 (st.Engine.hash_join_builds - builds0);
  Alcotest.(check int) "one probe per emp row" 3
    (st.Engine.hash_join_probes - probes0)

(* A join whose outer source is scanned after its probe passed the
   budget: the source tests its own conjunct ([l.oid = 7], 4 of the 12
   lineitem rows) on each stored row, so only passing rows reach the
   join, and the join method is chosen from their count.  Over an
   unindexed item table the hash join is probed once per passing row;
   once item is indexed (budget 4 of its 16 rows) those 4 rows are
   probed by index nested-loop join, where the 12 scanned rows would
   have been hashed. *)
let test_scanned_outer_tests_its_rows () =
  let s =
    system
      "create table lineitem (oid int, iid int, qty int);\n\
       create table item (iid int, price int);\n\
       create index li_oid on lineitem (oid)"
  in
  run s
    "insert into lineitem values (7, 1, 1), (7, 2, 2), (7, 3, 3), (7, 4, 4), (1, 5, 1), \
     (2, 6, 1), (3, 7, 1), (4, 8, 1), (5, 9, 1), (6, 10, 1), (8, 11, 1), (9, 12, 1)";
  run s
    (Printf.sprintf "insert into item values %s"
       (String.concat ", " (List.init 16 (fun i -> Printf.sprintf "(%d, %d)" (i + 1) (10 * (i + 1))))));
  let sql = "select sum(l.qty * i.price) from lineitem l, item i where l.iid = i.iid and l.oid = 7" in
  let st = Engine.stats (System.engine s) in
  let explain () =
    match explained s ("explain " ^ sql) with
    | [ l; i ] -> (l, i)
    | plans -> Alcotest.failf "expected two source plans, got %d" (List.length plans)
  in
  let run_counted () =
    let hash0 = st.Engine.hash_join_probes and probes0 = st.Engine.index_probes in
    Alcotest.(check int) "joined sum" 300 (int_cell s sql);
    (st.Engine.hash_join_probes - hash0, st.Engine.index_probes - probes0)
  in
  let l, i = explain () in
  Alcotest.(check string) "lineitem scanned past its budget"
    "l: seq scan of lineitem (12 rows): index probe via li_oid passed its budget of 3"
    (Eval.describe_source_plan l);
  Alcotest.(check (list string)) "l.oid = 7 tested on lineitem's rows" [ "(l.oid = 7)" ]
    l.Eval.sp_tests;
  Alcotest.(check (list string)) "item has no conjunct of its own" [] i.Eval.sp_tests;
  Alcotest.(check bool) "hash join" true
    (match i.Eval.sp_join with Some { Eval.jp_method = Eval.Hash_join; _ } -> true | _ -> false);
  Alcotest.(check (pair int int)) "one hash-join probe per l.oid = 7 row" (4, 0) (run_counted ());
  run s "create index item_iid on item (iid)";
  let _, i = explain () in
  Alcotest.(check string) "index nested-loop join chosen from the 4 passing rows"
    "i: 4 index probes of item (est ~4 of 16 rows), index nested-loop join with l on (l.iid = \
     i.iid) via item_iid"
    (Eval.describe_source_plan i);
  Alcotest.(check (pair int int)) "one index probe per l.oid = 7 row" (0, 4) (run_counted ())

let test_explain_does_not_execute () =
  let s = indexed_system () in
  let eng = System.engine s in
  let before = rows s "select * from emp order by emp_no" in
  ignore (explained s "explain delete from emp");
  ignore (System.exec s "explain update emp set salary = 0.0");
  let st = Engine.stats eng in
  (* the EXPLAINs themselves perturbed no scan/probe statistics beyond
     the two verification queries above *)
  let scans0 = st.Engine.seq_scans in
  ignore (explained s "explain select * from emp where emp_no = 1");
  Alcotest.(check int) "no stats from planning" scans0 st.Engine.seq_scans;
  Alcotest.check rows_testable "no rows changed" before
    (rows s "select * from emp order by emp_no")

(* EXPLAIN compiles its statement afresh: neither an EXPLAIN nor an
   [explain_op] call touches the statement cache, so the first run of
   the same statement afterwards is still a miss. *)
let test_explain_leaves_stmt_cache () =
  let s = indexed_system () in
  let st = Engine.stats (System.engine s) in
  let sql = "select name from emp where emp_no = 2" in
  let counters () =
    ( st.Engine.stmt_cache_hits,
      st.Engine.stmt_cache_misses,
      st.Engine.stmt_cache_invalidations )
  in
  let c0 = counters () in
  ignore (explained s ("explain " ^ sql));
  ignore (System.exec s ("explain " ^ sql));
  ignore (explained s "explain delete from emp where emp_no = 3");
  Alcotest.(check (triple int int int)) "explain counts nothing" c0 (counters ());
  let h0, m0, _ = c0 in
  run s sql;
  Alcotest.(check int) "first run still misses" (m0 + 1) st.Engine.stmt_cache_misses;
  Alcotest.(check int) "no hit yet" h0 st.Engine.stmt_cache_hits

let test_explain_unknown_table () =
  let s = indexed_system () in
  expect_error (fun () -> explained s "explain select * from nosuch")

let test_explain_rule () =
  let s = indexed_system () in
  run s
    "create rule audit when deleted from emp if exists (select * from \
     deleted emp where salary > 100.0) then insert into audit_log select \
     name from deleted emp";
  (match Engine.explain_rule (System.engine s) "audit" with
  | [ (sql, [ { Eval.sp_binding = "emp"; sp_path = Eval.Materialized m; _ } ]) ]
    ->
    Alcotest.(check bool) "condition text" true
      (String.length sql > 0);
    Alcotest.(check int) "empty transition table" 0 m.rows
  | r ->
    Alcotest.failf "unexpected rule plan shape (%d entries)" (List.length r));
  (* a condition that also reads a base table shows its access path *)
  run s
    "create rule cross_check when inserted into emp if exists (select * from \
     emp where emp_no = 1) then insert into audit_log values ('x')";
  (match Engine.explain_rule (System.engine s) "cross_check" with
  | [ (_, [ { Eval.sp_path = Eval.Index_probe p; _ } ]) ] ->
    Alcotest.(check (option string)) "probes via the index" (Some "emp_no_ix")
      p.index
  | r ->
    Alcotest.failf "unexpected cross_check plan shape (%d entries)"
      (List.length r));
  (* condition-less rules have nothing to plan *)
  run s "create rule plain when inserted into emp then insert into audit_log \
         values ('y')";
  Alcotest.(check int) "condition-less rule" 0
    (List.length (Engine.explain_rule (System.engine s) "plain"));
  expect_error (fun () -> Engine.explain_rule (System.engine s) "nosuch")

(* ---- trace, clock, metrics ---- *)

let traced_system () =
  let s = indexed_system () in
  run s
    "create rule audit when deleted from emp then insert into audit_log \
     select name from deleted emp";
  Engine.set_tracing (System.engine s) true;
  s

let test_trace_timestamps () =
  let s = traced_system () in
  let eng = System.engine s in
  run s "delete from emp where emp_no = 3";
  (* no clock installed: every stamp is None *)
  Alcotest.(check bool) "no stamps without a clock" true
    (List.for_all (fun (st, _) -> st = None) (Engine.timed_trace eng));
  Alcotest.(check bool) "has events" true (Engine.timed_trace eng <> []);
  (* install a deterministic clock: stamps appear and are monotone *)
  let t = ref 0.0 in
  Engine.set_clock eng (Some (fun () -> t := !t +. 0.5; !t));
  Alcotest.(check bool) "has_clock" true (Engine.has_clock eng);
  run s "delete from emp where emp_no = 2";
  let stamps = List.map fst (Engine.timed_trace eng) in
  Alcotest.(check bool) "all stamped" true
    (List.for_all Option.is_some stamps);
  let rec monotone = function
    | Some a :: (Some b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone stamps" true (monotone stamps)

let test_trace_jsonl () =
  let s = traced_system () in
  let eng = System.engine s in
  run s "delete from emp where emp_no = 3";
  let jsonl = Engine.trace_jsonl eng in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per event" (List.length (Engine.trace eng))
    (List.length lines);
  List.iteri
    (fun i line ->
      Alcotest.(check bool) "object per line" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      let seq = Printf.sprintf "{\"seq\":%d," i in
      Alcotest.(check bool) "sequential seq field" true
        (String.length line >= String.length seq
        && String.sub line 0 (String.length seq) = seq))
    lines;
  (* clock off: no "t" field anywhere, so the export is deterministic *)
  Alcotest.(check bool) "no timestamps when clock off" false
    (List.exists
       (fun line ->
         let rec contains i =
           i + 5 <= String.length line
           && (String.sub line i 5 = "\"t\":0" || contains (i + 1))
         in
         contains 0)
       lines);
  Alcotest.(check bool) "fired event present" true
    (List.exists
       (fun line ->
         let needle = "\"event\":\"fired\",\"rule\":\"audit\"" in
         let rec contains i =
           i + String.length needle <= String.length line
           && (String.sub line i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0)
       lines)

let test_rule_metrics () =
  let s = traced_system () in
  let eng = System.engine s in
  run s "delete from emp where emp_no = 3";
  run s "delete from emp where emp_no = 2";
  let row name =
    match
      List.find_opt
        (fun r -> r.Engine.rr_rule = name)
        (Engine.rule_report eng)
    with
    | Some r -> r
    | None -> Alcotest.failf "no report row for %s" name
  in
  let audit = row "audit" in
  Alcotest.(check int) "audit considered twice" 2 audit.Engine.rr_considered;
  Alcotest.(check int) "audit fired twice" 2 audit.Engine.rr_fired;
  Alcotest.(check int) "audit effect tuples" 2 audit.Engine.rr_effect_tuples;
  (* counts accumulate without a clock, times stay zero *)
  Alcotest.(check (float 0.0)) "no cond time without clock" 0.0
    audit.Engine.rr_cond_seconds;
  Alcotest.(check (float 0.0)) "no action time without clock" 0.0
    audit.Engine.rr_action_seconds;
  (* with a clock the action time accumulates (deterministic fake
     clock: +0.25s per read, 2 reads per action) *)
  let t = ref 0.0 in
  Engine.set_clock eng (Some (fun () -> t := !t +. 0.25; !t));
  run s "delete from emp where emp_no = 1";
  let audit = row "audit" in
  Alcotest.(check int) "third firing" 3 audit.Engine.rr_fired;
  Alcotest.(check bool) "action time accumulated" true
    (audit.Engine.rr_action_seconds > 0.0);
  (* dropped rules leave the report *)
  run s "drop rule audit";
  Alcotest.(check bool) "dropped rule gone" true
    (List.for_all
       (fun r -> r.Engine.rr_rule <> "audit")
       (Engine.rule_report eng))

(* ---- statement round-trip property ---- *)

(* Generators for printable-and-reparsable statements.  Numeric
   literals are non-negative (negation is a separate AST node) and
   floats are quarters so "%.12g" reproduces them exactly; identifiers
   come from fixed keyword-free lists; nan/infinity literals are
   included to pin the non-finite spellings. *)
module Gen = struct
  open QCheck.Gen

  let ident = oneofl [ "emp"; "dept"; "t"; "u" ]
  let col = oneofl [ "a"; "b"; "c" ]

  let lit =
    oneof
      [
        map (fun n -> Value.Int n) (int_bound 1000);
        map (fun k -> Value.Float (float_of_int k /. 4.0)) (int_bound 400);
        map (fun s -> Value.Str s) (oneofl [ ""; "x"; "o'k"; "per cent%" ]);
        oneofl [ Value.Null; Value.Bool true; Value.Bool false ];
        (* no neg_infinity here: as with "-2.5", a leading minus parses
           as a separate Neg node, the grammar's convention for every
           negative literal *)
        oneofl [ Value.Float Float.nan; Value.Float Float.infinity ];
      ]

  let rec expr n =
    if n <= 0 then
      oneof
        [
          map (fun v -> Ast.Lit v) lit;
          map (fun c -> Ast.Col { qualifier = None; column = c }) col;
          map2
            (fun q c -> Ast.Col { qualifier = Some q; column = c })
            ident col;
        ]
    else
      let sub = expr (n / 2) in
      oneof
        [
          map (fun v -> Ast.Lit v) lit;
          map (fun c -> Ast.Col { qualifier = None; column = c }) col;
          map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) sub sub;
          map2 (fun a b -> Ast.Cmp (Ast.Le, a, b)) sub sub;
          map2 (fun a b -> Ast.And (a, b)) sub sub;
          map2 (fun a b -> Ast.Or (a, b)) sub sub;
          map (fun a -> Ast.Not a) sub;
          map (fun a -> Ast.Neg a) sub;
          map (fun a -> Ast.Is_null a) sub;
          map2 (fun a b -> Ast.In_list (a, [ b ])) sub sub;
          map2 (fun a b -> Ast.Fn ("coalesce", [ a; b ])) sub sub;
        ]

  let proj =
    oneof
      [
        return Ast.Star;
        map (fun t -> Ast.Table_star t) ident;
        map2 (fun e a -> Ast.Proj (e, a)) (expr 2)
          (oneofl [ None; Some "x"; Some "y" ]);
      ]

  let from_item =
    map2
      (fun t a -> { Ast.source = Ast.Base t; alias = a })
      ident
      (oneofl [ None; Some "x"; Some "y" ])

  let select_core =
    let* distinct = bool in
    let* projections = list_size (int_range 1 3) proj in
    let* from = list_size (int_range 0 2) from_item in
    let* where = opt (expr 3) in
    return
      {
        Ast.distinct;
        projections;
        from;
        where;
        group_by = [];
        having = None;
        compounds = [];
        order_by = [];
        limit = None;
      }

  let select =
    let* core = select_core in
    let* compounds =
      list_size (int_range 0 1)
        (pair (oneofl [ Ast.Union; Ast.Union_all; Ast.Except ]) select_core)
    in
    let* order_by =
      list_size (int_range 0 2) (pair (expr 1) (oneofl [ `Asc; `Desc ]))
    in
    let* limit = opt (int_bound 50) in
    return { core with Ast.compounds; order_by; limit }

  let op =
    oneof
      [
        map (fun s -> Ast.Select_op s) select;
        (let* table = ident in
         let* columns = opt (list_size (int_range 1 2) col) in
         let* source =
           oneof
             [
               map
                 (fun rows -> `Values rows)
                 (list_size (int_range 1 2)
                    (list_size (int_range 1 2) (map (fun v -> Ast.Lit v) lit)));
               map (fun s -> `Select s) select;
             ]
         in
         return (Ast.Insert { table; columns; source }));
        (let* table = ident in
         let* where = opt (expr 3) in
         return (Ast.Delete { table; where }));
        (let* table = ident in
         let* sets = list_size (int_range 1 2) (pair col (expr 2)) in
         let* where = opt (expr 3) in
         return (Ast.Update { table; sets; where }));
      ]

  let statement =
    oneof
      [
        map (fun o -> Ast.Stmt_op o) op;
        map (fun o -> Ast.Stmt_explain (Ast.Explain_op o)) op;
        map (fun r -> Ast.Stmt_explain (Ast.Explain_rule r)) ident;
      ]
end

let prop_statement_round_trip =
  let arb =
    QCheck.make ~print:Pretty.statement_str Gen.statement
  in
  QCheck.Test.make ~name:"parse (pretty stmt) = stmt" ~count:500 arb
    (fun stmt ->
      let printed = Pretty.statement_str stmt in
      match Parser.parse_statement_string printed with
      | reparsed ->
        (* structural compare is nan-safe, unlike (=) *)
        compare reparsed stmt = 0
        || QCheck.Test.fail_reportf "printed %S\nreparsed as %S" printed
             (Pretty.statement_str reparsed)
      | exception Errors.Error e ->
        QCheck.Test.fail_reportf "printed %S\nfailed to parse: %s" printed
          (Errors.to_string e))

(* An IN (select ...) probe is ranked as two keys and sized by its set
   once the subquery has run: over 40 rows a probe may spend 8, one per
   key at least, so a set of 8 keys probes and one of 9 is refused
   before any lookup, in the executor and in EXPLAIN alike. *)
let test_in_subquery_sized_choice () =
  let sc = system "create table big (k int, v int); create index big_k on big (k)" in
  run sc
    (Printf.sprintf "insert into big values %s"
       (String.concat ", "
          (List.init 40 (fun i -> Printf.sprintf "(%d, %d)" (i + 1) ((i + 1) mod 4)))));
  let path sql =
    match explained sc ("explain " ^ sql) with
    | [ { Eval.sp_path = Eval.Index_probe { est; matches; _ }; _ } ] ->
      `Probe (est, matches)
    | [ { Eval.sp_path = Eval.Seq_scan { abandoned; _ }; _ } ] ->
      `Scan (Option.map (fun ab -> ab.Eval.ab_budget) abandoned)
    | _ -> Alcotest.failf "%s: unexpected plan shape" sql
  in
  let probe = Alcotest.testable (fun ppf -> function
      | `Scan b -> Fmt.pf ppf "scan past %a" Fmt.(option int) b
      | `Probe (est, m) -> Fmt.pf ppf "probe est %d, %d matches" est m)
      ( = )
  in
  Alcotest.check probe "empty set probes" (`Probe (2, 0))
    (path "select * from big where k in (select k from big where v = 99)");
  Alcotest.check probe "one key probes" (`Probe (2, 1))
    (path "select * from big where k in (select k from big where k = 7)");
  Alcotest.check probe "8 keys of 40 rows probe" (`Probe (2, 8))
    (path "select * from big where k in (select k from big where k <= 8)");
  Alcotest.check probe "9 keys of 40 rows scan" (`Scan (Some 8))
    (path "select * from big where k in (select k from big where k <= 9)");
  Alcotest.check probe "30 keys of 40 rows scan" (`Scan (Some 8))
    (path "select * from big where k in (select k from big where v <> 0)")

(* The probe-value copy and the residual-filter copy of one sargable
   IN (select ...) share a memo slot, so the subquery runs once. *)
let test_probe_and_residual_share_a_slot () =
  let s = system "create table big (k int, v int)" in
  let ctx = Sqlf.Compile.make (System.database s) in
  ignore
    (Sqlf.Compile.compile_select ctx
       (Parser.parse_select_string
          "select * from big where k in (select k from big where v = 1)"));
  Alcotest.(check int) "one slot" 1 (Sqlf.Compile.slot_count ctx)

(* An unaliased transition table binds under its base table's name with
   the base table's columns, so [id] in [select id from new updated
   acct.bal] provably resolves inside the subquery and the rule
   action's victim selection probes the index. *)
let test_transition_subquery_probes () =
  let s =
    system
      "create table acct (id int, bal int, version int); create index acct_id on acct (id)"
  in
  run s
    "create rule ver_bump when updated acct.bal then update acct set version = \
     version + 1 where id in (select id from new updated acct.bal)";
  run s
    (Printf.sprintf "insert into acct values %s"
       (String.concat ", " (List.init 20 (fun i -> Printf.sprintf "(%d, 0, 0)" i))));
  let st = Engine.stats (System.engine s) in
  let scans0 = st.Engine.seq_scans and probes0 = st.Engine.index_probes in
  run s "update acct set bal = 5 where id = 3";
  Alcotest.(check int) "no scans" 0 (st.Engine.seq_scans - scans0);
  Alcotest.(check int) "statement and rule action both probe" 2
    (st.Engine.index_probes - probes0);
  Alcotest.(check int) "version bumped" 1
    (int_cell s "select version from acct where id = 3")

let suite =
  [
    Alcotest.test_case "parse explain" `Quick test_parse_explain;
    Alcotest.test_case "transition-table IN subquery probes" `Quick
      test_transition_subquery_probes;
    Alcotest.test_case "IN-subquery probe sized by its set" `Quick
      test_in_subquery_sized_choice;
    Alcotest.test_case "probe and residual share a memo slot" `Quick
      test_probe_and_residual_share_a_slot;
    Alcotest.test_case "explain matches the executor (compiled)" `Quick
      explain_matches_executor;
    Alcotest.test_case "explain names the index" `Quick
      test_explain_names_the_index;
    Alcotest.test_case "explain range probe" `Quick test_explain_range_probe;
    Alcotest.test_case "range probe names the ordered index" `Quick
      test_range_probe_names_ordered_index;
    Alcotest.test_case "range probe budget: the last probe and the first scan" `Quick
      test_range_probe_budget;
    Alcotest.test_case "two-sided range probe (compiled)" `Quick
      test_two_sided_range;
    Alcotest.test_case "hash join counters (compiled)" `Quick
      test_hash_join_counters;
    Alcotest.test_case "a scanned join source tests its own rows" `Quick
      test_scanned_outer_tests_its_rows;
    Alcotest.test_case "explain does not execute" `Quick
      test_explain_does_not_execute;
    Alcotest.test_case "explain leaves the statement cache" `Quick
      test_explain_leaves_stmt_cache;
    Alcotest.test_case "explain unknown table" `Quick test_explain_unknown_table;
    Alcotest.test_case "explain rule" `Quick test_explain_rule;
    Alcotest.test_case "trace timestamps" `Quick test_trace_timestamps;
    Alcotest.test_case "trace jsonl export" `Quick test_trace_jsonl;
    Alcotest.test_case "rule metrics report" `Quick test_rule_metrics;
    qtest prop_statement_round_trip;
  ]
