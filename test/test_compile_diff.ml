(* The compiled-vs-interpreted differential oracle.

   lib/sql/compile.ml lowers expressions, predicates and selects to
   positional closures once per statement; the tree-walking evaluator
   in lib/sql/eval.ml is retained as the oracle.  This suite asserts
   the two paths are OBSERVABLY IDENTICAL — same results, same error
   diagnostics (rendered through [Errors.to_string]), same
   three-valued-logic collapse — across a qcheck corpus of randomized
   statements, then again end-to-end through the rules engine.

   Layers:

   - Part A: statement-level differential.  Random SELECTs (joins,
     grouping, compounds, derived tables, subqueries, ORDER BY
     expressions) over a fixed database, evaluated by
     [Eval.eval_select] and [Compile.eval_select] under both caching
     modes.  The generator deliberately produces unknown columns,
     ambiguous references, type errors and misused aggregates, so
     error diagnostics are compared as often as results.

   - Part A2: rule-condition differential.  Random closed predicates
     evaluated by [Eval.eval_predicate] and
     [Compile.compile_predicate]/[run_predicate].

   - Part B: engine-level differential.  Two identical systems (the
     fault-injection harness's schema, rule set and external
     procedure) driven with the same random transaction workload, one
     with [Compile.enabled] on and one with it off, asserting equal
     per-transaction outcomes, select results, error strings, firing
     traces and final table contents.  Occasional CREATE/DROP INDEX
     between transactions exercises the DDL-generation invalidation
     of cached compiled rule forms.

   Non-vacuity is asserted at the end: the corpus must have produced
   both successful evaluations and errors, and Part B must have fired
   rules on both paths. *)

open Core
open Helpers
module Compile = Sqlf.Compile

(* ------------------------------------------------------------------ *)
(* Part A: statement-level differential                                *)

(* Non-vacuity counters. *)
let ok_results = ref 0
let error_results = ref 0

let fixture_db =
  let db =
    Database.create_table Database.empty
      (Schema.table "t"
         [
           Schema.column "a" Schema.T_int;
           Schema.column "b" Schema.T_int;
           Schema.column "s" Schema.T_string;
         ])
  in
  let db =
    Database.create_table db
      (Schema.table "u"
         [ Schema.column "a" Schema.T_int; Schema.column "c" Schema.T_int ])
  in
  let ins db tbl row = fst (Database.insert db tbl row) in
  let db = ins db "t" [| vi 1; vi 10; vs "x" |] in
  let db = ins db "t" [| vi 2; vi 20; vs "yy" |] in
  let db = ins db "t" [| vi 2; vnull; vs "x" |] in
  let db = ins db "t" [| vi 3; vi 5; vnull |] in
  let db = ins db "t" [| vnull; vi 7; vs "z" |] in
  let db = ins db "u" [| vi 1; vi 100 |] in
  let db = ins db "u" [| vi 2; vnull |] in
  let db = ins db "u" [| vi 4; vi 7 |] in
  db

(* Random expressions as SQL text (readable counterexamples; exactly
   what the front-end feeds both evaluators).  Terminals include
   unknown and ambiguous references on purpose: in a two-table FROM,
   bare [a] is ambiguous, [z] unknown, [t.q] a known table without
   the column.  Mixed-type arithmetic supplies the type errors. *)
let rec gen_expr depth st =
  let open QCheck.Gen in
  let term () =
    (* weighted: erroneous references ([z] unknown everywhere, [t.q]
       known table without the column) stay rare enough that a useful
       share of whole statements evaluates cleanly *)
    match int_bound 15 st with
    | 0 | 1 | 2 -> string_of_int (int_range (-3) 12 st)
    | 3 -> "null"
    | 4 -> "'x'"
    | 5 -> "'yy'"
    | 6 -> "a"
    | 7 | 8 -> "b"
    | 9 -> "c"
    | 10 -> "s"
    | 11 | 12 -> "t.a"
    | 13 -> "u.c"
    | 14 -> "t.b"
    | _ -> if int_bound 1 st = 0 then "z" else "t.q"
  in
  if depth = 0 then term ()
  else
    let sub () = gen_expr (depth - 1) st in
    match int_bound 16 st with
    | 0 | 1 | 2 -> term ()
    | 3 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 5 -> Printf.sprintf "(%s = %s)" (sub ()) (sub ())
    | 6 -> Printf.sprintf "(%s < %s)" (sub ()) (sub ())
    | 7 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 8 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | 9 -> Printf.sprintf "(not %s)" (sub ())
    | 10 -> Printf.sprintf "(%s is null)" (sub ())
    | 11 -> Printf.sprintf "(%s in (%s, %s))" (sub ()) (sub ()) (sub ())
    | 12 -> Printf.sprintf "(%s between %s and %s)" (sub ()) (sub ()) (sub ())
    | 13 ->
      Printf.sprintf "case when %s then %s else %s end" (sub ()) (sub ())
        (sub ())
    | 14 -> Printf.sprintf "(select max(a) from t where b = %s)" (sub ())
    | 15 -> Printf.sprintf "exists (select * from u where u.c = %s)" (sub ())
    | _ -> Printf.sprintf "(%s in (select a from u where c = %s))" (sub ()) (sub ())

(* Valid-by-construction numeric expressions and predicates over the
   given column names: the unrestricted generator's statements usually
   contain at least one erroneous reference, so these arms keep the
   success path of the differential densely covered too.  Numeric-only
   terminals and operators (no division) cannot raise; NULLs
   propagate. *)
let rec gen_safe_num cols depth st =
  let open QCheck.Gen in
  let term () =
    match int_bound 4 st with
    | 0 | 1 -> string_of_int (int_range (-3) 12 st)
    | 2 -> "null"
    | _ -> List.nth cols (int_bound (List.length cols - 1) st)
  in
  if depth = 0 then term ()
  else
    let sub () = gen_safe_num cols (depth - 1) st in
    match int_bound 5 st with
    | 0 | 1 -> term ()
    | 2 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | _ ->
      Printf.sprintf "case when %s then %s else %s end"
        (gen_safe_pred cols (depth - 1) st)
        (sub ()) (sub ())

and gen_safe_pred cols depth st =
  let open QCheck.Gen in
  let num () = gen_safe_num cols depth st in
  let atom () =
    match int_bound 4 st with
    | 0 -> Printf.sprintf "(%s = %s)" (num ()) (num ())
    | 1 -> Printf.sprintf "(%s < %s)" (num ()) (num ())
    | 2 -> Printf.sprintf "(%s is null)" (num ())
    | 3 -> Printf.sprintf "(%s in (%s, %s))" (num ()) (num ()) (num ())
    | _ -> Printf.sprintf "(%s between %s and %s)" (num ()) (num ()) (num ())
  in
  if depth = 0 then atom ()
  else
    let sub () = gen_safe_pred cols (depth - 1) st in
    match int_bound 4 st with
    | 0 | 1 -> atom ()
    | 2 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | _ -> Printf.sprintf "(not %s)" (sub ())

(* Random SELECT statements covering every compiled shape: plain and
   joined FROMs, grouping (incl. aggregate-only selects over the empty
   grouping), HAVING, DISTINCT/LIMIT, compounds, derived tables,
   subqueries and ORDER BY expressions.  Aggregates in a non-grouped
   WHERE (shape 9) must produce the same misuse error on both paths.
   Shapes 11+ are valid by construction. *)
let gen_select st =
  let open QCheck.Gen in
  let e ?(d = 3) () = gen_expr d st in
  let t_cols = [ "a"; "b"; "t.a"; "t.b" ] in
  let join_cols = [ "t.a"; "t.b"; "u.a"; "u.c"; "b"; "c" ] in
  match int_bound 15 st with
  | 0 -> Printf.sprintf "select a, b, s from t where %s" (e ())
  | 1 -> Printf.sprintf "select t.a, u.c, %s from t, u where %s" (e ()) (e ())
  | 2 ->
    Printf.sprintf "select distinct b from t where %s order by b limit %d"
      (e ()) (int_bound 4 st)
  | 3 ->
    Printf.sprintf
      "select a, count(*) from t where %s group by a having count(*) >= %d \
       order by a"
      (e ()) (int_bound 2 st)
  | 4 -> Printf.sprintf "select max(b), min(a), count(s) from t where %s" (e ())
  | 5 ->
    Printf.sprintf "select a from t where %s union select a from u where %s \
                    order by a"
      (e ()) (e ())
  | 6 ->
    Printf.sprintf
      "select x.a, x.b from (select a, b from t where %s) x where x.a > %d"
      (e ()) (int_bound 4 st)
  | 7 -> Printf.sprintf "select a from t where a in (select a from u where %s)" (e ())
  | 8 -> Printf.sprintf "select s from t order by %s, s" (e ~d:2 ())
  | 9 -> Printf.sprintf "select a from t where %s > count(*)" (e ~d:1 ())
  | 10 -> Printf.sprintf "select * from t, u where %s" (e ())
  | 11 ->
    Printf.sprintf "select a, b, %s from t where %s order by a, b"
      (gen_safe_num t_cols 2 st) (gen_safe_pred t_cols 2 st)
  | 12 ->
    Printf.sprintf "select t.a, u.c from t, u where %s order by t.a, u.c"
      (gen_safe_pred join_cols 2 st)
  | 13 ->
    Printf.sprintf
      "select a, count(*), max(%s) from t where %s group by a having \
       count(*) >= %d order by a"
      (gen_safe_num t_cols 1 st) (gen_safe_pred t_cols 1 st) (int_bound 2 st)
  | 14 ->
    Printf.sprintf "select a from t where b in (select c from u where %s) \
                    order by a"
      (gen_safe_pred [ "a"; "c"; "u.a"; "u.c" ] 1 st)
  | _ ->
    Printf.sprintf "select distinct %s from t where %s order by 1 limit 3"
      (gen_safe_num t_cols 2 st) (gen_safe_pred t_cols 2 st)

(* Observable behaviour of one evaluation: the relation, or the
   rendered diagnostic. *)
let observe f =
  match f () with
  | (rel : Eval.relation) -> Ok (Array.to_list rel.Eval.cols, rel.Eval.rows)
  | exception Errors.Error e -> Error (Errors.to_string e)

let check_observed sql a b =
  (match a with Ok _ -> incr ok_results | Error _ -> incr error_results);
  match a, b with
  | Error ea, Error eb ->
    if ea <> eb then
      QCheck.Test.fail_reportf "%s@.interpreted error: %s@.compiled error: %s"
        sql ea eb
  | Ok (ca, ra), Ok (cb, rb) ->
    if ca <> cb then
      QCheck.Test.fail_reportf "%s@.column mismatch: [%s] vs [%s]" sql
        (String.concat "; " ca) (String.concat "; " cb);
    if not (List.length ra = List.length rb && List.for_all2 Row.equal ra rb)
    then
      QCheck.Test.fail_reportf "%s@.row mismatch:@.%s@.vs@.%s" sql
        (String.concat "\n" (List.map Row.to_string ra))
        (String.concat "\n" (List.map Row.to_string rb))
  | Ok _, Error eb ->
    QCheck.Test.fail_reportf "%s@.interpreter succeeded, compiled errored: %s"
      sql eb
  | Error ea, Ok _ ->
    QCheck.Test.fail_reportf "%s@.interpreter errored (%s), compiled succeeded"
      sql ea

let select_differential =
  QCheck.Test.make ~count:600 ~name:"compiled select = interpreted select"
    (QCheck.make ~print:Fun.id gen_select)
    (fun sql ->
      let s = Parser.parse_select_string sql in
      let resolve = Eval.base_resolver fixture_db in
      (* uncached pairing *)
      check_observed sql
        (observe (fun () -> Eval.eval_select resolve s))
        (observe (fun () -> Compile.eval_select resolve fixture_db s));
      (* cached pairing: both sides memoize uncorrelated subqueries *)
      check_observed sql
        (observe (fun () ->
             Eval.eval_select ~cache:(Eval.make_cache ()) resolve s))
        (observe (fun () ->
             Compile.eval_select ~use_cache:true resolve fixture_db s));
      true)

(* ------------------------------------------------------------------ *)
(* Part A1b: parameterized-statement differential.  The compiled path
   executes a prepared select by reading the EXECUTE frame through
   [Param] closures; the interpreter oracle substitutes the bound
   constants into the tree and evaluates the resulting plain select.
   The two must agree on results AND diagnostics — including type
   errors a badly-typed binding provokes. *)

let param_templates =
  [|
    (1, "select a, b from t where a = ?");
    (2, "select a from t where a > ? and b < ? order by a");
    (1, "select s from t where s = ? order by 1");
    (2, "select a from t where a in (?, ?) order by a");
    (1, "select count(*) from t where b = ?");
    (2, "select t.a, u.c from t, u where t.a = u.a and u.c > ? and t.b <> ?");
    (1, "select a from t where b = ? group by a having count(*) >= 1");
    (1, "select a from t where exists (select * from u where u.a = t.a and \
         u.c = ?)");
    (2, "select a, ? from t where b between ? and 30 order by a");
    (1, "select s || ? from t order by 1");
  |]

let gen_param_value st =
  let open QCheck.Gen in
  match int_bound 5 st with
  | 0 -> Value.Null
  | 1 | 2 -> Value.Int (int_bound 20 st)
  | 3 -> Value.Float (float_of_int (int_bound 30 st) /. 2.0)
  | _ -> Value.Str (oneofl [ "x"; "yy"; "z" ] st)

let gen_param_case st =
  let open QCheck.Gen in
  let nparams, template =
    param_templates.(int_bound (Array.length param_templates - 1) st)
  in
  let args = Array.init nparams (fun _ -> gen_param_value st) in
  (template, args)

let param_differential =
  QCheck.Test.make ~count:400
    ~name:"compiled EXECUTE (frame binding) = interpreted (substitution)"
    (QCheck.make gen_param_case ~print:(fun (tpl, args) ->
         Printf.sprintf "%s / (%s)" tpl
           (String.concat ", "
              (List.map Value.to_string (Array.to_list args)))))
    (fun (template, args) ->
      let sql = Printf.sprintf "%s / (%s)" template
          (String.concat ", "
             (List.map Value.to_string (Array.to_list args)))
      in
      let s =
        match Parser.parse_statement_string ("prepare p as " ^ template) with
        | Ast.Stmt_prepare (_, Ast.Select_op s) -> s
        | _ -> QCheck.Test.fail_reportf "template is not a select: %s" template
      in
      let resolve = Eval.base_resolver fixture_db in
      let substituted =
        match Ast.subst_params_op args (Ast.Select_op s) with
        | Ast.Select_op s' -> s'
        | _ -> assert false
      in
      check_observed sql
        (observe (fun () -> Eval.eval_select resolve substituted))
        (observe (fun () ->
             Compile.eval_select ~params:args resolve fixture_db s));
      true)

(* ------------------------------------------------------------------ *)
(* Part A2: rule-condition differential                                *)

(* Closed predicates, the shape of rule conditions: no outer row, all
   data reached through subqueries. *)
let rec gen_predicate depth st =
  let open QCheck.Gen in
  let atom () =
    match int_bound 5 st with
    | 0 ->
      Printf.sprintf "exists (select * from t where %s)" (gen_expr 2 st)
    | 1 ->
      Printf.sprintf "(select count(*) from u where %s) > %d" (gen_expr 1 st)
        (int_bound 3 st)
    | 2 -> Printf.sprintf "(select max(b) from t) > %d" (int_bound 20 st)
    | 3 -> Printf.sprintf "(%d in (select a from u))" (int_bound 5 st)
    | 4 -> "(select min(c) from u) is null"
    | _ -> Printf.sprintf "exists (select a from t group by a having count(*) > %d)"
             (int_bound 2 st)
  in
  if depth = 0 then atom ()
  else
    let sub () = gen_predicate (depth - 1) st in
    match int_bound 4 st with
    | 0 | 1 -> atom ()
    | 2 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | _ -> Printf.sprintf "(not %s)" (sub ())

let observe_bool f =
  match f () with
  | (b : bool) -> Ok b
  | exception Errors.Error e -> Error (Errors.to_string e)

let predicate_differential =
  QCheck.Test.make ~count:300 ~name:"compiled condition = interpreted condition"
    (QCheck.make ~print:Fun.id (gen_predicate 2))
    (fun sql ->
      let e = Parser.parse_expr_string sql in
      let resolve = Eval.base_resolver fixture_db in
      let interp =
        observe_bool (fun () ->
            Eval.eval_predicate ~cache:(Eval.make_cache ()) resolve [] e)
      in
      let compiled =
        observe_bool (fun () ->
            Compile.run_predicate ~use_cache:true resolve
              (Compile.compile_predicate fixture_db e))
      in
      (match interp, compiled with
      | Ok a, Ok b ->
        if a <> b then
          QCheck.Test.fail_reportf "%s@.interpreted %b, compiled %b" sql a b
      | Error a, Error b ->
        if a <> b then
          QCheck.Test.fail_reportf "%s@.interpreted error: %s@.compiled error: %s"
            sql a b
      | Ok _, Error e ->
        QCheck.Test.fail_reportf "%s@.interpreter succeeded, compiled errored: %s"
          sql e
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "%s@.interpreter errored (%s), compiled \
                                  succeeded" sql e);
      true)

(* ------------------------------------------------------------------ *)
(* Part A3: hashed IN / NOT IN                                          *)

(* A memoized IN (select ...) set hashes its elements when they share
   one constructor.  Its verdicts must be exactly the linear scan's:
   first against [Eval.in_semantics] over random sets, then on a
   corpus run by both evaluators and by an oracle that replaces each
   uncorrelated subquery with the literal IN list of its values (IN
   lists are never hashed). *)

let gen_in_value st =
  let open QCheck.Gen in
  match int_bound 9 st with
  | 0 -> Value.Null
  | 1 -> Value.Float (float_of_int (int_bound 6 st))
  | 2 -> Value.Str (oneofl [ "a"; "b"; "c" ] st)
  | 3 -> Value.Bool (bool st)
  | 4 -> Value.Int 9007199254740993
  | 5 -> Value.Float 9007199254740992.0
  | _ -> Value.Int (int_bound 6 st)

(* Sets mostly of one constructor (so the hashed path is taken), with
   NULLs and the occasional stray constructor mixed in. *)
let gen_in_set st =
  let open QCheck.Gen in
  let n = int_bound 20 st in
  let base = gen_in_value st in
  List.init n (fun _ ->
      match int_bound 9 st with
      | 0 -> Value.Null
      | 1 -> gen_in_value st
      | _ -> (
        match base with
        | Value.Int _ -> Value.Int (int_bound 30 st)
        | Value.Float _ -> Value.Float (float_of_int (int_bound 30 st))
        | Value.Str _ -> Value.Str (string_of_int (int_bound 30 st))
        | v -> v))

let observe_value f =
  match f () with
  | (v : Value.t) -> Ok v
  | exception Errors.Error e -> Error (Errors.to_string e)

let hashed_in_matches_scan =
  QCheck.Test.make ~count:2000 ~name:"hashed IN membership = linear IN scan"
    (QCheck.make
       ~print:(fun (v, set) ->
         Printf.sprintf "%s in (%s)" (Value.to_string v)
           (String.concat ", " (List.map Value.to_string set)))
       QCheck.Gen.(pair gen_in_value gen_in_set))
    (fun (v, set) ->
      let rel =
        { Eval.rel_name = ""; cols = [| "x" |]; rows = List.map (fun v -> [| v |]) set }
      in
      let memo = Eval.make_memo rel in
      let hashed = observe_value (fun () -> Eval.in_set_mem (Eval.memo_in_set memo) v) in
      let scanned = observe_value (fun () -> Eval.in_semantics v set) in
      if hashed <> scanned then
        QCheck.Test.fail_reportf "hashed %s, scanned %s"
          (match hashed with Ok v -> Value.to_string v | Error e -> e)
          (match scanned with Ok v -> Value.to_string v | Error e -> e);
      true)

(* h: 14-element columns (past the hashing threshold) holding a NULL
   and 2^53+1; p: probe values including a NULL and 2^53. *)
let in_fixture_db =
  let db =
    Database.create_table Database.empty
      (Schema.table "h"
         [
           Schema.column "i" Schema.T_int;
           Schema.column "f" Schema.T_float;
           Schema.column "s" Schema.T_string;
         ])
  in
  let db =
    Database.create_table db
      (Schema.table "p"
         [
           Schema.column "v" Schema.T_int;
           Schema.column "w" Schema.T_float;
           Schema.column "x" Schema.T_string;
         ])
  in
  let ins db tbl row = fst (Database.insert db tbl row) in
  let db =
    List.fold_left
      (fun db i ->
        ins db "h" [| vi i; vf (float_of_int i /. 2.); vs ("s" ^ string_of_int i) |])
      db (List.init 12 (fun i -> i + 1))
  in
  let db = ins db "h" [| vnull; vnull; vnull |] in
  let db = ins db "h" [| vi 9007199254740993; vf 9007199254740992.0; vs "big" |] in
  List.fold_left
    (fun db row -> ins db "p" row)
    db
    [
      [| vi 1; vf 1.0; vs "s1" |];
      [| vi 5; vf 2.5; vs "zz" |];
      [| vnull; vnull; vnull |];
      [| vi 9007199254740992; vf 9007199254740992.0; vs "s12" |];
      [| vi 40; vf 0.5; vs "s3" |];
    ]

let in_corpus =
  [
    (* a NULL element: non-members are UNKNOWN, so NOT IN selects none *)
    "select v from p where v in (select i from h)";
    "select v from p where v not in (select i from h)";
    (* a NULL probe value (p's third row) against a set without NULL *)
    "select v from p where v in (select i from h where i is not null)";
    "select v from p where v not in (select i from h where i is not null)";
    (* the empty set *)
    "select v from p where v in (select i from h where i > 1000)";
    "select v from p where v not in (select i from h where i > 1000)";
    (* Int vs Float, including 2^53+1 against 2^53 *)
    "select w from p where w in (select i from h)";
    "select v from p where v in (select f from h)";
    "select v from p where v not in (select f from h where f is not null)";
    "select v from p where v in (select i from h union all select f from h)";
    (* string sets, and string-vs-int type errors *)
    "select x from p where x in (select s from h)";
    "select x from p where x in (select i from h)";
    "select v from p where v not in (select s from h)";
    (* correlated: re-evaluated per row, never memoized *)
    "select v from p where v in (select i from h where h.i >= p.v)";
    "select v from p where v not in (select i from h where h.f > p.w)";
  ]

(* The oracle form of a select: every uncorrelated IN (select ...) in
   its WHERE clause replaced by the literal list of its values. *)
let with_literal_lists db (s : Ast.select) =
  let resolve = Eval.base_resolver db in
  let literals sub =
    List.map
      (fun row -> Ast.Lit row.(0))
      (Eval.eval_select resolve sub).Eval.rows
  in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.In_select (a, sub) -> Ast.In_list (a, literals sub)
    | Ast.Not_in_select (a, sub) -> Ast.Not_in_list (a, literals sub)
    | Ast.And (a, b) -> Ast.And (expr a, expr b)
    | Ast.Or (a, b) -> Ast.Or (expr a, expr b)
    | Ast.Not a -> Ast.Not (expr a)
    | e -> e
  in
  { s with Ast.where = Option.map expr s.Ast.where }

(* the corpus's correlated cases reference the outer row as [p.] *)
let correlated sql =
  let rec from i =
    i + 1 < String.length sql && ((sql.[i] = 'p' && sql.[i + 1] = '.') || from (i + 1))
  in
  from 0

let test_hashed_in_corpus () =
  let resolve = Eval.base_resolver in_fixture_db in
  List.iter
    (fun sql ->
      let s = Parser.parse_select_string sql in
      let interp_cached =
        observe (fun () -> Eval.eval_select ~cache:(Eval.make_cache ()) resolve s)
      in
      check_observed sql interp_cached
        (observe (fun () ->
             Compile.eval_select ~use_cache:true resolve in_fixture_db s));
      check_observed sql
        (observe (fun () -> Eval.eval_select resolve s))
        (observe (fun () -> Compile.eval_select resolve in_fixture_db s));
      if not (correlated sql) then
        check_observed (sql ^ " (literal-list oracle)")
          (observe (fun () ->
               Eval.eval_select resolve (with_literal_lists in_fixture_db s)))
          interp_cached)
    in_corpus

(* ------------------------------------------------------------------ *)
(* Part B: engine-level differential                                   *)

(* The fault-injection harness's workload: a schema, a terminating
   rule set covering every trigger kind and action shape, and an
   external procedure that queries through the engine. *)

let schema_sql =
  "create table t (a int, b int);\n\
   create table u (a int, c int);\n\
   create table log (n int);\n\
   create table seen (x int, y int)"

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
  ]

let note_u_proc ctx =
  let rel =
    ctx.Procedures.query (Parser.parse_select_string "select count(*) from u")
  in
  let n = match rel.Eval.rows with [ [| Value.Int n |] ] -> n | _ -> 0 in
  List.map
    (function
      | Ast.Stmt_op op -> op
      | _ -> Alcotest.fail "expected DML statements")
    (Parser.parse_script (Printf.sprintf "insert into log values (%d)" n))

let gen_small st = QCheck.Gen.int_bound 12 st

let gen_term st =
  let open QCheck.Gen in
  if int_bound 9 st = 0 then "null" else string_of_int (gen_small st)

(* A Section 5.1 rule over one table, with or without a column, whose
   action logs the tuples read: with [track_selects] on, each select's
   exact read set lands in [seen], so compiled and interpreted read sets
   are compared through the final state. *)
let gen_selected_rule st =
  let open QCheck.Gen in
  let table, cols = if bool st then ("t", [| "a"; "b" |]) else ("u", [| "a"; "c" |]) in
  let tt =
    match int_bound 2 st with
    | 0 -> table
    | k -> Printf.sprintf "%s.%s" table cols.(k - 1)
  in
  Printf.sprintf
    "create rule sel when selected %s then insert into seen (select %s, %s from \
     selected %s)"
    tt cols.(0) cols.(1) tt

(* One operation: inserts, deletes, updates and selects over both
   tables, occasionally tripping the rollback rule r5, and rarely a
   genuinely erroneous statement so the two paths must agree on
   diagnostics mid-workload too. *)
let gen_op st =
  let open QCheck.Gen in
  match int_bound 14 st with
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
  | 10 ->
    Printf.sprintf "select t.a, u.c from t, u where t.a = u.a and u.c > %d"
      (gen_small st)
  | 11 ->
    Printf.sprintf "update t set b = %d where a = %d"
      (if int_bound 3 st = 0 then 200 else gen_small st)
      (gen_small st)
  | 12 ->
    Printf.sprintf "insert into u values (99, %d); insert into u values \
                    (99, %d)" (gen_small st) (gen_small st)
  | 13 -> Printf.sprintf "select distinct c from u where a > %d limit 1" (gen_small st)
  | _ ->
    Printf.sprintf "insert into t values (%d, %d, %d)" (gen_small st)
      (gen_small st) (gen_small st)

(* A workload: transaction blocks interleaved with occasional DDL that
   bumps the engine's generation counter and must invalidate cached
   compiled rule forms. *)
let gen_step st =
  let open QCheck.Gen in
  match int_bound 15 st with
  | 0 -> `Ddl "create index ix_diff_ta on t (a)"
  | 1 -> `Ddl "drop index ix_diff_ta"
  | _ ->
    let n = 1 + int_bound 3 st in
    `Block (String.concat "; " (List.init n (fun _ -> gen_op st)))

let gen_workload st =
  let rule = gen_selected_rule st in
  (rule, QCheck.Gen.list_size (QCheck.Gen.int_range 8 20) gen_step st)

let print_workload (rule, steps) =
  String.concat "\n"
    (("[rule] " ^ rule)
    :: List.map (function `Ddl s -> "[ddl] " ^ s | `Block s -> s) steps)

let make_system ~config rule () =
  let s = system ~config schema_sql in
  System.register_procedure s "note_u" note_u_proc;
  List.iter (run s) (rules_sql @ [ rule ]);
  Engine.set_tracing (System.engine s) true;
  s

let run_block s sql =
  match System.exec_block s sql with
  | outcome, rels ->
    Ok (outcome, List.map (fun r -> (Array.to_list r.Eval.cols, r.Eval.rows)) rels)
  | exception Errors.Error e -> Error (Errors.to_string e)

let run_ddl s sql =
  match run s sql with
  | () -> Ok ()
  | exception Errors.Error e -> Error (Errors.to_string e)

let firings_fired = ref 0
let seen_logged = ref 0

let check_same label a b =
  match a, b with
  | Error ea, Error eb ->
    if ea <> eb then
      QCheck.Test.fail_reportf "%s: errors differ:@.%s@.vs@.%s" label ea eb
  | Ok (oa, ra), Ok (ob, rb) ->
    if oa <> ob then QCheck.Test.fail_reportf "%s: outcomes differ" label;
    if List.length ra <> List.length rb then
      QCheck.Test.fail_reportf "%s: result counts differ" label;
    List.iter2
      (fun (ca, rsa) (cb, rsb) ->
        if ca <> cb then QCheck.Test.fail_reportf "%s: columns differ" label;
        if not
             (List.length rsa = List.length rsb
             && List.for_all2 Row.equal rsa rsb)
        then QCheck.Test.fail_reportf "%s: rows differ" label)
      ra rb
  | Ok _, Error e ->
    QCheck.Test.fail_reportf "%s: compiled ok, interpreted errored: %s" label e
  | Error e, Ok _ ->
    QCheck.Test.fail_reportf "%s: compiled errored (%s), interpreted ok" label e

let harness_tables = [ "t"; "u"; "log"; "seen" ]

(* Rule firings as observable behaviour: name + condition verdict per
   considered rule, in order. *)
let firing_trace s =
  List.filter_map
    (function
      | Engine.Ev_considered { rule; condition_held } ->
        Some (rule, condition_held)
      | Engine.Ev_fired { rule; _ } ->
        incr firings_fired;
        Some (rule, true)
      | _ -> None)
    (Engine.trace (System.engine s))

let engine_differential_once ~config (rule, steps) =
  let s_compiled = with_compile true (fun () -> make_system ~config rule ()) in
  let s_interp = with_compile false (fun () -> make_system ~config rule ()) in
  List.iter
    (fun step ->
      match step with
      | `Ddl sql ->
        let rc = with_compile true (fun () -> run_ddl s_compiled sql) in
        let ri = with_compile false (fun () -> run_ddl s_interp sql) in
        (match rc, ri with
        | Ok (), Ok () | Error _, Error _ -> ()
        | _ -> QCheck.Test.fail_reportf "ddl outcome differs: %s" sql)
      | `Block sql ->
        let rc = with_compile true (fun () -> run_block s_compiled sql) in
        let ri = with_compile false (fun () -> run_block s_interp sql) in
        check_same ("block: " ^ sql) rc ri;
        let tc = firing_trace s_compiled and ti = firing_trace s_interp in
        if tc <> ti then
          QCheck.Test.fail_reportf "firing traces differ after: %s" sql)
    steps;
  (* final states, read through the interpreter on both systems so the
     comparison itself is independent of the compiled path *)
  with_compile false (fun () ->
      List.iter
        (fun tbl ->
          let q = Printf.sprintf "select * from %s" tbl in
          let rc = rows s_compiled q and ri = rows s_interp q in
          if not
               (List.length rc = List.length ri
               && List.for_all2 Row.equal rc ri)
          then QCheck.Test.fail_reportf "final state of %s differs" tbl)
        harness_tables;
      seen_logged := !seen_logged + List.length (rows s_compiled "select * from seen"))

let engine_differential =
  QCheck.Test.make ~count:40
    ~name:"engine with compiled evaluators = engine with interpreter"
    (QCheck.make ~print:print_workload gen_workload)
    (fun workload ->
      engine_differential_once ~config:Engine.default_config workload;
      engine_differential_once
        ~config:
          { Engine.default_config with optimize = true; track_selects = true }
        workload;
      true)

(* ------------------------------------------------------------------ *)
(* Non-vacuity: the corpus must actually have exercised both success   *)
(* and error paths, and the engine differential must have fired rules. *)

let test_corpus_not_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "successful evaluations seen (%d)" !ok_results)
    true (!ok_results > 100);
  Alcotest.(check bool)
    (Printf.sprintf "error diagnostics compared (%d)" !error_results)
    true (!error_results > 100);
  Alcotest.(check bool)
    (Printf.sprintf "rules fired during engine differential (%d)"
       !firings_fired)
    true
    (!firings_fired > 0);
  Alcotest.(check bool)
    (Printf.sprintf "read sets logged by the selected rule (%d)" !seen_logged)
    true (!seen_logged > 0)

let suite =
  [
    qtest select_differential;
    qtest param_differential;
    qtest predicate_differential;
    qtest hashed_in_matches_scan;
    Alcotest.test_case "hashed IN corpus" `Quick test_hashed_in_corpus;
    qtest engine_differential;
    Alcotest.test_case "differential corpus is not vacuous" `Quick
      test_corpus_not_vacuous;
  ]
