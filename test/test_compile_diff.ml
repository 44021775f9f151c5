(* The differential oracle of the compiled evaluator.

   lib/sql/compile.ml lowers expressions, predicates and selects to
   positional closures once per statement and plans their access
   paths; test/reference_eval.ml evaluates the same SQL by nested loops
   with no planner.  This suite asserts the two agree — same results,
   same error kinds (the [Errors] constructor; error text keeps its
   goldens elsewhere) — across a qcheck corpus of randomized
   statements, then end-to-end through the rules engine.

   Where the engine legitimately evaluates fewer rows than the nested
   loop — an index probe or a hash join on a [col = col] link skips
   rows WHERE would reject — a row that would raise may be skipped, so
   only there an error of the reference may be an error of another
   kind, or a result, on the engine's side.  A result of the reference
   must always be the engine's result.

   Layers:

   - Part A: statement-level differential.  Random SELECTs (joins,
     grouping, compounds, derived tables, subqueries, ORDER BY
     expressions) over a fixed database, evaluated by
     [Reference_eval.select] and [Compile.eval_select] with and
     without subquery memos, and over an indexed copy.  The generator deliberately produces unknown columns,
     ambiguous references, type errors and misused aggregates, so
     error kinds are compared as often as results.

   - Part A2: rule-condition differential.  Random closed predicates
     evaluated by [Reference_eval.predicate] and
     [Compile.compile_predicate]/[run_predicate].

   - Part B: engine-level differential.  Two identical systems (the
     fault-injection harness's schema, rule set and external
     procedure) driven with the same random transaction workload, one
     as configured and one index-free, asserting
     equal per-transaction outcomes, select results, error strings,
     firing traces and final table contents.  Every top-level select of
     the index-free twin's stream is also evaluated by the reference
     on the state it ran in.  Occasional CREATE/DROP INDEX between
     transactions exercises the DDL-generation invalidation of cached
     compiled rule forms.

   - Part C: shape-memo differential.  Two identical systems driven
     with the same scripts — generated selects and data manipulation,
     each repeated with its literals varied, and index DDL — one
     through [System.exec] (the shape memo and cached parameterized
     plans), one parsing every script and running each statement
     through [System.exec_statement]; results, error diagnostics and
     engine counters, the statement cache's included, must agree.

   Non-vacuity is asserted at the end: the corpus must have produced
   both successful evaluations and errors, Part B must have fired
   rules and checked selects against the reference, and Part C must
   have served plans through the memo. *)

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
  (* rows joining across column positions: u.c = t.a, u.a = t.b *)
  let db = ins db "u" [| vi 5; vi 2 |] in
  let db = ins db "u" [| vi 10; vi 3 |] in
  db

(* Random expressions as SQL text (readable counterexamples; exactly
   what the front-end feeds both the engine and the reference).  Terminals include
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

(* Conjunctions of the sargable patterns the access-path planner looks
   for — comparisons with the column on either side, BETWEEN, IN lists,
   IN (select ...), LIKE prefixes, and two-sided ranges — and NOT IN
   lists, over the given columns, so that over the indexed fixture
   (hash on t.a and u.a, ordered on t.b) probes are planned and
   misplanned probes show. *)
let gen_sargable cols st =
  let open QCheck.Gen in
  let col () = List.nth cols (int_bound (List.length cols - 1) st) in
  let lit () = string_of_int (int_range (-1) 22 st) in
  let op () = oneofl [ "="; "<"; "<="; ">"; ">="; "<>" ] st in
  let atom () =
    match int_bound 6 st with
    | 0 -> Printf.sprintf "%s %s %s" (col ()) (op ()) (lit ())
    | 1 -> Printf.sprintf "%s %s %s" (lit ()) (op ()) (col ())
    | 2 -> Printf.sprintf "%s between %s and %s" (col ()) (lit ()) (lit ())
    | 3 ->
      Printf.sprintf "%s %s (%s, %s)" (col ()) (oneofl [ "in"; "not in" ] st) (lit ()) (lit ())
    | 4 -> Printf.sprintf "%s in (select a from u where c > %d)" (col ()) (int_range 5 120 st)
    | 5 -> Printf.sprintf "s like '%s%%'" (oneofl [ "x"; "y"; "z"; "" ] st)
    | _ ->
      (* a lower and an upper bound, on one column or on two *)
      let c = col () in
      Printf.sprintf "%s > %s and %s < %s" c (lit ()) (if bool st then c else col ()) (lit ())
  in
  String.concat " and " (List.init (1 + int_bound 2 st) (fun _ -> atom ()))

(* Random SELECT statements covering every compiled shape: plain and
   joined FROMs, grouping (incl. aggregate-only selects over the empty
   grouping), HAVING, DISTINCT/LIMIT, compounds, derived tables,
   subqueries and ORDER BY expressions.  Aggregates in a non-grouped
   WHERE (shape 9) must produce the same misuse error on both sides.
   Shapes 11-16, 18, 19, 21 and 22 are valid by construction. *)
let gen_select st =
  let open QCheck.Gen in
  let e ?(d = 3) () = gen_expr d st in
  let t_cols = [ "a"; "b"; "t.a"; "t.b" ] in
  let join_cols = [ "t.a"; "t.b"; "u.a"; "u.c"; "b"; "c" ] in
  match int_bound 22 st with
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
  | 15 ->
    Printf.sprintf "select distinct %s from t where %s order by 1 limit 3"
      (gen_safe_num t_cols 2 st) (gen_safe_pred t_cols 2 st)
  (* linked joins: over the indexed fixture the inner table is read by
     index nested-loop or hash join, as the number of partial frames
     decides; a derived outer source of 0-2 rows falls on both sides of
     the cost threshold *)
  | 16 ->
    Printf.sprintf "select u.a, t.b, u.c from u, t where u.a = t.a and %s"
      (gen_safe_pred join_cols 1 st)
  | 17 ->
    Printf.sprintf
      "select v.a, t.b from (select a from u where c > %d) v, t where v.a = \
       t.a and %s"
      (int_range 5 120 st) (e ~d:2 ())
  | 18 ->
    Printf.sprintf
      "select t.a, count(*), sum(u.c), min(t.b) from u, t where t.a = u.a \
       group by t.a having count(*) >= %d order by a"
      (int_bound 2 st)
  | 19 ->
    (* the third source's join method waits for the first two's join *)
    Printf.sprintf
      "select x.a, y.c, t.b from (select a from u where c > %d) x, u y, t \
       where x.a = y.a and y.a = t.a"
      (int_range 5 120 st)
  | 20 ->
    Printf.sprintf "select a, s from t where %s limit %d" (e ~d:2 ()) (int_bound 3 st)
  | 21 ->
    Printf.sprintf "select a, b from t where %s limit %d"
      (gen_safe_pred t_cols 1 st) (int_bound 3 st)
  | _ ->
    Printf.sprintf
      "select a from t where exists (select * from u where u.a = t.a and %s)"
      (gen_safe_pred [ "u.c"; "t.b" ] 1 st)

(* Selects aimed at the access-path planner and the joins: probes of
   one table, probes beside another source, links on columns at
   different positions, names a subquery shadows, and aggregates over
   the rows a probe reads. *)
let gen_planner_select st =
  let open QCheck.Gen in
  let t_cols = [ "a"; "b"; "t.a"; "t.b" ] in
  match int_bound 5 st with
  | 5 ->
    Printf.sprintf
      "select %scount(*), sum(b), avg(b), min(b), max(a), count(s) from t where %s%s"
      (if bool st then "s, " else "")
      (gen_sargable t_cols st)
      (if bool st then "" else " group by s order by s")
  | 0 -> Printf.sprintf "select a, b, s from t where %s" (gen_sargable t_cols st)
  | 1 ->
    Printf.sprintf "select t.a, t.b, u.a, u.c from t, u where %s"
      (gen_sargable [ "t.a"; "t.b"; "u.a"; "u.c" ] st)
  | 2 ->
    Printf.sprintf "select t.a, t.b, u.a, u.c from %s where %s and %s"
      (oneofl [ "t, u"; "u, t" ] st)
      (oneofl [ "t.a = u.a"; "u.a = t.a"; "t.b = u.c"; "t.a = u.c"; "u.c = t.b"; "t.b = u.a" ] st)
      (gen_sargable [ "t.a"; "t.b"; "u.c" ] st)
  | 3 ->
    Printf.sprintf
      "select x.a, y.c, t.b from (select a from u where c > %d) x, u y, t where x.a = y.a \
       and %s"
      (int_range 5 120 st)
      (oneofl [ "y.c = t.b"; "y.a = t.a"; "t.b = y.c"; "y.a = t.b" ] st)
  | _ ->
    (* [a] inside the subquery is t's, shadowing u's; [c] is u's *)
    Printf.sprintf "select a, c from u where exists (select * from t where %s = %s)"
      (oneofl [ "a"; "t.a"; "b" ] st)
      (oneofl [ "a"; "c"; "b"; "2" ] st)

(* The kind of an error: its constructor. *)
let error_kind e =
  match e with
  | Errors.Parse_error _ -> "Parse_error"
  | Errors.Unknown_table _ -> "Unknown_table"
  | Errors.Duplicate_table _ -> "Duplicate_table"
  | Errors.Unknown_column _ -> "Unknown_column"
  | Errors.Ambiguous_column _ -> "Ambiguous_column"
  | Errors.Type_error _ -> "Type_error"
  | Errors.Arity_error _ -> "Arity_error"
  | Errors.Not_null_violation _ -> "Not_null_violation"
  | Errors.Unknown_rule _ -> "Unknown_rule"
  | Errors.Duplicate_rule _ -> "Duplicate_rule"
  | Errors.Priority_cycle _ -> "Priority_cycle"
  | Errors.Rule_limit_exceeded _ -> "Rule_limit_exceeded"
  | Errors.Unknown_procedure _ -> "Unknown_procedure"
  | Errors.Invalid_transition_reference _ -> "Invalid_transition_reference"
  | Errors.Transaction_error _ -> "Transaction_error"
  | Errors.Semantic_error _ -> "Semantic_error"
  | Errors.Unknown_prepared _ -> "Unknown_prepared"
  | Errors.Duplicate_prepared _ -> "Duplicate_prepared"
  | Errors.Prepared_arity _ -> "Prepared_arity"
  | Errors.Parameter_error _ -> "Parameter_error"

(* Observable behaviour of one evaluation: the columns and rows, or the
   error's kind and rendering. *)
let observe f =
  match f () with
  | (rel : Eval.relation) -> Ok (Array.to_list rel.Eval.cols, rel.Eval.rows)
  | exception Errors.Error e -> Error (error_kind e, Errors.to_string e)

let reference f =
  match f () with
  | (rel : Reference_eval.relation) -> Ok (Array.to_list rel.Reference_eval.cols, rel.rows)
  | exception Errors.Error e -> Error (error_kind e, Errors.to_string e)

(* Might the engine skip rows the nested loop evaluates without an
   index: a hash join on a [col = col] conjunct of a WHERE over two or
   more sources anywhere in the statement? *)
let may_skip_rows (s : Ast.select) =
  let rec conjuncts = function Ast.And (a, b) -> conjuncts a @ conjuncts b | e -> [ e ] in
  let rec linked found (sub : Ast.select) =
    found
    || (List.length sub.Ast.from > 1
       && List.exists
            (function Ast.Cmp (Ast.Eq, Ast.Col _, Ast.Col _) -> true | _ -> false)
            (Option.fold ~none:[] ~some:conjuncts sub.Ast.where))
    || Ast.fold_select ~expr:linked_expr ~select:linked false sub
  and linked_expr found e = found || Ast.fold_expr ~expr:linked_expr ~select:linked false e in
  linked false s

(* The reference's observation [r] against the engine's [c]: equal
   results; equal error kinds unless the engine [may_skip] rows, where
   an error of the reference allows any outcome. *)
let check_observed ?(may_skip = false) sql r c =
  (match r with Ok _ -> incr ok_results | Error _ -> incr error_results);
  match r, c with
  | Error (kr, er), Error (kc, ec) ->
    if kr <> kc && not may_skip then
      QCheck.Test.fail_reportf "%s@.reference error: %s@.compiled error: %s" sql er ec
  | Ok (cr, rr), Ok (cc, rc) ->
    if cr <> cc then
      QCheck.Test.fail_reportf "%s@.column mismatch: [%s] vs [%s]" sql
        (String.concat "; " cr) (String.concat "; " cc);
    if not (List.length rr = List.length rc && List.for_all2 Row.equal rr rc)
    then
      QCheck.Test.fail_reportf "%s@.row mismatch:@.%s@.vs@.%s" sql
        (String.concat "\n" (List.map Row.to_string rr))
        (String.concat "\n" (List.map Row.to_string rc))
  | Ok _, Error (_, ec) ->
    QCheck.Test.fail_reportf "%s@.reference succeeded, compiled errored: %s" sql ec
  | Error (_, er), Ok _ ->
    if not may_skip then
      QCheck.Test.fail_reportf "%s@.reference errored (%s), compiled succeeded" sql er

(* The fixture with indexes: hash on t.a and u.a, ordered on t.b.  Over
   it the engine's index and range probes, index nested-loop and hash
   joins, and the choice among them are differentiated too. *)
let indexed_fixture_db =
  List.fold_left
    (fun db (ix_name, table, column, kind) ->
      Database.create_index db ~ix_name ~table ~column ~kind)
    fixture_db
    [ ("t_a", "t", "a", `Hash); ("t_b", "t", "b", `Ordered); ("u_a", "u", "a", `Hash) ]

let select_differential =
  QCheck.Test.make ~count:3000 ~name:"compiled select = reference select"
    (QCheck.make ~print:Fun.id (fun st ->
         if QCheck.Gen.bool st then gen_planner_select st else gen_select st))
    (fun sql ->
      let s = Parser.parse_select_string sql in
      let resolve = Eval.no_transitions in
      let expected = reference (fun () -> Reference_eval.select fixture_db s) in
      let may_skip = may_skip_rows s in
      (* uncorrelated subqueries memoized, as always *)
      check_observed ~may_skip sql expected
        (observe (fun () -> Compile.eval_select resolve fixture_db s));
      (* indexed: sargable conjuncts probe the indexes *)
      let db = indexed_fixture_db in
      check_observed ~may_skip:true sql expected
        (observe (fun () -> Compile.eval_select resolve db s));
      true)

(* ------------------------------------------------------------------ *)
(* Part A1b: parameterized-statement differential.  The compiled path
   executes a prepared select by reading the EXECUTE frame through
   [Param] closures; the reference evaluates the select with the bound
   constants substituted into the tree.  The two must agree on results
   AND error kinds — including type errors a badly-typed binding
   provokes. *)

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
    ~name:"compiled EXECUTE (frame binding) = reference (substitution)"
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
      let resolve = Eval.no_transitions in
      let substituted =
        match Ast.subst_params_op args (Ast.Select_op s) with
        | Ast.Select_op s' -> s'
        | _ -> assert false
      in
      check_observed ~may_skip:(may_skip_rows s) sql
        (reference (fun () -> Reference_eval.select fixture_db substituted))
        (observe (fun () -> Compile.eval_select ~params:args resolve fixture_db s));
      true)

(* ------------------------------------------------------------------ *)
(* Part A1c: per-source row tests.  When WHERE cannot raise, each FROM
   source tests the conjuncts comparing one of its columns with values
   fixed for the run on its stored row before binding it, and count( * ),
   sum, min and max fold the last source's stored row.  Selects aimed at
   that path — NULL values under all six comparisons, int columns
   against float values and the reverse, string ordering, BETWEEN, IS
   [NOT] NULL, literal IN lists, three-valued AND/OR/NOT, and the
   occasional kind mismatch that makes WHERE tested whole on the frame —
   are run over an unindexed database: over t alone, over t and a second
   stored table u, and over those and a transition table [inserted u v]
   served by a resolver, each source with conjuncts of its own.  They
   must equal the reference exactly: results, error kinds and error
   text.  Without an index or a [col = col] link no row is skipped;
   with a link the hash join may skip a frame whose WHERE would raise,
   and only there an error of the reference allows another outcome.
   Parameterized variants are compiled twice: with the bound kinds
   known, as the statement cache compiles them, and with none known, as
   PREPARE does; there a bound kind that mismatches the column makes
   WHERE tested whole and raises the reference's error. *)

let scan_fixture_db =
  let db =
    Database.create_table Database.empty
      (Schema.table "t"
         [
           Schema.column "a" Schema.T_int;
           Schema.column "b" Schema.T_int;
           Schema.column "s" Schema.T_string;
           Schema.column "f" Schema.T_float;
         ])
  in
  List.fold_left
    (fun db row -> fst (Database.insert db "t" row))
    db
    [
      [| vi 1; vi 10; vs "x"; Value.Float 1.5 |];
      [| vi 2; vi 20; vs "yy"; Value.Float 2.0 |];
      [| vi 2; vnull; vs "x"; vnull |];
      [| vi 3; vi 5; vnull; Value.Float (-0.5) |];
      [| vnull; vi 7; vs "z"; Value.Float 3.0 |];
      [| vi 5; vi 5; vs ""; Value.Float 5.0 |];
      [| vi 7; vi 2; vs "Y"; Value.Float 7.25 |];
      [| vnull; vnull; vnull; vnull |];
      [| vi 10; vi 3; vs "xa"; Value.Float 10.0 |];
    ]

let scan_cols = [| ("a", `Num); ("b", `Num); ("s", `Str); ("f", `Num); ("t.a", `Num); ("t.s", `Str) |]

(* The second and third sources: u (k int, c int, s string), whose [s]
   makes a bare [s] ambiguous beside t, and [inserted u v], whose bare
   [k] and [c] are ambiguous beside u. *)
let u_cols = [| ("u.k", `Num); ("u.c", `Num); ("u.s", `Str); ("k", `Num); ("c", `Num) |]
let v_cols = [| ("v.k", `Num); ("v.c", `Num); ("v.s", `Str) |]

let join_fixture_db =
  let db =
    Database.create_table scan_fixture_db
      (Schema.table "u"
         [
           Schema.column "k" Schema.T_int;
           Schema.column "c" Schema.T_int;
           Schema.column "s" Schema.T_string;
         ])
  in
  List.fold_left
    (fun db row -> fst (Database.insert db "u" row))
    db
    [
      [| vi 1; vi 10; vs "x" |];
      [| vi 2; vnull; vs "yy" |];
      [| vnull; vi 5; vs "z" |];
      [| vi 7; vi 2; vnull |];
      [| vi 3; vi 3; vs "x" |];
      [| vi 10; vi 7; vs "" |];
    ]

let inserted_u_rows =
  [
    [| vi 2; vi 20; vs "x" |];
    [| vi 5; vi 5; vnull |];
    [| vnull; vi 3; vs "yy" |];
    [| vi 10; vi 2; vs "z" |];
  ]

(* [inserted u] for both evaluators; any other transition table is
   refused as outside rule processing *)
let join_resolve : Eval.resolver = function
  | Ast.Tt_inserted "u" ->
    { Eval.rel_name = "u"; cols = [| "k"; "c"; "s" |]; rows = inserted_u_rows }
  | tt -> Eval.no_transitions tt

let join_transition = function
  | Ast.Tt_inserted "u" -> { Reference_eval.cols = [| "k"; "c"; "s" |]; rows = inserted_u_rows }
  | tt -> Reference_eval.no_transitions tt

(* A literal for a column of [kind]; now and then NULL, and rarely one
   of the other kind, which makes WHERE raise on the general path. *)
let gen_scan_lit kind st =
  let open QCheck.Gen in
  match int_bound 24 st with
  | 0 | 1 -> "null"
  | 2 -> if kind = `Num then "'x'" else "2"
  | _ -> (
    match kind with
    | `Num -> (
      match int_bound 3 st with
      | 0 -> Printf.sprintf "%d.5" (int_range 0 9 st)
      | 1 -> Printf.sprintf "%d.0" (int_range 0 10 st)
      | _ -> string_of_int (int_range 0 11 st))
    | `Str -> oneofl [ "'x'"; "'yy'"; "'z'"; "''"; "'Y'"; "'xa'"; "'y'" ] st)

let gen_atom cols st =
  let open QCheck.Gen in
  let col, kind = oneofa cols st in
  let lit () = gen_scan_lit kind st in
  let op () = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] st in
  match int_bound 11 st with
  | 0 | 1 | 2 -> Printf.sprintf "%s %s %s" col (op ()) (lit ())
  | 3 -> Printf.sprintf "%s %s %s" (lit ()) (op ()) col
  | 4 -> Printf.sprintf "%s between %s and %s" col (lit ()) (lit ())
  | 5 -> Printf.sprintf "%s is %snull" col (if bool st then "not " else "")
  | 6 ->
    Printf.sprintf "%s %s (%s)" col
      (oneofl [ "in"; "not in" ] st)
      (String.concat ", " (List.init (1 + int_bound 3 st) (fun _ -> lit ())))
  | 7 ->
    (* two columns of one row, mostly of one kind *)
    let other, _ =
      oneofa (Array.of_list (List.filter (fun (_, k) -> k = kind || int_bound 9 st = 0) (Array.to_list cols))) st
    in
    Printf.sprintf "%s %s %s" col (op ()) other
  | 8 -> Printf.sprintf "%s + 1 %s %s" (fst cols.(0)) (op ()) (gen_scan_lit `Num st)
  | 9 -> Printf.sprintf "%s %s -%s" col (op ()) (gen_scan_lit kind st)
  | _ -> Printf.sprintf "%s %s %s" col (op ()) (lit ())

let gen_scan_atom st = gen_atom scan_cols st

let rec gen_scan_pred depth st =
  let open QCheck.Gen in
  if depth = 0 then gen_scan_atom st
  else
    let sub () = gen_scan_pred (depth - 1) st in
    match int_bound 5 st with
    | 0 | 1 -> gen_scan_atom st
    | 2 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "not (%s)" (sub ())
    | _ -> Printf.sprintf "%s and %s" (gen_scan_atom st) (sub ())

let scan_projections =
  [|
    ("count(*)", false);
    ("count(*), sum(a), min(s), max(b), sum(f)", true);
    ("sum(b), count(b), avg(a), min(f), max(s)", true);
    ("s, count(*)", true);
    ("count(*), sum(a + 1)", true);
    ("*", false);
    ("a, s", false);
    ("distinct s", false);
    ("b, f", false);
  |]

let join_projections =
  [|
    ("count(*)", false);
    ("count(*), sum(u.c), min(u.s), max(u.k)", true);
    ("count(*), sum(t.a), max(u.c)", true);
    ("t.a, u.k, u.s", false);
    ("*", false);
    ("u.s, count(*)", true);
    ("sum(t.a + u.c)", true);
  |]

(* A select over t alone, or t and u, or t, u and [inserted u v]: each
   source's atoms compare its own columns, a [col = col] link between
   two sources or a disjunction across them now and then. *)
let gen_scan_select st =
  let open QCheck.Gen in
  let sources = match int_bound 5 st with 0 | 1 | 2 -> 1 | 3 | 4 -> 2 | _ -> 3 in
  let cols = Array.sub [| scan_cols; u_cols; v_cols |] 0 sources in
  let atom () = gen_atom (oneofa cols st) st in
  let proj, agg = oneofa (if sources = 1 then scan_projections else join_projections) st in
  let extra () =
    match int_bound 5 st with
    | 0 when sources > 1 -> [ oneofl [ "t.a = u.k"; "u.c = t.b"; "u.k = t.b" ] st ]
    | 1 when sources > 1 -> [ Printf.sprintf "(%s or %s)" (atom ()) (atom ()) ]
    | 2 when sources = 3 -> [ oneofl [ "v.k = u.k"; "u.c = v.c"; "v.c = t.a" ] st ]
    | _ -> []
  in
  let where =
    match int_bound 9 st with
    | 0 -> ""
    | 1 | 2 | 3 | 4 ->
      " where "
      ^ String.concat " and " (List.init (1 + int_bound (sources + 1) st) (fun _ -> atom ()) @ extra ())
    | _ when sources = 1 -> " where " ^ gen_scan_pred 2 st
    | _ -> " where " ^ String.concat " and " (gen_scan_pred 1 st :: atom () :: extra ())
  in
  let tail =
    if agg then oneofl [ ""; ""; " having count(*) > 1" ] st
    else oneofl [ ""; ""; " order by 1"; " limit 2" ] st
  in
  Printf.sprintf "select %s from %s%s%s" proj
    (String.concat ", " (List.filteri (fun i _ -> i < sources) [ "t"; "u"; "inserted u v" ]))
    where tail

(* Results, error kinds and error text: no row is skipped here. *)
let observe_text = function
  | Ok _ as r -> r
  | Error (kind, text) -> Error (kind ^ ": " ^ text, text)

let check_scan sql r c = check_observed sql (observe_text r) (observe_text c)

(* Runs in which a source after the first tested conjuncts of its own *)
let later_source_tests = ref 0

let scan_differential =
  QCheck.Test.make ~count:2000 ~name:"fused scan = reference select"
    (QCheck.make ~print:Fun.id gen_scan_select)
    (fun sql ->
      let db = join_fixture_db in
      let s = Parser.parse_select_string sql in
      let expected = reference (fun () -> Reference_eval.select ~transition:join_transition db s) in
      let compiled = observe (fun () -> Compile.eval_select join_resolve db s) in
      if may_skip_rows s then check_observed ~may_skip:true sql expected compiled
      else check_scan sql expected compiled;
      (let ctx = Compile.make db in
       let cs = Compile.compile_select ctx s in
       let rt = Compile.make_rt ~db ~slots:(Compile.slot_count ctx) join_resolve in
       match Compile.plan_select rt cs with
       | _ :: later when List.exists (fun p -> p.Eval.sp_tests <> []) later -> incr later_source_tests
       | _ | (exception Errors.Error _) -> ());
      true)

(* A parameterized single-table select: its WHERE compares columns with
   parameters beside a literal conjunct, and the bound values are of
   any kind. *)
let gen_scan_param_case st =
  let open QCheck.Gen in
  let col, kind = oneofa scan_cols st in
  let op = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] st in
  let nparams, cond =
    match int_bound 4 st with
    | 0 -> (1, Printf.sprintf "%s %s ?" col op)
    | 1 -> (1, Printf.sprintf "? %s %s" op col)
    | 2 -> (2, Printf.sprintf "%s between ? and ?" col)
    | 3 -> (2, Printf.sprintf "%s in (?, ?)" col)
    | _ -> (2, Printf.sprintf "%s %s ? or a = ?" col op)
  in
  let proj, _ = oneofa scan_projections st in
  let template =
    Printf.sprintf "select %s from t where %s%s" proj cond
      (if bool st then "" else " and " ^ gen_scan_atom st)
  in
  let value () =
    match int_bound 9 st with
    | 0 -> Value.Null
    | 1 -> if kind = `Num then Value.Str "x" else Value.Int 2
    | 2 | 3 -> Value.Float (float_of_int (int_bound 20 st) /. 2.0)
    | _ -> (
      match kind with
      | `Num -> Value.Int (int_bound 11 st)
      | `Str -> Value.Str (oneofl [ "x"; "yy"; "z"; ""; "Y" ] st))
  in
  (template, Array.init nparams (fun _ -> value ()))

let scan_param_differential =
  QCheck.Test.make ~count:600
    ~name:"fused scan with parameters = reference (kinds known and unknown)"
    (QCheck.make gen_scan_param_case ~print:(fun (tpl, args) ->
         Printf.sprintf "%s / (%s)" tpl
           (String.concat ", " (List.map Value.to_string (Array.to_list args)))))
    (fun (template, args) ->
      let db = scan_fixture_db in
      let sql =
        Printf.sprintf "%s / (%s)" template
          (String.concat ", " (List.map Value.to_string (Array.to_list args)))
      in
      let s =
        match Parser.parse_statement_string ("prepare p as " ^ template) with
        | Ast.Stmt_prepare (_, Ast.Select_op s) -> s
        | _ -> QCheck.Test.fail_reportf "template is not a select: %s" template
      in
      let substituted =
        match Ast.subst_params_op args (Ast.Select_op s) with
        | Ast.Select_op s' -> s'
        | _ -> assert false
      in
      let expected = reference (fun () -> Reference_eval.select db substituted) in
      let run ctx =
        let cs = Compile.compile_select ctx s in
        let rt =
          Compile.make_rt ~db ~params:args ~slots:(Compile.slot_count ctx)
            Eval.no_transitions
        in
        observe (fun () -> Compile.run_select rt cs)
      in
      (* the statement cache's plan: one kind per parameter *)
      check_scan sql expected
        (run (Compile.make ~param_kinds:(Array.map Compile.lit_kind args) db));
      (* PREPARE's plan: any value may be bound *)
      check_scan sql expected (run (Compile.make db));
      true)

(* ------------------------------------------------------------------ *)
(* Part A1d: row tests over probed rows.  With ordered indexes on
   b and s and a hash index on a, a single-table select whose WHERE has
   a range over b or s (comparison, BETWEEN, two-sided pair, LIKE
   prefix, NULL bound) reads that range by probe when it holds at most
   8 of the 40 rows (its budget), and tests its row-local conjuncts on
   the probed rows: count( * ), sum, min and max folded from them,
   projections, exists and LIMIT stopping early, a WHERE whose
   non-row-local rest is tested on the bound frame, and an empty probe
   under projections and aggregates that would raise on any row.  A
   wider range is abandoned for the scan.  The reference evaluates
   every row, so where the probe ran a row the probe skipped may have
   raised there; where the table was scanned, results, error kinds and
   text must be equal. *)

let probe_fixture_db =
  let db =
    Database.create_table scan_fixture_db
      (Schema.table "one" [ Schema.column "x" Schema.T_int ])
  in
  let db = fst (Database.insert db "one" [| vi 1 |]) in
  let db =
    List.fold_left
      (fun db i ->
        let nth_null k v = if i mod k = 0 then vnull else v in
        fst
          (Database.insert db "t"
             [|
               nth_null 11 (vi (i mod 9));
               nth_null 13 (vi i);
               nth_null 17 (vs (String.make 1 "pqr".[i mod 3] ^ string_of_int (i mod 5)));
               Value.Float (float_of_int i /. 4.0);
             |]))
      db (List.init 40 (fun i -> i + 1))
  in
  List.fold_left
    (fun db (ix_name, column, kind) -> Database.create_index db ~ix_name ~table:"t" ~column ~kind)
    db
    [ ("pt_a", "a", `Hash); ("pt_b", "b", `Ordered); ("pt_s", "s", `Ordered) ]

let gen_probe_range st =
  let open QCheck.Gen in
  let n () = string_of_int (int_range (-2) 52 st) in
  let op () = oneofl [ "<"; "<="; ">"; ">=" ] st in
  match int_bound 9 st with
  | 0 | 1 -> Printf.sprintf "b %s %s" (op ()) (n ())
  | 2 -> Printf.sprintf "%s %s b" (n ()) (op ())
  | 3 -> Printf.sprintf "b between %s and %s" (n ()) (n ())
  | 4 -> Printf.sprintf "b >= %s and b < %s" (n ()) (n ())
  | 5 | 6 -> Printf.sprintf "s like '%c%s%%'" (oneofl [ 'p'; 'q'; 'r' ] st) (oneofl [ ""; "1"; "3" ] st)
  | 7 -> Printf.sprintf "s >= '%s'" (oneofl [ "p"; "q3"; "r"; "r4"; "s" ] st)
  | _ -> oneofl [ "b > null"; "b between null and 9"; "s like null" ] st

let gen_probe_select st =
  let open QCheck.Gen in
  let where =
    gen_probe_range st
    ^ match int_bound 4 st with
      | 0 | 1 -> ""
      | 2 -> " and " ^ gen_scan_atom st
      | 3 -> " and " ^ gen_scan_pred 2 st
      | _ -> oneofl [ " and a + 1 > 3"; " and (a = 2 or s = 'p1')"; " and not (f < 2.0)" ] st
  in
  match int_bound 9 st with
  | 0 -> Printf.sprintf "select count(*) from one where exists (select * from t where %s)" where
  | 1 -> Printf.sprintf "select a, b, s from t where %s limit %d" where (1 + int_bound 2 st)
  | 2 ->
    Printf.sprintf "select %s from t where %s"
      (oneofl [ "a / 0"; "sum(a / 0)"; "count(*), max(1 / 0)" ] st)
      where
  | _ ->
    let proj, agg = oneofa scan_projections st in
    let tail =
      if agg then oneofl [ ""; ""; " having count(*) > 1" ] st
      else oneofl [ ""; ""; " order by 1" ] st
    in
    Printf.sprintf "select %s from t where %s%s" proj where tail

(* Reads of t by range probe and by scan across the property: both
   paths must have run. *)
let probed_reads = ref 0
let scanned_reads = ref 0

let probe_differential =
  QCheck.Test.make ~count:2000 ~name:"fused loop over probed rows = reference select"
    (QCheck.make ~print:Fun.id gen_probe_select)
    (fun sql ->
      let db = probe_fixture_db in
      let s = Parser.parse_select_string sql in
      let probed = ref false in
      let note decision table =
        if String.equal table "t" then
          match decision with
          | `Range_probe | `Index_probe ->
            probed := true;
            incr probed_reads
          | `Seq_scan -> incr scanned_reads
          | `Hash_join_build | `Hash_join_probe -> ()
      in
      let compiled = observe (fun () -> Compile.eval_select ~note Eval.no_transitions db s) in
      let expected = reference (fun () -> Reference_eval.select db s) in
      if !probed then check_observed ~may_skip:true sql expected compiled
      else check_scan sql expected compiled;
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

(* A verdict as a one-row relation, so [check_observed] compares it. *)
let verdict f () =
  let b = f () in
  { Eval.rel_name = ""; cols = [| "holds" |]; rows = [ [| Value.Bool b |] ] }

let predicate_differential =
  QCheck.Test.make ~count:300 ~name:"compiled condition = reference condition"
    (QCheck.make ~print:Fun.id (gen_predicate 2))
    (fun sql ->
      let e = Parser.parse_expr_string sql in
      let resolve = Eval.no_transitions in
      let may_skip =
        Ast.fold_expr ~expr:(fun f _ -> f)
          ~select:(fun f s -> f || may_skip_rows s)
          false e
      in
      check_observed ~may_skip sql
        (observe (verdict (fun () -> Reference_eval.predicate fixture_db e)))
        (observe
           (verdict (fun () ->
                Compile.run_predicate ~db:fixture_db resolve
                  (Compile.compile_predicate fixture_db e))));
      true)

(* ------------------------------------------------------------------ *)
(* Part A3: hashed IN / NOT IN                                          *)

(* A memoized IN (select ...) set hashes its elements when they share
   one constructor.  Its verdicts must be exactly the linear scan's:
   first against [Eval.in_semantics] over random sets, then on a
   corpus run by the engine, by the reference and by the reference
   over the select with each uncorrelated subquery replaced by the
   literal IN list of its values. *)

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
  let literals sub =
    List.map (fun row -> Ast.Lit row.(0)) (Reference_eval.select db sub).Reference_eval.rows
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
  let resolve = Eval.no_transitions in
  List.iter
    (fun sql ->
      let s = Parser.parse_select_string sql in
      let expected = reference (fun () -> Reference_eval.select in_fixture_db s) in
      let cached = observe (fun () -> Compile.eval_select resolve in_fixture_db s) in
      check_observed sql expected cached;
      if not (correlated sql) then
        check_observed (sql ^ " (literal-list oracle)")
          (reference (fun () ->
               Reference_eval.select in_fixture_db (with_literal_lists in_fixture_db s)))
          cached)
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
   exact read set lands in [seen], so the probed and the scanned read
   sets are compared through the final state. *)
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
   genuinely erroneous statement so the two systems must agree on
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
    QCheck.Test.fail_reportf "%s: system ok, twin errored: %s" label e
  | Error e, Ok _ ->
    QCheck.Test.fail_reportf "%s: system errored (%s), twin ok" label e

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

let reference_selects = ref 0

(* The block's top-level selects, each evaluated by the reference on
   the state it ran in: the block's operations replayed from [db]
   (rules run only at commit, after the last of them). *)
let reference_block_results db sql =
  let _, rels =
    List.fold_left
      (fun (db, rels) stmt ->
        match stmt with
        | Ast.Stmt_op (Ast.Select_op s) ->
          let r = Reference_eval.select db s in
          (db, (Array.to_list r.Reference_eval.cols, r.rows) :: rels)
        | Ast.Stmt_op op -> ((Sqlf.Dml.exec_cop Eval.no_transitions db (Sqlf.Dml.compile_op db op)).Sqlf.Dml.db, rels)
        | _ -> QCheck.Test.fail_reportf "not an operation in: %s" sql)
      (db, []) (Parser.parse_script sql)
  in
  List.rev rels

let engine_differential_once ~config (rule, steps) =
  let s_main = make_system ~config rule () in
  let s_twin = make_system ~config rule () in
  List.iter
    (fun step ->
      match step with
      | `Ddl sql ->
        (* the twin stays index-free *)
        ignore (run_ddl s_main sql)
      | `Block sql ->
        let db0 = Engine.database (System.engine s_twin) in
        let rm = run_block s_main sql in
        let rt = run_block s_twin sql in
        check_same ("block: " ^ sql) rm rt;
        (match rt with
        | Ok (_, rels) ->
          let expected = reference_block_results db0 sql in
          List.iter2
            (fun (cols_ref, rows_ref) (cols, rows) ->
              incr reference_selects;
              if
                cols_ref <> cols
                || not (List.length rows_ref = List.length rows && List.for_all2 Row.equal rows_ref rows)
              then QCheck.Test.fail_reportf "select results differ from the reference in: %s" sql)
            expected rels
        | Error _ -> ());
        let tm = firing_trace s_main and tt = firing_trace s_twin in
        if tm <> tt then
          QCheck.Test.fail_reportf "firing traces differ after: %s" sql)
    steps;
  (* final states, read through the reference on both systems so the
     comparison itself is independent of the engine *)
  let final_rows s q =
    (Reference_eval.select (Engine.database (System.engine s)) (Parser.parse_select_string q))
      .Reference_eval.rows
  in
  List.iter
    (fun tbl ->
      let q = Printf.sprintf "select * from %s" tbl in
      let rm = final_rows s_main q and rt = final_rows s_twin q in
      if not (List.length rm = List.length rt && List.for_all2 Row.equal rm rt) then
        QCheck.Test.fail_reportf "final state of %s differs" tbl)
    harness_tables;
  seen_logged := !seen_logged + List.length (final_rows s_main "select * from seen")

let engine_differential =
  QCheck.Test.make ~count:40
    ~name:"engine = index-free twin, selects = reference"
    (QCheck.make ~print:print_workload gen_workload)
    (fun workload ->
      engine_differential_once ~config:Engine.default_config workload;
      engine_differential_once
        ~config:{ Engine.default_config with track_selects = true }
        workload;
      true)

(* ------------------------------------------------------------------ *)
(* Part C: shape-memo differential.  [System.exec] runs a statement
   whose shape the memo knows from its cached parameterized plan,
   without parsing; the reference parses every script and runs each
   statement through [System.exec_statement].  Every generated select
   and data manipulation script runs with its literals varied (same
   shape, other values; sometimes another kind, so another shape), on
   two systems built alike, with index DDL in between; results, error
   diagnostics and every engine counter — [stmt_cache_*] included —
   must agree after each script. *)

let memo_setup =
  "create table t (a int, b int, s string);\n\
   create table u (a int, c int);\n\
   insert into t values (1, 10, 'x'), (2, 20, 'yy'), (2, null, 'x'), (3, 5, \
   null), (null, 7, 'z');\n\
   insert into u values (1, 100), (2, null), (4, 7)"

let gen_memo_dml st =
  let open QCheck.Gen in
  let n () = int_range (-3) 12 st in
  match int_bound 4 st with
  | 0 -> Printf.sprintf "insert into t values (%d, %d, 'x')" (n ()) (n ())
  | 1 -> Printf.sprintf "update t set b = b + %d where a = %d" (n ()) (n ())
  | 2 -> Printf.sprintf "delete from u where c > %d and a in (%d, %d)" (n ()) (n ()) (n ())
  | 3 ->
    Printf.sprintf
      "begin; update u set c = c - %d where a = %d; select a, c from u where \
       a = %d; commit"
      (n ()) (n ()) (n ())
  | _ ->
    Printf.sprintf "insert into u values (%d, %d); select count(*) from u where c < %d"
      (n ()) (n ()) (n ())

(* Replace each integer literal (a digit run not inside a name) by
   another integer, or now and then by a literal of another kind. *)
let vary st sql =
  let open QCheck.Gen in
  let buf = Buffer.create (String.length sql) in
  let n = String.length sql in
  let is_digit c = c >= '0' && c <= '9' in
  let is_name c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let rec go i =
    if i < n then
      if is_digit sql.[i] && (i = 0 || not (is_name sql.[i - 1] || is_digit sql.[i - 1]))
      then begin
        let j = ref i in
        while !j < n && is_digit sql.[!j] do
          incr j
        done;
        Buffer.add_string buf
          (match int_bound 9 st with
          | 0 -> "null"
          | 1 -> "'x'"
          | 2 -> "1.5"
          | _ -> string_of_int (int_range (-3) 12 st));
        go !j
      end
      else begin
        Buffer.add_char buf sql.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let gen_memo_case st =
  let open QCheck.Gen in
  let script () =
    match int_bound 9 st with
    | 0 -> [ "create index tb on t (b) using ordered" ]
    | 1 -> [ "drop index tb" ]
    | 2 | 3 | 4 ->
      let b = gen_memo_dml st in
      [ b; vary st b; vary st b; b ]
    | _ ->
      let b = gen_select st in
      [ b; vary st b; vary st b; b ]
  in
  List.concat (List.init (1 + int_bound 4 st) (fun _ -> script ()))

let memo_hits = ref 0

let memo_differential =
  QCheck.Test.make ~count:150
    ~name:"System.exec through the shape memo = parse and exec_statement"
    (QCheck.make ~print:(String.concat "\n") gen_memo_case)
    (fun scripts ->
      let memo = system memo_setup and reference = system memo_setup in
      let observe_exec f =
        match f () with
        | results -> Ok (List.map System.render_result results)
        | exception Errors.Error e -> Error (Errors.to_string e)
      in
      List.iter
        (fun sql ->
          let hits0 = (Engine.stats (System.engine memo)).Engine.stmt_cache_hits in
          let a = observe_exec (fun () -> System.exec memo sql)
          and b =
            observe_exec (fun () ->
                List.map (System.exec_statement reference) (Parser.parse_script sql))
          in
          if a <> b then
            QCheck.Test.fail_reportf "%s@.memo: %s@.reference: %s" sql
              (match a with Ok r -> String.concat " / " r | Error e -> e)
              (match b with Ok r -> String.concat " / " r | Error e -> e);
          let sa = Engine.stats (System.engine memo)
          and sb = Engine.stats (System.engine reference) in
          if sa <> sb then
            QCheck.Test.fail_reportf
              "%s@.counters differ: hits %d/%d misses %d/%d invalidations %d/%d"
              sql sa.Engine.stmt_cache_hits sb.Engine.stmt_cache_hits
              sa.Engine.stmt_cache_misses sb.Engine.stmt_cache_misses
              sa.Engine.stmt_cache_invalidations sb.Engine.stmt_cache_invalidations;
          memo_hits := !memo_hits + sa.Engine.stmt_cache_hits - hits0;
          (* an error inside BEGIN ... COMMIT leaves the transaction open
             on both systems *)
          List.iter
            (fun s ->
              let eng = System.engine s in
              if Engine.in_transaction eng then Engine.rollback_txn eng)
            [ memo; reference ])
        scripts;
      true)

(* ------------------------------------------------------------------ *)
(* Operand order.  AND and OR evaluate their right operand first, LIKE
   its pattern first, in the engine and in the reference alike; when
   both sides raise, that order decides the error.  Each statement's
   error must be the one its right-hand side raises on its own.        *)

let operand_order_corpus =
  [
    ("select a from t where (s + 1 > 0) and (a / 0 = 1)",
     "select a from t where a / 0 = 1");
    ("select a from t where (a / 0 = 1) and (s + 1 > 0)",
     "select a from t where s + 1 > 0");
    ("select a from t where (s + 1 > 0) or (a / 0 = 1)",
     "select a from t where a / 0 = 1");
    ("select a from t where (a / 0 = 1) or (s + 1 > 0)",
     "select a from t where s + 1 > 0");
    ("select a from t where (s + 1) like ('x' || (a / 0))",
     "select a from t where 'x' || (a / 0) = 'x'");
    ("select a from t where (a / 0) like (s + 1)",
     "select a from t where s + 1 = 'x'");
    ("select a from t where exists (select * from u where (u.c / 0 = 1) and \
      (t.s + 1 > 0))",
     "select a from t where t.s + 1 > 0");
  ]

let test_operand_order_corpus () =
  let resolve = Eval.no_transitions in
  let error_text what sql f =
    match f () with
    | _ -> Alcotest.failf "%s: %s succeeded" sql what
    | exception Errors.Error e -> Errors.to_string e
  in
  List.iter
    (fun (sql, right_alone) ->
      let s = Parser.parse_select_string sql in
      let right = Parser.parse_select_string right_alone in
      let compiled = error_text "compiled" sql (fun () -> Compile.eval_select resolve fixture_db s) in
      let reference = error_text "reference" sql (fun () -> Reference_eval.select fixture_db s) in
      let expected =
        error_text "right operand" right_alone (fun () ->
            Compile.eval_select resolve fixture_db right)
      in
      Alcotest.(check string) (sql ^ " (reference)") expected reference;
      Alcotest.(check string) (sql ^ " (compiled)") expected compiled)
    operand_order_corpus

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
    true (!seen_logged > 0);
  Alcotest.(check bool)
    (Printf.sprintf "engine selects checked against the reference (%d)" !reference_selects)
    true (!reference_selects > 0);
  Alcotest.(check bool)
    (Printf.sprintf "probed (%d) and scanned (%d) reads of the probe fixture"
       !probed_reads !scanned_reads)
    true
    (!probed_reads > 100 && !scanned_reads > 100);
  Alcotest.(check bool)
    (Printf.sprintf "runs where a source after the first tested its own conjuncts (%d)"
       !later_source_tests)
    true (!later_source_tests > 100)

let suite =
  [
    qtest select_differential;
    qtest param_differential;
    qtest scan_differential;
    qtest scan_param_differential;
    qtest probe_differential;
    qtest predicate_differential;
    qtest hashed_in_matches_scan;
    Alcotest.test_case "hashed IN corpus" `Quick test_hashed_in_corpus;
    Alcotest.test_case "operand order decides the error" `Quick
      test_operand_order_corpus;
    qtest engine_differential;
    qtest memo_differential;
    Alcotest.test_case "differential corpus is not vacuous" `Quick
      test_corpus_not_vacuous;
  ]
