(** Compilation of expressions, predicates and selects to positional
    closures: the engine's one evaluator.

    Name resolution, ambiguity checking, correlation analysis and
    sargable-conjunct selection happen ONCE per statement, producing
    closures in which a column reference is a (frame, binding, column)
    triple — per-row evaluation is then three array loads.
    Compile-detected errors (unknown table/column, ambiguity, duplicate
    FROM names) raise at run time, when evaluation reaches them: a
    reference on a branch never taken never surfaces its error.

    A compiled plan runs over the database state of its {!rt}: base
    tables are read there in place, by scan or index probe as the cost
    model decides, and the [rt]'s note hears each read decision; only
    transition tables go through the resolver.

    test/reference_eval.ml, a nested-loop evaluator with no index, hash
    join, early stop or memo, is the differential oracle:
    test/test_compile_diff.ml asserts that results and error kinds
    agree.

    A compiled form is valid only for the catalog it was compiled
    against; callers caching compiled forms must key them on a DDL
    generation counter, as the rules engine does. *)

open Relational

(** {2 Runtime} *)

type renv = Row.t array array
(** A runtime environment: scopes innermost first, each frame the bound
    rows of one select's FROM items, in FROM order.  Binding and column
    names were consumed at compile time. *)

type rt
(** Per-evaluation-unit runtime state: the database state base tables
    are read from, the callback hearing the read decisions, the
    transition-table resolver, and the memo slots backing
    uncorrelated-subquery caching.  One [rt] per DML operation or
    rule-condition evaluation, never reused across database states. *)

val make_rt :
  db:Database.t ->
  ?note:Eval.note ->
  ?params:Value.t array ->
  slots:int ->
  Eval.resolver ->
  rt
(** Base tables are read from [db], by scan or index probe, and [note]
    hears every read decision (default: nothing does).  [slots] must be
    at least the compile unit's {!slot_count}: each uncorrelated
    subquery runs at most once per [rt].  [params] is the EXECUTE
    parameter frame read by compiled [Param] closures (default
    empty). *)

(** {2 Compilation context} *)

type ctx
(** Compile-time state: the catalog compiled against, the environment
    shape (binding names and column names per scope), correlation
    watches, and the memo-slot counter. *)

type lit_kind = [ `Num | `Str | `Bool | `Null ]
(** What the early-stop analysis knows of a value: numbers (Int and
    Float alike), strings, booleans or NULL. *)

val lit_kind : Value.t -> lit_kind

val make : ?param_kinds:lit_kind array -> Database.t -> ctx
(** [param_kinds], when given, is the kind of every parameter the
    compiled plan will ever be run with — the statement cache keys its
    plans on them — so the early-stop analysis treats parameter [i]
    like a literal of kind [param_kinds.(i)].  Default: nothing is
    known, as for PREPARE. *)

val slot_count : ctx -> int
(** Memo slots allocated so far; pass to {!make_rt} after compiling
    everything that will share the [rt]. *)

(** {2 Expressions and predicates} *)

type cexpr

val compile_expr : ?table:string -> ctx -> Ast.expr -> cexpr
(** An expression over no row (an INSERT's VALUES; run with the
    environment [[||]]) or over one stored row of base table [table]
    bound under its own name (an UPDATE's SET expression; run with
    [[| [| row |] |]]).  The table's column types are known, as in a
    select over it, so a subquery correlated on its columns may test
    its own conjuncts on its rows. *)

val eval_cexpr : rt -> cexpr -> renv -> Value.t

type cpred
(** A predicate compiled against an empty environment shape, bundled
    with its memo-slot count — the cacheable compiled form of a rule
    condition. *)

val compile_predicate : Database.t -> Ast.expr -> cpred

val run_predicate :
  db:Database.t ->
  ?note:Eval.note ->
  Eval.resolver ->
  cpred ->
  bool
(** Evaluate over [db] with a fresh slot array (one evaluation = one
    database state), as {!make_rt} describes. *)

(** {2 Selects} *)

type cselect

val compile_select : ctx -> Ast.select -> cselect

val run_select : rt -> cselect -> Eval.relation
(** Evaluate with no outer scopes.  Does not hit a fault site — use
    {!eval_select} for public query entry points. *)

val run_select_read : rt -> cselect -> Eval.relation * (Handle.t * Row.t) list option
(** {!run_select} also returning the tuples the select retrieved
    (Section 5.1): when the from-list is exactly one base table and
    there is no GROUP BY or compound operator, the rows that passed
    WHERE, each with its handle, in handle order, taken from the index
    probe or scan that produced them — the table's own stored rows, not
    copies.  DISTINCT, ORDER BY and LIMIT never shrink the set.  [None]
    for every other shape. *)

val compile_victims : ctx -> table:string -> Ast.expr option -> cselect
(** DELETE's and UPDATE's victim selection: the select core
    [select * from table where ...], read by index probe or scan as any
    select is, whose passing rows are collected and not projected: its
    {!run_select_read} yields an empty relation and the victims, and
    its {!plan_select} the victim table's plan. *)

val plan_select : rt -> cselect -> Eval.source_plan list
(** EXPLAIN: one plan per FROM source of each select core (compound
    arms included), in from-list order, by a plan-only run — the read
    decisions {!run_select} would take, through the same calls, with
    the sources before the last joined (a join method is chosen from
    their number) and neither the last source nor WHERE run. *)

val eval_select :
  ?note:Eval.note ->
  ?params:Value.t array ->
  Eval.resolver ->
  Database.t ->
  Ast.select ->
  Eval.relation
(** Compile and run a select over the database it is given, as
    {!make_rt} describes: cross product of the from-list, WHERE
    filter, grouping and aggregates, HAVING, projection, DISTINCT,
    ORDER BY, LIMIT.  Hits the [Query_eval] fault site once, then
    evaluates. *)
