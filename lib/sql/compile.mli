(** Compilation of expressions, predicates and selects to positional
    closures.

    The tree-walking evaluator ({!Eval}) resolves every column
    reference by name for every candidate row.  This module performs
    name resolution, ambiguity checking, correlation analysis and
    sargable-conjunct selection ONCE per statement, producing closures
    in which a column reference is a (frame, binding, column) triple —
    per-row evaluation is then three array loads.  Compile-detected
    errors (unknown table/column, ambiguity, duplicate FROM names)
    keep the interpreter's exact payloads and raise with the
    interpreter's exact timing: a reference on a branch never taken
    never surfaces its error.

    The interpreter is retained as the differential oracle; the two
    paths are asserted equivalent — results and error diagnostics — by
    test/test_compile_diff.ml.

    A compiled form is valid only for the catalog it was compiled
    against (and the planner-switch settings in force at compile
    time); callers caching compiled forms must key them on a DDL
    generation counter, as the rules engine does. *)

open Relational

val enabled : bool ref
(** Route DML execution and rule processing through the compiled path
    (true, the default) or the interpreter.  Exists for the
    differential oracle and the ablation benchmark. *)

(** {2 Runtime} *)

type renv = Row.t array array
(** Positional mirror of {!Eval.env}: scopes innermost first, each
    frame the bound rows of one select's FROM items, in FROM order.
    Binding and column names were consumed at compile time. *)

type rt
(** Per-evaluation-unit runtime state: resolver, optional access-path
    hooks, and the memo slots backing uncorrelated-subquery caching.
    Same lifetime discipline as {!Eval.cache}: one [rt] per DML
    operation or rule-condition evaluation, never reused across
    database states. *)

val make_rt :
  ?access:Eval.access ->
  ?params:Value.t array ->
  use_cache:bool ->
  slots:int ->
  Eval.resolver ->
  rt
(** [slots] must be at least the compile unit's {!slot_count};
    [use_cache:false] disables subquery memoization (mirroring
    interpreter evaluation without a cache).  [params] is the EXECUTE
    parameter frame read by compiled [Param] closures (default
    empty). *)

(** {2 Compilation context} *)

type ctx
(** Compile-time state: the catalog compiled against, the environment
    shape (binding names and column names per scope), correlation
    watches, and the memo-slot counter. *)

val make : Database.t -> ctx

val slot_count : ctx -> int
(** Memo slots allocated so far; pass to {!make_rt} after compiling
    everything that will share the [rt]. *)

(** {2 Expressions and predicates} *)

type cexpr

val compile_expr :
  ctx -> shape:(string * string array) list list -> Ast.expr -> cexpr
(** Compile under the given environment shape (innermost scope first,
    matching the {!renv} the closure will receive). *)

val eval_cexpr : rt -> cexpr -> renv -> Value.t

val cexpr_holds : rt -> cexpr -> renv -> bool
(** Three-valued logic collapsed: [true] only when definitely true. *)

type cpred = { cp_expr : cexpr; cp_nslots : int }
(** A predicate compiled against an empty environment shape, bundled
    with its memo-slot count — the cacheable compiled form of a rule
    condition. *)

val compile_predicate : Database.t -> Ast.expr -> cpred

val run_predicate :
  ?access:Eval.access -> use_cache:bool -> Eval.resolver -> cpred -> bool
(** Evaluate with a fresh slot array (one evaluation = one database
    state). *)

(** {2 Selects} *)

type cselect

val compile_select : ctx -> Ast.select -> cselect

val run_select : rt -> cselect -> Eval.relation
(** Evaluate with no outer scopes.  Does not hit a fault site — use
    {!eval_select} for public query entry points. *)

val run_select_read : rt -> cselect -> Eval.relation * Handle.t list option
(** {!run_select} also returning the tuples the select retrieved, with
    the semantics of {!Eval.eval_select_read}: precise only when the
    [rt] has access hooks. *)

val select_cols : cselect -> string array
(** Static output column names (of the non-empty result path). *)

val eval_select :
  ?access:Eval.access ->
  ?params:Value.t array ->
  ?use_cache:bool ->
  Eval.resolver ->
  Database.t ->
  Ast.select ->
  Eval.relation
(** Compile-and-run counterpart of {!Eval.eval_select}: hits the
    [Query_eval] fault site once, then evaluates.  [use_cache]
    defaults to [false]. *)

(** {2 Victim probes (DML helper)} *)

type cprobe
(** The statically-selected sargable candidates for one base table's
    victim selection, tried in conjunct order at run time with the
    interpreter's fallback semantics. *)

val compile_probe :
  ctx ->
  frame:(string * string array) list ->
  target:string ->
  table:string ->
  Ast.expr option ->
  cprobe option
(** [None] when no conjunct is sargable (or pushdown is disabled at
    compile time): scan instead. *)

val run_probe : rt -> Eval.access -> cprobe -> Eval.probe_hit option
(** Probe with outer scopes empty, candidates ranked by the shared cost
    model; [None] means every candidate fell through (value evaluation
    failed or no usable index): scan instead. *)

(** {2 EXPLAIN} *)

val plan_select :
  access:Eval.access ->
  Eval.resolver ->
  Database.t ->
  Ast.select ->
  Eval.source_plan list
(** Compiled counterpart of {!Eval.plan_select}: the same decision
    procedure the compiled executor runs, stopping short of realizing
    the planned sources. *)

val plan_op :
  access:Eval.access ->
  Eval.resolver ->
  Database.t ->
  Ast.op ->
  Eval.source_plan list
(** Compiled counterpart of {!Eval.plan_op}. *)
