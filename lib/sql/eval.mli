(** Query evaluation.

    The evaluator works over {!relation}s — named column lists plus
    rows — rather than stored tables, so the same machinery evaluates
    base tables, derived tables and the paper's transition tables.  A
    {!resolver} maps AST table sources to relations; the rules engine
    supplies a resolver that also serves the triggering rule's
    transition tables.

    Three-valued logic: predicates evaluate to [Bool _] or [Null]
    (unknown); a row is selected only when the predicate is definitely
    true. *)

open Relational

type relation = { rel_name : string; cols : string array; rows : Row.t list }

type resolver = Ast.table_source -> relation

val relation_of_table : Table.t -> relation

val base_resolver : Database.t -> resolver
(** A resolver over base tables only; referencing a transition table
    raises [Invalid_transition_reference]. *)

(** {2 Environments} *)

type binding = {
  bind_name : string;
  bind_cols : string array;
  bind_row : Row.t;
}

type env = binding list list
(** Scopes, innermost first; each frame is the from-list of one
    select.  Column references resolve innermost-first; within a scope
    an unqualified reference must be unambiguous. *)

val empty_env : env

(** {2 Uncorrelated-subquery caching}

    Predicates are evaluated once per candidate row; without care an
    embedded select that does not reference the outer row would be
    re-evaluated for every row.  A {!cache} shared across the rows of
    one operation memoizes such subqueries; correlation is detected
    dynamically on the first evaluation.  A cache is only sound while
    the database state is fixed — create one per operation or rule
    condition. *)

type cache

val make_cache : unit -> cache

(** {2 IN-subquery value sets}

    An uncorrelated IN (select ...) is evaluated once per operation;
    its value set is then hashed, so each membership test costs
    O(1) instead of a scan of the set.  Only a probe value with the
    same constructor as every non-NULL element takes the hashed path —
    mixed Int/Float sets, other probe values and small sets keep the
    linear {!in_semantics} scan — so verdicts and type errors are
    identical either way. *)

type in_set = private { in_values : Value.t list; in_index : in_index }
and in_index

type memo = private { memo_rel : relation; mutable memo_in : in_set option }
(** A memoized subquery result (the compiled evaluator's memo slots
    hold these too), with the IN value set built from it on first
    use. *)

val make_memo : relation -> memo

val memo_in_set : memo -> in_set
(** The memo's IN value set, indexed on first use.  Raises the
    single-column error on every call while the relation is not one
    column wide. *)

val scan_set : relation -> in_set
(** The unindexed value set of a one-column relation (a subquery
    re-evaluated per row); raises the IN-subquery single-column error
    otherwise. *)

val in_set_mem : in_set -> Value.t -> Value.t
(** SQL IN of a value against a set: [Bool true], [Bool false] or
    [Null] (unknown), exactly as {!in_semantics} over [in_values]. *)

val join_optimization : bool ref
(** When true (the default), an equality conjunct in the WHERE clause
    linking two from-list sources turns the nested-loop join into an
    order-preserving hash join.  Results are identical; the switch
    exists for the ablation benchmark. *)

(** {2 Access paths}

    When a caller supplies {!access} hooks, base tables in a from-list
    are realized lazily: a sargable equality/IN conjunct of the WHERE
    clause over an indexed column is satisfied by an index probe
    instead of a scan.  A probe returns matching rows in handle
    (insertion) order — an order-preserving subsequence of the scan —
    and the full predicate is still applied afterwards, so results are
    identical either way. *)

type access = {
  acc_table : table:string -> Table.t option;
      (** a base table of the state being read, scanned in place
          instead of materialized as a relation; [None] for an unknown
          table (forcing the eager path) *)
  acc_probe :
    table:string ->
    column:string ->
    Value.t list ->
    (Handle.t * Row.t) list option;
      (** probe any index over the column; [None] when no usable index
          exists *)
  acc_range :
    table:string ->
    column:string ->
    lower:(Value.t * bool) option ->
    upper:(Value.t * bool) option ->
    (Handle.t * Row.t) list option;
      (** probe an ordered index over the column for a key range (bound
          value, inclusive?); [None] when no ordered index exists or a
          bound is type-incompatible *)
  acc_note :
    table:string ->
    [ `Seq_scan | `Index_probe | `Range_probe | `Hash_join_build
    | `Hash_join_probe ] ->
    unit;
      (** called with every access decision the executor takes — once
          per base-table access for scans/probes, once per hash-join
          build and once per probe into a built join table — for
          EXPLAIN-style statistics *)
  acc_index : table:string -> column:string -> string option;
      (** name of the index that [acc_probe] would use for this column,
          if any; informational (EXPLAIN) only *)
  acc_stats : table:string -> column:string -> (int * bool) option;
      (** incrementally-maintained statistics for an indexed column:
          distinct non-null key count, and whether an ordered index
          (range capability) covers it; [None] for unindexed columns *)
}

val db_access : Database.t -> access
(** Hooks serving every table and index of a database state; [acc_note]
    does nothing. *)

val table_count : access -> table:string -> int option
(** A base table's cardinality through {!field-acc_table}. *)

val predicate_pushdown : bool ref
(** When true (the default) and access hooks are installed, sargable
    conjuncts are pushed down into index probes.  Results are
    identical; the switch exists for the differential test harness and
    the ablation benchmark. *)

val cost_model : bool ref
(** When true (the default), the planner ranks all sargable candidates
    — equality/IN, range comparisons, BETWEEN, prefix LIKE — by
    estimated enumerated rows from the maintained statistics and takes
    the cheapest.  When false it degrades to the historical
    first-equality-match planner (no range probes): the oracle the
    differential harnesses compare against.  Results are identical
    either way. *)

(** {2 Cost model} *)

type probe_shape =
  | Shape_eq of int option
  | Shape_set of int
  | Shape_range
  | Shape_prefix
(** The statically-known shape of a sargable conjunct: an equality/IN
    probe with the given key count ([None] = IN (select ...)), a range,
    or a LIKE prefix range.  [Shape_set k] is an IN (select ...) whose
    value set has been evaluated to [k] values. *)

val estimate_shape :
  access -> table:string -> column:string -> probe_shape -> int option
(** Estimated rows a probe of this shape would enumerate, from the
    maintained statistics ([None] = no usable index).  Ranges are
    guessed at selectivity 1/3 (prefixes 1/4); equality estimates are
    keys × rows ∕ distinct. *)

val choose_candidates :
  access -> table:string -> ('a * string * probe_shape) list ->
  ('a * int option) list
(** The single decision procedure shared by the interpreting and
    compiling evaluators: given [(payload, column, shape)] candidates
    in conjunct order, the ones worth attempting, cheapest first, each
    with its estimate.  With {!cost_model} off: equality candidates in
    conjunct order, no estimates (the historical planner).  A
    [Shape_set k] candidate is also dropped when probing its [k] keys
    would cost more than scanning the table (one key probe is weighed
    as four scanned rows). *)

val recheck_set :
  access -> table:string -> column:string -> Value.t list -> int option option
(** Re-rank an IN (select ...) candidate once its value set is known
    (both evaluators and EXPLAIN call this after evaluating the
    subquery): [None] = scan instead, [Some est] = probe, reporting
    [est]. *)

type probe_hit = {
  ph_column : string;  (** indexed column satisfying the probe *)
  ph_conjunct : Ast.expr;  (** the WHERE conjunct pushed down *)
  ph_kind : [ `Eq | `Range ];
  ph_est : int option;  (** cost-model estimate; [None] = legacy planner *)
  ph_pairs : (Handle.t * Row.t) list;  (** rows the probe enumerates *)
}
(** A successful probe decision, as produced by {!probe_table} and
    consumed by the DML layer and EXPLAIN. *)

val probe_table :
  ?cache:cache ->
  access:access ->
  resolver ->
  table:string ->
  bind_name:string ->
  cols:string array ->
  Ast.expr option ->
  probe_hit option
(** Entry point for the DML layer's victim selection: probe one base
    table (bound under [bind_name] with columns [cols]) using the same
    sargable detection, cost ranking and fallback semantics as the
    FROM-list planner.  [None] means "scan instead". *)

(** {2 Evaluation} *)

val eval_select :
  ?cache:cache -> ?access:access -> ?outer:env -> resolver -> Ast.select ->
  relation
(** Evaluate a select operation: cross product of the from-list, WHERE
    filter, grouping and aggregates, HAVING, projection, DISTINCT,
    ORDER BY, LIMIT.  [outer] supplies enclosing scopes for correlated
    evaluation. *)

val eval_select_read :
  ?cache:cache -> access:access -> resolver -> Ast.select ->
  relation * Handle.t list option
(** {!eval_select} with no outer scopes, also returning the tuples the
    select retrieved (Section 5.1): when the from-list is exactly one
    base table and there is no GROUP BY or compound operator, the
    handles of the rows that passed WHERE, in handle order, taken from
    the index probe or scan that produced them.  DISTINCT, ORDER BY and
    LIMIT never shrink the set.  [None] for every other shape. *)

val eval_expr_in :
  ?cache:cache -> ?access:access -> ?outer:env -> resolver -> env -> Ast.expr ->
  Value.t
(** Evaluate an expression in the given environment (aggregates are
    rejected outside grouped queries). *)

val eval_predicate :
  ?cache:cache -> ?access:access -> ?outer:env -> resolver -> env -> Ast.expr ->
  bool
(** Evaluate a predicate and collapse three-valued logic: [true] only
    when the predicate is definitely true. *)

(** {2 EXPLAIN: access-path planning without execution}

    The planners below run exactly the decision procedure the executor
    uses — the same sargable-conjunct detection, independence analysis
    and lazy-vs-eager split — but stop short of realizing the planned
    sources or mutating anything.  Probing evaluates the sargable
    conjunct's value side (possibly an uncorrelated subquery), so
    planning reads — but never writes — the database.  Plans cover the
    top-level FROM sources of each select core and the victim table of
    DELETE/UPDATE; tables touched only inside predicate subqueries are
    not enumerated. *)

type access_path =
  | Seq_scan of { table : string; rows : int option }
      (** full scan; [rows] is the table's current cardinality *)
  | Index_probe of {
      table : string;
      index : string option;  (** probing index's name, when known *)
      column : string;  (** the indexed column *)
      conjunct : string;  (** rendered sargable conjunct *)
      est : int option;  (** cost-model estimated rows; [None] = legacy *)
      matches : int;  (** handles the probe returned *)
      rows : int option;  (** table cardinality, for selectivity *)
    }
  | Range_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int option;
      matches : int;
      rows : int option;
    }  (** like [Index_probe] but over an ordered index's key range *)
  | Materialized of { source : string; rows : int }
      (** eagerly realized source: derived table, transition table, or
          a table the access hooks don't cover *)

type join_plan = { jp_with : string; jp_conjunct : string }
(** The source is hash-joined to earlier binding [jp_with] on the
    rendered equi-join conjunct [jp_conjunct] (one build per
    execution, one probe per partial row). *)

type source_plan = {
  sp_binding : string;
  sp_path : access_path;
  sp_join : join_plan option;
}

val probed_path : access -> table:string -> probe_hit -> access_path
(** Render a probe decision as a plan node — [Index_probe] or
    [Range_probe] by the hit's kind, with the same index name,
    cardinality and estimate fields both planners report.  Shared with
    {!Compile} so the two EXPLAIN paths cannot drift. *)

val plan_select :
  ?cache:cache -> access:access -> resolver -> Ast.select -> source_plan list
(** One plan per FROM source of each select core (compound arms
    included), in from-list order. *)

val plan_op :
  ?cache:cache -> access:access -> resolver -> Ast.op -> source_plan list
(** Plan any DML operation: selects and INSERT ... SELECT plan their
    select; INSERT ... VALUES accesses no table; DELETE/UPDATE plan
    their victim selection. *)

val describe_access_path : access_path -> string
val describe_source_plan : source_plan -> string
(** One-line rendering, e.g.
    ["emp: index probe of emp via emp_no_ix on emp_no, conjunct (emp_no = 2): 1 of 3 rows"]. *)

(** {2 Shared semantics}

    Pieces of the interpreter reused verbatim by the compiling
    evaluator ({!Compile}), exported so the two paths cannot drift:
    three-valued-logic plumbing, IN semantics, ORDER BY comparison, the
    sargability analysis, and the grouped-query / projection-name
    classification. *)

val truth_value : Value.truth -> Value.t
val value_truth : Value.t -> Value.truth
(** Raises a type error on non-boolean predicate values. *)

val in_semantics : Value.t -> Value.t list -> Value.t
(** SQL IN: TRUE if some element equals, UNKNOWN if none equals but
    some comparison was unknown, FALSE otherwise. *)

val sort_by_keys :
  ((Value.t * [ `Asc | `Desc ]) list * 'a) list ->
  ((Value.t * [ `Asc | `Desc ]) list * 'a) list
(** Stable sort of values tagged with ORDER BY keys. *)

val conjuncts : Ast.expr -> Ast.expr list
(** Top-level AND conjuncts of a predicate. *)

val independence :
  target:(string * string array) list ->
  cols_of:(string -> string array option) ->
  (Ast.expr -> bool) * (Ast.select -> bool)
(** The conservative may-it-reference-the-target-frame test used by the
    access-path planner; see the implementation comment. *)

val select_contains_agg : Ast.select -> bool
(** Is the select grouped (GROUP BY present, or aggregates in the
    projections or HAVING)? *)

val default_proj_name : Ast.expr -> string
(** Output column name of an unaliased projection. *)
