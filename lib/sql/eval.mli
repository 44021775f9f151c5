(** The evaluator's shared pieces: relations and resolvers, the
    access-path planner and cost model, the FROM-list analysis and join
    tables, SQL's three-valued logic and IN semantics, and the plan
    types EXPLAIN renders.  {!Compile} lowers statements to closures
    over these; it is the one evaluator.

    A compiled plan reads base tables in place, from the database state
    it runs on, by scan or index probe.  Derived tables and the paper's
    transition tables are {!relation}s — named column lists plus rows;
    a {!resolver} maps a transition-table reference to its relation,
    and the rules engine supplies one built from the triggering rule's
    transition information.

    Three-valued logic: predicates evaluate to [Bool _] or [Null]
    (unknown); a row is selected only when the predicate is definitely
    true. *)

open Relational

type relation = { rel_name : string; cols : string array; rows : Row.t list }

type resolver = Ast.trans_table -> relation

val no_transitions : resolver
(** The resolver outside rule processing: referencing a transition
    table raises [Invalid_transition_reference]. *)

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
(** A memoized uncorrelated-subquery result (what {!Compile}'s memo
    slots hold), with the IN value set built from it on first use. *)

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

(** {2 Access paths}

    A base table in a from-list is read lazily: a sargable
    equality/IN/range conjunct of the WHERE clause over an indexed
    column is satisfied by an index probe instead of a scan.  A probe
    returns matching rows in handle (insertion) order — an
    order-preserving subsequence of the scan — and the full predicate
    is still applied afterwards, so results are identical either way. *)

type read_decision =
  [ `Seq_scan | `Index_probe | `Range_probe | `Hash_join_build | `Hash_join_probe ]
(** A read decision of the executor: one per base-table access for
    scans and probes, one per hash-join build and one per probe into a
    built join table or per index nested-loop probe. *)

type note = read_decision -> string -> unit
(** The callback a plan runs with, hearing each of its read decisions
    and the base table a scan or probe reads ([""] for the hash-join
    events, whose build side was heard when it was read). *)

val no_note : note
(** Hears nothing. *)

(** {2 Cost model} *)

type probe_shape = Shape_eq of int option | Shape_range | Shape_prefix
(** The statically-known shape of a sargable conjunct: an equality/IN
    probe with the given key count ([None] = IN (select ...), ranked as
    two keys), a range, or a LIKE prefix range.  It only ranks the
    candidates: what a probe may read is checked while it gathers
    ({!abandoned}). *)

type probe_hit = {
  ph_column : string;  (** indexed column satisfying the probe *)
  ph_conjunct : Ast.expr;  (** the WHERE conjunct pushed down *)
  ph_kind : [ `Eq | `Range ];
  ph_est : int;  (** the cost-model estimate that ranked it *)
  ph_pairs : (Handle.t * Row.t) list;  (** rows the probe enumerates *)
}
(** A successful probe decision, as produced by {!probe_candidates} and
    consumed by the executor and EXPLAIN. *)

type abandoned = {
  ab_kind : [ `Eq | `Range ];  (** an equality/IN or a range probe *)
  ab_index : string option;  (** the index the probe read *)
  ab_budget : int;  (** the most it could spend *)
}
(** A probe given up during its gather because it would read more than
    probing is worth.  Over [n] rows an index read may spend
    [max 1 (n / max 4 (log2 n))]: each handle gathered costs one, since
    each hit costs a lookup of [log2 n] levels in the row map, and each
    key probed at least one, since probing one key costs at least as
    much as scanning four rows.  A key list longer than that is refused
    before any lookup. *)

type probe_outcome =
  | Probed of probe_hit
  | Scan of abandoned option  (** the first probe abandoned, if any *)
(** The planner's decision for one base table: probe or scan. *)

type ('e, 's) probe_values =
  | Pv_exprs of 'e list  (** [col = e], [col IN (e, ...)] *)
  | Pv_select of 's  (** [col IN (select ...)] *)
  | Pv_bounds of ('e * bool) option * ('e * bool) option
      (** range bounds (value, inclusive?) *)
  | Pv_like of 'e  (** the pattern of [col LIKE p] *)

type ('e, 's) sargable = {
  sg_conjunct : Ast.expr;
  sg_column : string;
  sg_shape : probe_shape;
  sg_values : ('e, 's) probe_values;
}
(** A sargable WHERE conjunct for one FROM source: the conjunct, the
    column it constrains, its static shape and its value side — an
    AST as found, closures once {!Compile} has compiled it. *)

val sargable_candidates :
  frame:(string * string array) list ->
  target:string ->
  cols_of:(string -> string array option) ->
  Ast.expr ->
  (Ast.expr, Ast.select) sargable list
(** The access-path planner's static candidate scan: the conjuncts of
    the predicate over a column attributing uniquely to the source
    bound as [target] in [frame] whose value side provably cannot
    reference the frame, in conjunct order.  [cols_of] names a base
    table's columns. *)

val probe_candidates :
  Table.t ->
  eval:('e -> Value.t) ->
  eval_set:('s -> Value.t list) ->
  ('e, 's) sargable list ->
  probe_outcome
(** Rank the candidates by estimated cost and try them cheapest first,
    evaluating their values with [eval] / [eval_set]: a value
    evaluation error, an unusable index or a probe spending more than
    its budget ({!abandoned}) moves on to the next one, and [Scan]
    means "scan instead".  Without a usable index nothing is probed. *)

(** {2 EXPLAIN plans}

    What the executor decided for each source it reads.
    {!Compile.plan_select} produces them by a plan-only run of a
    compiled select (a DELETE's or UPDATE's victim selection is one),
    so they are the executor's own decisions.  Probing evaluates the
    sargable conjunct's value side (possibly an uncorrelated subquery),
    so planning reads — but never writes — the database.  Plans cover
    the top-level FROM sources of each select core and the victim table
    of DELETE/UPDATE; tables touched only inside predicate subqueries
    are not enumerated. *)

type access_path =
  | Seq_scan of { table : string; rows : int option; abandoned : abandoned option }
      (** full scan; [rows] is the table's current cardinality,
          [abandoned] the probe given up for it *)
  | Index_probe of {
      table : string;
      index : string option;  (** probing index's name, when known *)
      column : string;  (** the indexed column *)
      conjunct : string;  (** rendered sargable conjunct *)
      est : int;  (** cost-model estimated rows *)
      matches : int;  (** handles the probe returned *)
      rows : int option;  (** table cardinality, for selectivity *)
    }
  | Range_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int;
      matches : int;
      rows : int option;
    }  (** like [Index_probe] but over an ordered index's key range *)
  | Index_join_probes of { table : string; probes : int; est : int; rows : int option }
      (** the inner table of an index nested-loop join: one index probe
          per partial frame ([probes] of them), [est] rows estimated *)
  | Materialized of { source : string; rows : int }
      (** eagerly realized source: a derived or transition table *)

type join_method =
  | Hash_join  (** one build per execution, one probe per partial frame *)
  | Index_nested_loop of { index : string option }
      (** one probe of the named index per partial frame *)

type join_plan = { jp_with : string; jp_conjunct : string; jp_method : join_method }
(** The source is joined to earlier binding [jp_with] on the rendered
    equi-join conjunct [jp_conjunct], by [jp_method]. *)

type source_plan = {
  sp_binding : string;
  sp_path : access_path;
  sp_join : join_plan option;
  sp_tests : string list;
      (** the rendered WHERE conjuncts tested on this source's stored
          rows before they are bound or hashed; EXPLAIN does not print
          them *)
}

val probed_path : Table.t -> probe_hit -> access_path
(** A probe decision over the table as a plan node: [Index_probe] or
    [Range_probe] by the hit's kind. *)

val describe_source_plan : source_plan -> string
(** One-line rendering, e.g.
    ["emp: index probe of emp via emp_no_ix on emp_no, conjunct (emp_no = 2): 1 of 3 rows"]
    or ["i: 2 index probes of item (est ~2 of 16 rows), index nested-loop
    join with l on (l.iid = i.iid) via item_iid"]. *)

(** {2 Shared semantics}

    Three-valued-logic plumbing, IN semantics, ORDER BY comparison, the
    FROM-list analysis and join, and the grouped-query /
    projection-name classification. *)

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

(** {3 Select steps} *)

val dedupe_rows : Row.t list -> Row.t list
(** DISTINCT: the first occurrence of each row, in order. *)

val take_limit : int option -> 'a list -> 'a list
(** LIMIT: at most that many leading elements. *)

val combine_compound :
  head:relation -> Row.t list -> Ast.compound_op -> relation -> Row.t list
(** One step of a compound select: the rows combined so far with the
    next arm's result, whose arity must match [head]'s.  UNION ALL
    keeps duplicates; UNION, EXCEPT and INTERSECT have set semantics. *)

val col_index : string array -> string -> int option
(** Position of the first column of that name. *)

type join_link = {
  jl_with : int;  (** position of the earlier source joined to *)
  jl_with_col : int;  (** its join column *)
  jl_col : int;  (** this source's join column *)
  jl_conjunct : Ast.expr;  (** the linking [col = col] conjunct *)
}

val from_links :
  (string * string array) list ->
  Ast.expr option ->
  (join_link option list, Errors.t) result
(** The static analysis of a FROM list, given each source's (binding
    name, columns) in FROM order and the WHERE clause: the error for a
    binding name used twice, or else each source's equi-join link — the
    first conjunct [a = b] whose column references attribute to exactly
    one local source each, this one and an earlier one.  A linked source
    is joined by hash or index nested-loop join ({!index_join}), a
    source without a link by nested loop. *)

module Row_tbl : Hashtbl.S with type key = Row.t
(** Rows hashed consistently with [Row.compare_total] (an Int equals
    the Float of the same value), e.g. GROUP BY keys. *)

type join_table
(** The build side of a hash join: rows bucketed by one column's key,
    each bucket in scan order. *)

val build_join_table : size:int -> int -> ((Row.t -> unit) -> unit) -> join_table
(** [build_join_table ~size col iter] hashes the [size] rows [iter]
    enumerates on their key at [col]. *)

val join_matches : join_table -> Value.t -> Row.t list
(** The rows whose key equals the value under [Value.compare_total]. *)

val index_join : Table.t -> column:string -> partials:int -> int option
(** The join method of a base table linked to an earlier FROM source,
    from the number of partial frames it extends: [Some est] = an index
    nested-loop join probing the index over [column] once per partial
    frame, when those probes' estimated rows [partials * n / distinct]
    and their key count are within the table's probe budget
    ({!abandoned}); [None] = a hash join (no index, or probing would
    cost more than the scan). *)

val index_join_rows : Table.t -> column:string -> Value.t -> (Handle.t * Row.t) list
(** One index nested-loop probe: the rows whose [column] equals the
    key, in handle order.  A NULL or type-incompatible key matches
    nothing; the hash table may pair NULL keys, which the link conjunct
    in WHERE then rejects, so both joins give the same rows. *)

val select_contains_agg : Ast.select -> bool
(** Is the select grouped (GROUP BY present, or aggregates in the
    projections or HAVING)? *)

val default_proj_name : Ast.expr -> string
(** Output column name of an unaliased projection. *)
