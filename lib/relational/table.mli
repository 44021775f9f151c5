(** A stored table: a schema plus a multiset of rows keyed by tuple
    handle.

    The representation is persistent: every mutation returns a new
    table sharing structure with the old one.  Snapshotting a table —
    and hence a whole database state — is O(1), which is what makes the
    paper's pre-transition states and rollback cheap to support
    faithfully.  Duplicate rows may appear, each under its own
    handle.

    Secondary indexes live inside the table value and are maintained
    incrementally by [insert]/[delete]/[update], so every snapshot
    carries consistent indexes: probing a retained pre-transition state
    sees exactly the rows of that state. *)

type t

val create : Schema.table -> t
val schema : t -> Schema.table

val col_names : t -> string array
(** The schema's column names, computed once at table creation and
    shared by every snapshot of the table — callers must not mutate the
    array.  Resolvers bind scan rows under this array on every access,
    so it is cached rather than rebuilt per call. *)

val name : t -> string
val cardinality : t -> int
val is_empty : t -> bool

val insert : t -> Handle.t -> Row.t -> t
(** [insert t h row] stores [row] under [h].  The handle must be fresh
    and belong to this table; the row must already be coerced against
    the schema. *)

val mem : t -> Handle.t -> bool
val find : t -> Handle.t -> Row.t option
val get : t -> Handle.t -> Row.t
(** Raises if the tuple is not present in this state. *)

val delete : t -> Handle.t -> t
val update : t -> Handle.t -> Row.t -> t

val fold : (Handle.t -> Row.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Enumeration is in handle (= insertion) order, keeping scans and
    query results deterministic. *)

val iter : (Handle.t -> Row.t -> unit) -> t -> unit
val to_list : t -> (Handle.t * Row.t) list
val rows : t -> Row.t list

(** {2 Secondary indexes} *)

val create_index : t -> ix_name:string -> column:string -> kind:Index.kind -> t
(** Build an index of the given kind over an existing column, indexing
    all current rows.  Raises [Semantic_error] if an index of that name
    already exists on this table, or [Unknown_column] for a bad
    column. *)

val drop_index : t -> string -> t
(** Raises [Semantic_error] if this table has no index of that name. *)

val has_index : t -> string -> bool

val index_list : t -> Index.t list
(** All indexes on this table, in name order. *)

val index_on_column : t -> string -> Index.t option
(** Any index whose key is the given column. *)

val ordered_index_on_column : t -> string -> Index.t option
(** Any [`Ordered] index whose key is the given column. *)

val probe :
  t ->
  column:string ->
  budget:int ->
  Index.keys ->
  [ `Rows of (Handle.t * Row.t) list | `Over_budget ] option
(** [probe t ~column ~budget keys] returns the rows [keys] selects:
    those whose [column] equals one of the keys, through any index over
    [column], or falls within the bounds, through an ordered one.
    [None] when no such index exists or some key or bound value is
    type-incompatible with the column (so the caller falls back to a
    scan and any type error surfaces there).  The gather gives up as
    soon as it has spent more than [budget] — one per handle held, at
    least one per key looked up ({!Index.gather}) — with
    [`Over_budget], and the caller scans instead.  NULL keys and bounds
    select nothing.  Results are in handle (= insertion) order: a probe
    result is an order-preserving subsequence of the scan. *)

(** {2 Statistics}

    Row counts and per-index distinct-key counts are maintained
    incrementally by the mutation operations, so reading them is cheap
    at any snapshot — this is what the cost-based planner consults. *)

val column_stats : t -> string -> (int * bool) option
(** [column_stats t column] is [Some (distinct, ordered)] when an index
    covers [column]: the number of distinct non-null keys and whether
    range probes are available (an ordered index exists).  [None] for
    unindexed columns. *)

val pp : Format.formatter -> t -> unit
