(** A secondary index: an access path from the values of one column to
    the set of handles of rows holding that value.  [`Hash] indexes
    answer equality probes; [`Ordered] indexes additionally answer
    range probes under [Value.compare_total] ordering.

    The representation is persistent and lives inside the table value
    it indexes, so snapshotting a table (or a whole database state)
    snapshots its indexes too — probes against retained pre-transition
    states see exactly the rows of those states.

    NULL is never indexed: SQL comparison against NULL is never TRUE,
    so probing for NULL (or with a NULL range bound) finds nothing and
    rows with a NULL key are only reachable by scan. *)

type t

type kind = [ `Hash | `Ordered ]

val create : name:string -> column:string -> pos:int -> kind:kind -> t
(** An empty index named [name] over the column at schema position
    [pos]. *)

val name : t -> string
val column : t -> string
val pos : t -> int
val kind : t -> kind

val kind_name : kind -> string
(** ["hash"] or ["ordered"]. *)

val add : t -> Value.t -> Handle.t -> t
(** Register a row's column value.  Adding NULL is a no-op. *)

val remove : t -> Value.t -> Handle.t -> t
(** Unregister a row's column value.  Removing NULL or an absent
    binding is a no-op. *)

type bound = Value.t * bool
(** A range endpoint: the key value and whether it is inclusive. *)

type keys = [ `Keys of Value.t list | `Range of bound option * bound option ]
(** What a probe reads: the rows holding one of the keys, or those
    whose key falls within the bounds (missing bound = unbounded on
    that side).  A NULL key or bound selects nothing, as SQL
    comparison against NULL is never TRUE. *)

val gather : t -> keys -> budget:int -> Handle.t list option
(** The handles of the rows [keys] selects, in descending handle order,
    gathered in one pass — or [None] once the gather has spent more
    than [budget], which it then abandons: each handle held costs one
    and each key looked up at least one, so a key list longer than
    [budget] is refused before any lookup.  Callers must gate key and
    bound values with [compatible]. *)

val like_prefix : string -> (string * string option) option
(** [like_prefix pat] is the literal prefix of LIKE pattern [pat]
    (characters before the first ['%'] or ['_']) together with the
    exclusive upper bound of the key range covering every possible
    match ([None] = unbounded).  [None] overall when the pattern has no
    literal prefix, in which case the range would be the whole index. *)

val cardinality : t -> int
(** Number of distinct (non-null) keys, maintained incrementally — O(1). *)

val equal : t -> t -> bool
(** Same name, column position, kind and key-to-handles entries. *)

val compatible : Schema.col_type -> Value.t -> bool
(** May a value be used as a probe key against a column of this type?
    False for cross-kind pairs (e.g. a string against an int column)
    whose scan-path comparison would raise a type error — the caller
    must fall back to the scan so the error is reported faithfully. *)

val pp : Format.formatter -> t -> unit
