(** A database state: a catalog of tables.

    States are persistent values.  The engine keeps the current state
    in a reference and passes old states around freely — pre-transition
    states for transition tables, and the transaction start state for
    rollback — exactly as the paper's semantics requires. *)

type t

val empty : t

val create_table : t -> Schema.table -> t
(** Raises [Duplicate_table] if a table of that name exists. *)

val drop_table : t -> string -> t
val has_table : t -> string -> bool

val table : t -> string -> Table.t
(** Raises [Unknown_table] if absent. *)

val schema : t -> string -> Schema.table
val table_names : t -> string list
val replace_table : t -> Table.t -> t

val insert : t -> string -> Row.t -> t * Handle.t
(** Validate/coerce the row against the schema, mint a fresh handle,
    and store the tuple.  Returns the new state and the handle. *)

val delete : t -> Handle.t -> t
val update : t -> Handle.t -> Row.t -> t

val find_row : t -> Handle.t -> Row.t option
(** Look a tuple up in this state — works for current values and for
    values in retained pre-transition states. *)

val get_row : t -> Handle.t -> Row.t
(** Like {!find_row} but raises when absent. *)

(** {2 Secondary indexes}

    Index names are unique across the whole database, so [drop_index]
    needs only the name.  Indexes are part of the persistent table
    values: states retained for transition tables and rollback carry
    their own consistent indexes. *)

val create_index :
  t -> ix_name:string -> table:string -> column:string -> kind:Index.kind -> t
(** Raises [Semantic_error] if the name is taken anywhere in the
    database, [Unknown_table]/[Unknown_column] for bad targets. *)

val drop_index : t -> string -> t
(** Raises [Semantic_error] if no table has an index of that name. *)

val total_rows : t -> int
val pp : Format.formatter -> t -> unit
