(** Execution of data manipulation operations with their affected sets
    (paper Section 2.1):

    - insert: the handles of the inserted tuples;
    - delete: the handles of the removed tuples together with their
      values (after execution the handles identify tuples of a previous
      database state);
    - update: one (handle, columns) entry per selected tuple with its
      old row — the affected set includes tuples whose stored value did
      not change;
    - select (Section 5.1 extension): per base table read, the columns
      the select references and the handles of the tuples it read.

    Each operation runs against a snapshot of the state at its start:
    tuples are identified first, then changed, so a subquery in a
    predicate or SET expression never observes the operation's own
    partial effects.  Base tables are read from that state in place,
    by scan or index probe; the resolver serves only transition
    tables. *)

open Relational

type affected =
  | A_insert of Handle.t list
  | A_delete of (Handle.t * Row.t) list
  | A_update of (Handle.t * string list * Row.t) list  (** old rows *)
  | A_select of (string list * Handle.t list) list
      (** per base table read: (columns referenced, tuples read) *)

type op_result = {
  db : Database.t;
  affected : affected;
  result : Eval.relation option;  (** rows produced, for select operations *)
}

(** {2 Operation plans}

    The rules engine caches each rule's action block as plans (keyed
    on a DDL generation counter) so cascades re-enter closures instead
    of re-walking the AST. *)

type cop
(** A compiled operation.  Valid for the catalog it was compiled
    against: any DDL invalidates it. *)

val compile_op : ?param_kinds:Compile.lit_kind array -> Database.t -> Ast.op -> cop
(** Total: an operation naming a table or SET column the catalog lacks
    compiles to a plan that raises the [Unknown_table] or
    [Unknown_column] error when run — an UPDATE's unknown SET column
    after its table is resolved and before any victim is selected.
    [param_kinds] is passed to {!Compile.make}. *)

val bind : cop -> Value.t array -> cop
(** The plan with its parameter frame bound: running it without
    [params] runs [cop] with [params] set to the frame. *)

val exec_cop :
  ?track_selects:bool ->
  ?note:Eval.note ->
  ?params:Value.t array ->
  Eval.resolver ->
  Database.t ->
  cop ->
  op_result
(** Run a planned operation against a (possibly different) database
    state with the same catalog; every data manipulation operation
    enters here, at the [Dml_op] fault site.  [params] is the EXECUTE
    parameter frame: compiled [Param] closures read it positionally.

    [track_selects] (default [false]) computes the Section 5.1 read set
    for select operations.  When the FROM list is exactly one base
    table and there is no GROUP BY (or compound operator) it is
    precise: the tuples the executor's index probe or scan produced
    that passed WHERE, whatever DISTINCT, ORDER BY and LIMIT then keep.
    Otherwise it is conservative: every tuple of each base table in a
    top-level FROM list of any compound arm, with the columns that arm
    references.  An uncorrelated subquery runs at most once per
    operation.  Sargable predicates over indexed columns are satisfied
    by index probes instead of scans, and [note] hears every scan,
    probe and hash-join decision (default: nothing does).  A DELETE's
    or UPDATE's victims are read as a select over the victim table is
    ({!Compile.compile_victims}); its affected set holds the table's
    own stored rows. *)

val explain :
  ?params:Value.t array ->
  Eval.resolver ->
  Database.t ->
  cop ->
  Eval.source_plan list
(** EXPLAIN: the access decisions running the plan over the database
    would take, without running it or noting them — by a plan-only run
    ({!Compile.plan_select}) of a select's FROM sources (each core of a
    compound; an INSERT ... SELECT's select; none for INSERT ...
    VALUES) or of a DELETE's or UPDATE's victim table.  Raises the
    error of a plan over an unknown victim table. *)
