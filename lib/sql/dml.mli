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
    partial effects. *)

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

val exec_op :
  ?track_selects:bool ->
  ?optimize:bool ->
  ?access:Eval.access ->
  Eval.resolver ->
  Database.t ->
  Ast.op ->
  op_result
(** Execute one operation.  [track_selects] (default [false]) computes
    the Section 5.1 read set for select operations.  When the FROM list
    is exactly one base table and there is no GROUP BY (or compound
    operator) it is precise: the tuples the executor's index probe or
    scan produced that passed WHERE, whatever DISTINCT, ORDER BY and
    LIMIT then keep.  Otherwise it is conservative: every tuple of each
    base table in a top-level FROM list.  A tracked select without
    [access] reads through hooks serving [db] itself.
    [optimize] (default [true]) enables uncorrelated-subquery caching
    for the operation.  [access] installs access-path hooks so
    sargable predicates over indexed columns are satisfied by index
    probes instead of scans.

    When {!Compile.enabled} is set (the default) the operation's
    expressions are lowered to positional closures and run; otherwise
    the tree-walking interpreter executes it.  Results, affected sets
    and error diagnostics are identical either way (asserted by the
    differential test harness). *)

(** {2 Compiled operations}

    The rules engine caches each rule's action block in compiled form
    (keyed on a DDL generation counter) so cascades re-enter closures
    instead of re-walking the AST. *)

type cop
(** A compiled operation.  Valid for the catalog it was compiled
    against: any DDL invalidates it. *)

val compile_op : Database.t -> Ast.op -> cop
(** Total: an operation the compiler cannot resolve against the
    catalog compiles to a fallback that runs interpreted, reproducing
    the interpreter's error exactly. *)

val exec_cop :
  ?track_selects:bool ->
  ?optimize:bool ->
  ?access:Eval.access ->
  ?params:Value.t array ->
  Eval.resolver ->
  Database.t ->
  cop ->
  op_result
(** Run a compiled operation against a (possibly different) database
    state with the same catalog.  Hits the same [Dml_op] fault site as
    {!exec_op}.  [params] is the EXECUTE parameter frame: compiled
    [Param] closures read it positionally; the interpreter fallback
    substitutes the values into the AST instead. *)
