(** Transition effects (paper Section 2.2) with the old values of
    Figure 1's transition information (Section 4.3).

    The effect of a transition is the triple [I, D, U]: handles of
    inserted tuples, handles of deleted tuples, and (handle, column)
    pairs of updated tuples.  A handle appears in at most one of the
    three components.  The optional [S] component is the Section 5.1
    extension recording retrieved (handle, column) pairs.

    Each deleted or updated handle also carries the tuple's value at
    the start of the transition — Figure 1's (h, c, v) triples, which
    [get-old-value] reads — so the [deleted] and [old updated]
    transition tables need no earlier database state.  The values come
    from the affected sets data manipulation already returns.

    An effect is keyed by table: every handle belongs to one table, so
    each table's components ({!part}) are held apart and the table-level
    questions — which tables an effect touches ({!tables}), its
    restriction to some tables ({!restrict}), whether it triggers a
    basic transition predicate ({!satisfies_pred}) — cost O(tables
    touched), not O(handles).  A table's [S] is the list of reads the
    selects made, each a column set with the handles read, as
    {!Dml.affected} reports them: duplicates across and within reads
    are merged ({!selected}) only where [S] is read tuple by tuple —
    the [selected] transition table, {!cardinality}, {!equal} and
    {!pp}.

    {!compose} implements Definition 2.1, table by table:
    {v
      I = (I1 ∪ I2) − D2
      D = (D1 ∪ D2) − I1
      U = (U1 ∪ U2) − (D2 ∪ I1)    (dropping pairs by handle)
    v}
    keeping the first-recorded old value of a handle updated in the
    first transition (Figure 1's [modify-trans-info]).  It is
    associative, so the effect of an operation block is the composition
    of its operations' effects in order. *)

open Relational
module Ast = Sqlf.Ast
module Dml = Sqlf.Dml
module Col_set : Set.S with type elt = string
module Col_map : Map.S with type key = string

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

(** One table's components.  A part held by an effect is never empty. *)
type part = private {
  ins : Handle.Set.t;
  del : Row.t Handle.Map.t;  (** with the deleted values *)
  upd : upd_entry Handle.Map.t;
  updated : int Col_map.t;
      (** per column, how many entries of [upd] name it: the union of
          their column sets, kept exact as entries are removed *)
  sel : (Col_set.t * Handle.t list) list;
      (** Section 5.1 extension: the reads, latest first, each with the
          columns referenced and the handles read (never none);
          a handle may occur in several reads *)
}

type t

val empty : t
val is_empty : t -> bool

val of_affected : Dml.affected -> t
(** The effect of a single operation, from its affected set
    (Section 2.1), old rows included.  Each read of a select names
    tuples of one base table, as data manipulation reports them; the
    read is filed under the table of its first handle. *)

val compose : t -> t -> t
(** Definition 2.1.  The [S] component composes by union minus handles
    deleted by the second transition or inserted by the first — one of
    the compositions the paper leaves open; see DESIGN.md.  Reads are
    filtered handle by handle only in a table the second transition
    deletes from or the first inserts into. *)

val find : t -> string -> part option
(** The components of one table; [None] if the effect does not touch
    it. *)

val fold : (string -> part -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the tables the effect touches, in name order. *)

val selected : part -> Col_set.t Handle.Map.t
(** A table's [S] merged handle by handle: each retrieved handle with
    the union of the columns its reads referenced. *)

val tables : t -> Col_set.t
(** The tables the effect touches. *)

val restrict : t -> (string -> bool) -> t
(** [restrict e keep] keeps the tables satisfying [keep]: the Section
    4.3 optimization of saving, per rule, only the information relevant
    to it.  Composition works table by table, so restriction commutes
    with {!compose} (property-tested). *)

val satisfies_pred : t -> Ast.basic_trans_pred -> bool
(** Triggering test for one basic transition predicate (Section 3). *)

val satisfies_any : t -> Ast.basic_trans_pred list -> bool
(** A rule's transition predicate is the disjunction of its basic
    predicates; false for the empty list. *)

val well_formed : t -> bool
(** The Section 2.2 invariant — a handle appears in at most one of
    [I], [D], [U] — and the layout's own: every handle is filed under
    its table, no part or read is empty, and [updated] counts [upd]'s
    columns.  Exposed for property-based tests. *)

val equal : t -> t -> bool
(** Every component, old rows included; [S] as merged by
    {!selected}. *)

val cardinality : t -> int
(** Number of tuples mentioned in [I], [D], [U] and — when select
    tracking is on — [S], so sizes reported in traces and statistics
    count retrievals as well as writes. *)

val pp : Format.formatter -> t -> unit
(** [[I={..}; D={..}; U={..}]], with [; S={..}] before the bracket when
    [S] is non-empty, every component in handle order across tables.
    Old rows are not printed. *)
