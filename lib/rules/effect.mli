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

    {!compose} implements Definition 2.1:
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

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

type t = {
  ins : Handle.Set.t;
  del : Row.t Handle.Map.t;  (** with the deleted values *)
  upd : upd_entry Handle.Map.t;
  sel : Col_set.t Handle.Map.t;  (** Section 5.1 extension *)
}

val empty : t
val is_empty : t -> bool

val of_affected : Dml.affected -> t
(** The effect of a single operation, from its affected set
    (Section 2.1), old rows included. *)

val compose : t -> t -> t
(** Definition 2.1.  The [S] component composes by union minus handles
    deleted by the second transition or inserted by the first — one of
    the compositions the paper leaves open; see DESIGN.md. *)

val tables : t -> Col_set.t
(** The tables the effect touches; computed once per transition so the
    engine can skip rules whose predicates mention none of them. *)

val restrict : t -> (string -> bool) -> t
(** [restrict e keep] drops every component entry whose handle's table
    fails [keep]: the Section 4.3 optimization of saving, per rule,
    only the information relevant to it.  Every component keys on
    handles, so restriction commutes with {!compose}
    (property-tested). *)

val satisfies_pred : t -> Ast.basic_trans_pred -> bool
(** Triggering test for one basic transition predicate (Section 3). *)

val satisfies_any : t -> Ast.basic_trans_pred list -> bool
(** A rule's transition predicate is the disjunction of its basic
    predicates; false for the empty list. *)

val well_formed : t -> bool
(** The Section 2.2 invariant: a handle appears in at most one of
    [I], [D], [U].  Exposed for property-based tests. *)

val equal : t -> t -> bool
(** Every component, old rows included. *)

val cardinality : t -> int
(** Number of tuples mentioned in [I], [D], [U] and — when select
    tracking is on — [S], so sizes reported in traces and statistics
    count retrievals as well as writes. *)

val pp : Format.formatter -> t -> unit
(** [[I={..}; D={..}; U={..}]], with [; S={..}] before the bracket when
    [S] is non-empty.  Old rows are not printed. *)
