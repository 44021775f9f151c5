(** Per-rule composite transition information (paper Section 4.3,
    Figure 1).

    Between transitions each rule carries the information needed to
    decide whether it is triggered and to build its transition tables:
    inserted handles (current values live in the database), deleted
    handles with their values, and updated handles with the set of
    updated columns plus the tuple's value at the rule's reference
    point.  {!init} is Figure 1's [init-trans-info], {!extend} its
    [modify-trans-info], and {!old_row_of} its [get-old-value]. *)

open Relational
module Col_set = Effect.Col_set

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

type t = {
  ins : Handle.Set.t;
  del : Row.t Handle.Map.t;
  upd : upd_entry Handle.Map.t;
  sel : Col_set.t Handle.Map.t;  (** Section 5.1 extension: read set *)
}

val empty : t
val is_empty : t -> bool

val old_row_of : t -> Database.t -> Handle.t -> Row.t
(** [old_row_of ti old_db h] is the tuple's value at the start of the
    composite transition: recorded in [ti.upd] if the tuple was updated
    earlier in the composite, otherwise its value in [old_db]. *)

val init : Effect.t -> Database.t -> t
(** [init e old_db]: transition information for a single effect [e]
    produced by a transition from state [old_db]. *)

val extend : t -> Effect.t -> Database.t -> t
(** [extend ti e old_db]: compose in the effect of a subsequent
    transition from state [old_db], netting per Definition 2.1 and
    preserving first-recorded old values. *)

val restrict : t -> (string -> bool) -> t
(** [restrict ti keep] drops every component entry whose handle's table
    fails [keep] (the {!Effect.restrict} counterpart).  Commutes with
    {!init}/{!extend}: restricting a composite equals composing
    restricted effects (property-tested).  The engine relies on this
    for every rule it wakes. *)

val to_effect : t -> Effect.t
(** The effect triple this information represents; [extend] commutes
    with {!Effect.compose} through this projection (property-tested). *)

val triggered : t -> Sqlf.Ast.basic_trans_pred list -> bool
(** [Effect.satisfies_any (to_effect ti) preds], tested on the
    components in place. *)

val pp : Format.formatter -> t -> unit
