(** Materialization of the paper's logical transition tables
    (Section 3) from a rule's composite transition effect:

    - [inserted t]: current values of inserted tuples of [t];
    - [deleted t]: previous-state values of deleted tuples of [t];
    - [old updated t[.c]] / [new updated t[.c]]: previous-state and
      current values of updated tuples (restricted to those where
      column [c] was updated, for the [.c] forms);
    - [selected t[.c]]: current values of retrieved tuples (Section 5.1
      extension).

    "Previous state" means the state at the start of the rule's
    composite transition; the effect carries those values (Figure 1's
    old values), so materialization needs only the effect and the
    current database state.  Row order is deterministic (handle order). *)

open Relational
module Ast = Sqlf.Ast
module Eval = Sqlf.Eval

val materialize :
  Effect.t -> current_db:Database.t -> Ast.trans_table -> Eval.relation

val resolver : Effect.t -> Database.t -> Eval.resolver
(** A resolver serving the transition tables of the effect over the
    current database state: with the base tables a plan reads from
    that state, the evaluation environment for a rule's condition and
    action (Section 4.1). *)
