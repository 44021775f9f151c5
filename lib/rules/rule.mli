(** Production-rule catalog entries.

    A rule wraps its definition (paper Section 3 syntax) with
    engine bookkeeping: creation sequence (the deterministic selection
    tie-breaker) and activation state.  Construction validates the
    Section 3 syntactic restriction that conditions and actions may
    only reference transition tables corresponding to the rule's basic
    transition predicates. *)

module Ast = Sqlf.Ast

type condition =
  db:Relational.Database.t ->
  note:Sqlf.Eval.note ->
  Sqlf.Eval.resolver ->
  bool
(** A planned condition: evaluate it over the database state, with
    [note] hearing every scan, probe and hash-join decision and the
    resolver serving the transition tables. *)

(** Cached plans of the condition and action block, each keyed by the
    engine's catalog generation; the engine fills and invalidates
    these.  Mutable and shared by copies of the rule value, so the
    cache survives activation toggles. *)
type plans = {
  mutable cond_plan : (int * condition) option;
  mutable action_plan : (int * Sqlf.Dml.cop list) option;
}

type t = {
  name : string;
  def : Ast.rule_def;
  seq : int;  (** creation order; the default selection order *)
  mutable active : bool;
      (** mutable so activation toggles update the shared catalog entry
          in place *)
  tables : string list;
      (** The tables of the basic transition predicates, computed once
          by {!create} — the only tables the rule's transition
          information can ever mention (Section 3's restriction),
          enabling the Section 4.3 pruning optimization. *)
  plans : plans;
}

val create : seq:int -> Ast.rule_def -> t
(** Validates the definition; raises on an empty transition-predicate
    list or an illegal transition-table reference. *)

val trans_preds : t -> Ast.basic_trans_pred list

val relevant : t -> string -> bool
(** [relevant r table]: [table] is one of [r.tables]. *)

val condition : t -> Ast.expr option
val action : t -> Ast.action
val is_rollback : t -> bool
val pp : Format.formatter -> t -> unit
