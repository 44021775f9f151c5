(** Production-rule catalog entries.

    A rule wraps its definition (paper Section 3 syntax) with
    engine bookkeeping: creation sequence (the deterministic selection
    tie-breaker) and activation state.  Construction validates the
    Section 3 syntactic restriction that conditions and actions may
    only reference transition tables corresponding to the rule's basic
    transition predicates. *)

module Ast = Sqlf.Ast

type condition = Sqlf.Eval.access -> Sqlf.Eval.resolver -> bool
(** A planned condition: evaluate it under the given access hooks and
    transition-table resolver. *)

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
  plans : plans;
}

val validate_transition_references : Ast.rule_def -> unit
(** Raises [Invalid_transition_reference] if the condition or action
    references a transition table not licensed by the rule's transition
    predicates. *)

val create : seq:int -> Ast.rule_def -> t
(** Validates the definition; raises on an empty transition-predicate
    list or an illegal transition-table reference. *)

val trans_preds : t -> Ast.basic_trans_pred list

val relevant_tables : t -> string list
(** The tables of the rule's basic transition predicates — the only
    tables its transition information can ever mention (Section 3's
    restriction), enabling the Section 4.3 pruning optimization. *)

val relevant : t -> string -> bool
val condition : t -> Ast.expr option
val action : t -> Ast.action
val is_rollback : t -> bool
val pp : Format.formatter -> t -> unit
