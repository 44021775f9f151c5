(** External-procedure actions (paper Section 5.2).

    A rule action may be [call p] where [p] is an OCaml procedure
    registered with the engine.  The procedure receives a read-only
    view of the current state and the triggering rule's transition
    tables, and returns the operation block whose execution is the
    action's effect on the database — the paper's framing: "the effect
    on the database of executing an external procedure still
    corresponds to a sequence of data manipulation operations". *)

module Ast = Sqlf.Ast
module Eval = Sqlf.Eval

type context = {
  query : Ast.select -> Eval.relation;
      (** Evaluate a select against the current state; it may reference
          the triggering rule's transition tables.  The engine plans it
          as it plans a statement, so it uses the configured evaluator
          and the tables' indexes. *)
  rule_name : string;  (** The rule whose action is running. *)
}

type procedure = context -> Ast.op_block

type registry

val create : unit -> registry
val register : registry -> string -> procedure -> unit
val find : registry -> string -> procedure
(** Raises [Unknown_procedure] if absent. *)
