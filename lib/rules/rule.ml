(* Production rule catalog entries.

   A rule wraps its definition (Section 3 syntax) with bookkeeping used
   by the engine: creation sequence (the deterministic tie-breaker for
   rule selection), activation state, and validation of the Section 3
   syntactic restriction that conditions and actions may only reference
   transition tables corresponding to the rule's basic transition
   predicates. *)

open Relational
module Ast = Sqlf.Ast
module Pretty = Sqlf.Pretty

(* A planned condition: evaluate over this database state, telling
   [note] every read decision, with this transition-table resolver. *)
type condition = db:Database.t -> note:Sqlf.Eval.note -> Sqlf.Eval.resolver -> bool

(* Plans of the rule's condition and action block, cached so repeated
   firings (cascades especially) re-enter them instead of re-planning.
   A plan is valid only for the catalog it was built against, so each
   entry carries the engine's DDL generation; the engine re-plans on
   mismatch.
   The subrecord is mutable and shared structurally by any copies of
   the rule value, so the cache survives deactivate/activate cycles. *)
type plans = {
  mutable cond_plan : (int * condition) option;
  mutable action_plan : (int * Sqlf.Dml.cop list) option;
}

type t = {
  name : string;
  def : Ast.rule_def;
  seq : int; (* creation order; also the default selection order *)
  mutable active : bool;
      (* mutable so activation toggles update the catalog entry in
         place — the engine's by-name map, creation-order list and
         discrimination index all share the same value *)
  tables : string list;
      (* the tables of the basic transition predicates ([pred_tables]),
         computed once at creation *)
  plans : plans;
}

(* Section 3: "our syntax does not enforce the restriction that a
   rule's condition may only refer to transition tables corresponding
   to its basic transition predicates.  This restriction is syntactic,
   however, therefore easily checked."  We check it at definition
   time. *)
let validate_transition_references (def : Ast.rule_def) =
  let referenced = Ast.trans_tables_of_rule def in
  List.iter
    (fun tt ->
      let licensed =
        List.exists (Ast.trans_table_matches_pred tt) def.Ast.trans_preds
      in
      if not licensed then
        Errors.raise_error
          (Errors.Invalid_transition_reference (Pretty.trans_table_str tt)))
    referenced

(* The tables a rule's transition information can ever mention: the
   tables of its basic transition predicates.  The Section 3 syntactic
   restriction guarantees its transition-table references stay within
   this set, so per-rule information may be pruned to it (the paper's
   Section 4.3 optimization remark). *)
let pred_tables (def : Ast.rule_def) =
  List.fold_left
    (fun acc pred ->
      let t =
        match pred with
        | Ast.Tp_inserted t | Ast.Tp_deleted t
        | Ast.Tp_updated (t, _) | Ast.Tp_selected (t, _) -> t
      in
      if List.exists (String.equal t) acc then acc else t :: acc)
    [] def.Ast.trans_preds

let create ~seq (def : Ast.rule_def) =
  if def.Ast.trans_preds = [] then
    Errors.semantic "rule %S has no transition predicate" def.Ast.rule_name;
  validate_transition_references def;
  {
    name = def.Ast.rule_name;
    def;
    seq;
    active = true;
    tables = pred_tables def;
    plans = { cond_plan = None; action_plan = None };
  }

let trans_preds r = r.def.Ast.trans_preds
let relevant r table = List.exists (String.equal table) r.tables
let condition r = r.def.Ast.condition
let action r = r.def.Ast.action
let is_rollback r = match r.def.Ast.action with Ast.Act_rollback -> true | _ -> false

let pp ppf r =
  Fmt.pf ppf "%s%s" (Pretty.rule_def_str r.def)
    (if r.active then "" else " -- (deactivated)")
