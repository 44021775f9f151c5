(* An instance-oriented (tuple-at-a-time) trigger engine: the baseline
   the paper argues against (Section 1: "rules that are applied once
   for each data item satisfying the condition part of the rule", as in
   [Esw76, SJGP90, Coh89]).

   It accepts the same rule definitions as the set-oriented engine but
   applies each rule once per affected tuple, immediately after the
   operation producing the tuple, in row order (depth-first cascading).
   When a rule fires for a tuple, its transition tables contain exactly
   that one tuple.

   This engine exists to make the paper's efficiency claim measurable
   (benchmark E2) and to let the test suite contrast the two semantics;
   it is intentionally faithful to the per-row style, including its
   inability to express conditions over the whole set of changes (an
   aggregate over "new updated emp.salary" sees one row at a time). *)

open Relational
module Ast = Sqlf.Ast
module Compile = Sqlf.Compile
module Dml = Sqlf.Dml
module Eval = Sqlf.Eval

type config = { max_steps : int }

let default_config = { max_steps = 100_000 }

type stats = {
  mutable rule_firings : int;
  mutable conditions_evaluated : int;
}

type t = {
  mutable db : Database.t;
  mutable rules_rev : Rule.t list; (* newest first: O(1) create_rule *)
  mutable rules_fwd : Rule.t list option;
      (* memoized creation order, invalidated by create_rule, so bulk
         rule creation stays linear while firing keeps iterating rules
         in creation order *)
  mutable rule_seq : int;
  mutable txn_start : Database.t option;
  config : config;
  stats : stats;
  mutable steps : int;
}

exception Rolled_back_exc

type outcome = Committed | Rolled_back

let create ?(config = default_config) db =
  {
    db;
    rules_rev = [];
    rules_fwd = None;
    rule_seq = 0;
    txn_start = None;
    config;
    stats = { rule_firings = 0; conditions_evaluated = 0 };
    steps = 0;
  }

let database t = t.db
let stats t = t.stats

let rules t =
  match t.rules_fwd with
  | Some l -> l
  | None ->
    let l = List.rev t.rules_rev in
    t.rules_fwd <- Some l;
    l

let create_rule t def =
  t.rule_seq <- t.rule_seq + 1;
  let rule = Rule.create ~seq:t.rule_seq def in
  t.rules_rev <- rule :: t.rules_rev;
  t.rules_fwd <- None;
  rule

let create_table t schema = t.db <- Database.create_table t.db schema

(* One affected instance: the unit-granularity "transition" a row
   trigger sees. *)
type instance =
  | I_inserted of Handle.t
  | I_deleted of Handle.t * Row.t
  | I_updated of Handle.t * string list * Row.t (* old row *)

let instances_of_affected = function
  | Dml.A_insert hs -> List.map (fun h -> I_inserted h) hs
  | Dml.A_delete pairs -> List.map (fun (h, row) -> I_deleted (h, row)) pairs
  | Dml.A_update triples ->
    List.map (fun (h, cols, old) -> I_updated (h, cols, old)) triples
  | Dml.A_select _ -> []

let instance_info inst =
  Effect.of_affected
    (match inst with
    | I_inserted h -> Dml.A_insert [ h ]
    | I_deleted (h, row) -> Dml.A_delete [ (h, row) ]
    | I_updated (h, cols, old) -> Dml.A_update [ (h, cols, old) ])

(* An instance may have been overtaken by later changes (row deleted by
   a cascading trigger before its own firing); skip firings whose
   subject tuple no longer exists where it must. *)
let instance_stale db = function
  | I_inserted h | I_updated (h, _, _) -> Database.find_row db h = None
  | I_deleted _ -> false

let rec fire_for_instance t inst =
  if not (instance_stale t.db inst) then
    let info = instance_info inst in
    List.iter
      (fun rule ->
        if
          rule.Rule.active
          && Effect.satisfies_any info (Rule.trans_preds rule)
          && not (instance_stale t.db inst)
        then begin
          let resolve = Transition_tables.resolver info t.db in
          t.stats.conditions_evaluated <- t.stats.conditions_evaluated + 1;
          let cond_holds =
            match Rule.condition rule with
            | None -> true
            | Some cond ->
              Compile.run_predicate ~db:t.db resolve
                (Compile.compile_predicate t.db cond)
          in
          if cond_holds then begin
            t.steps <- t.steps + 1;
            if t.steps > t.config.max_steps then begin
              (match t.txn_start with Some db0 -> t.db <- db0 | None -> ());
              t.txn_start <- None;
              Errors.raise_error
                (Errors.Rule_limit_exceeded
                   { rule = rule.Rule.name; steps = t.steps - 1 })
            end;
            t.stats.rule_firings <- t.stats.rule_firings + 1;
            match Rule.action rule with
            | Ast.Act_rollback ->
              (match t.txn_start with
              | Some db0 -> t.db <- db0
              | None -> ());
              t.txn_start <- None;
              raise Rolled_back_exc
            | Ast.Act_call _ ->
              Errors.semantic
                "instance-oriented engine does not support call actions"
            | Ast.Act_block ops -> List.iter (exec_op_cascading t info) ops
          end
        end)
      (rules t)

(* Execute one operation and immediately (depth-first) fire row
   triggers for each affected tuple. *)
and exec_op_cascading t info op =
  let resolve = Transition_tables.resolver info t.db in
  let r = Dml.exec_cop resolve t.db (Dml.compile_op t.db op) in
  t.db <- r.Dml.db;
  List.iter (fire_for_instance t) (instances_of_affected r.Dml.affected)

let execute_block t (ops : Ast.op list) =
  t.txn_start <- Some t.db;
  t.steps <- 0;
  match
    List.iter (exec_op_cascading t Effect.empty) ops
  with
  | () ->
    t.txn_start <- None;
    Committed
  | exception Rolled_back_exc -> Rolled_back
  | exception e ->
    (match t.txn_start with Some db0 -> t.db <- db0 | None -> ());
    t.txn_start <- None;
    raise e

let query t (s : Ast.select) = Compile.eval_select Eval.no_transitions t.db s
