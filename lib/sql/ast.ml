(* Abstract syntax for the dialect of the paper:

   - data manipulation operations and operation blocks (Section 2.1),
   - queries with embedded selects, aggregates and transition-table
     references (Section 3),
   - rule definition and priority statements (Sections 3 and 4.4),
   - the Section 5 extensions (select operations inside blocks,
     external-procedure actions, rule triggering points),
   - the DDL needed around them (create/drop table).  *)

open Relational

type binop = Add | Sub | Mul | Div | Mod | Concat
type cmpop = Eq | Neq | Lt | Le | Gt | Ge
type agg_fn = Count_star | Count | Sum | Avg | Min | Max

(* A reference to one of the paper's logical transition tables.  The
   [string option] is the column for the ".c" forms. *)
type trans_table =
  | Tt_inserted of string
  | Tt_deleted of string
  | Tt_old_updated of string * string option
  | Tt_new_updated of string * string option
  | Tt_selected of string * string option (* Section 5.1 extension *)

type expr =
  | Lit of Value.t
  | Param of int (* positional '?' parameter, 0-based in statement order *)
  | Col of { qualifier : string option; column : string }
  | Binop of binop * expr * expr
  | Neg of expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | In_list of expr * expr list
  | In_select of expr * select
  | Not_in_list of expr * expr list
  | Not_in_select of expr * select
  | Exists of select
  | Between of expr * expr * expr
  | Like of expr * expr
  | Scalar_select of select (* embedded select used as a value *)
  | Agg of agg_fn * expr option (* aggregate; None only for count-star *)
  | Fn of string * expr list (* scalar function: abs, upper, coalesce, ... *)
  | Case of (expr * expr) list * expr option

and table_source =
  | Base of string
  | Transition of trans_table
  | Derived of select

and from_item = { source : table_source; alias : string option }

and proj = Star | Table_star of string | Proj of expr * string option

(* Compound (set) operations: UNION dedupes, UNION ALL keeps
   duplicates, EXCEPT and INTERSECT use set semantics. *)
and compound_op = Union | Union_all | Except | Intersect

and select = {
  distinct : bool;
  projections : proj list;
  from : from_item list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  compounds : (compound_op * select) list;
      (* further select cores combined with this one; the [order_by]
         and [limit] below then apply to the combined result *)
  order_by : (expr * [ `Asc | `Desc ]) list;
  limit : int option;
}

(* Data manipulation operations (paper Section 2.1; [Select_op] is the
   Section 5.1 extension allowing retrieval inside operation blocks). *)
type op =
  | Insert of {
      table : string;
      columns : string list option;
      source : [ `Values of expr list list | `Select of select ];
    }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Select_op of select

type op_block = op list

(* Rule definition (Section 3). *)
type basic_trans_pred =
  | Tp_inserted of string
  | Tp_deleted of string
  | Tp_updated of string * string option
  | Tp_selected of string * string option (* Section 5.1 extension *)

type action =
  | Act_block of op_block
  | Act_rollback
  | Act_call of string (* Section 5.2 extension: external procedure *)

type rule_def = {
  rule_name : string;
  trans_preds : basic_trans_pred list; (* disjunction *)
  condition : expr option;
  action : action;
}

(* DDL: column and table constraints accepted by CREATE TABLE.  They
   are not enforced by storage; the facade compiles them to production
   rules via the constraint compiler — the paper's own suggested use. *)
type col_constraint =
  | C_not_null
  | C_primary_key
  | C_unique
  | C_default of Value.t
  | C_references of string * string option
  | C_check of expr

type col_def = {
  cd_name : string;
  cd_type : Schema.col_type;
  cd_constraints : col_constraint list;
}

type table_constraint =
  | T_primary_key of string list
  | T_unique of string list
  | T_foreign_key of {
      columns : string list;
      parent : string;
      parent_columns : string list option;
      on_delete : [ `Cascade | `Restrict | `Set_null ];
    }
  | T_check of expr

type create_table = {
  ct_name : string;
  ct_columns : col_def list;
  ct_constraints : table_constraint list;
}

(* EXPLAIN renders the access-path decisions (scan vs index probe) the
   executor would take, without executing.  The rule form explains the
   selects embedded in a named rule's condition. *)
type explain_target = Explain_op of op | Explain_rule of string

type statement =
  | Stmt_create_table of create_table
  | Stmt_drop_table of string
  | Stmt_create_rule of rule_def
  | Stmt_drop_rule of string
  | Stmt_priority of string * string (* first has priority over second *)
  | Stmt_activate of string
  | Stmt_deactivate of string
  | Stmt_op of op
  | Stmt_begin
  | Stmt_commit
  | Stmt_rollback
  | Stmt_process_rules (* Section 5.3: explicit rule triggering point *)
  | Stmt_create_assertion of string * expr
      (* SQL-assertion-style cross-table constraint, compiled to rules *)
  | Stmt_drop_assertion of string
  | Stmt_create_index of {
      ix_name : string;
      ix_table : string;
      ix_column : string;
      ix_kind : Index.kind;
    }
      (* single-column index: an equality access path ([`Hash]) or an
         equality-and-range access path ([`Ordered]) *)
  | Stmt_drop_index of string
  | Stmt_show_tables
  | Stmt_show_rules
  | Stmt_describe of string
  | Stmt_explain of explain_target
  | Stmt_prepare of string * op
      (* PREPARE name AS <op>: parse and compile once, bind per
         EXECUTE.  Only DML operations are preparable; the body is the
         only place positional parameters may appear. *)
  | Stmt_execute of string * Value.t list
      (* EXECUTE name (v, ...): bind constants into the prepared
         operation's parameter frame and run the cached closure. *)
  | Stmt_deallocate of string option (* None deallocates all *)

(* ------------------------------------------------------------------ *)
(* Structural helpers used by the rule engine and static analysis.    *)

let trans_table_base = function
  | Tt_inserted t | Tt_deleted t
  | Tt_old_updated (t, _) | Tt_new_updated (t, _)
  | Tt_selected (t, _) -> t

(* Does a transition-table reference fall within what a given basic
   transition predicate licenses (paper Section 3's syntactic
   restriction)?  A column-unspecific predicate ("updated t") licenses
   the column-specific tables too, since they expose a subset of the
   same information. *)
let trans_table_matches_pred tt pred =
  match tt, pred with
  | Tt_inserted t, Tp_inserted t' -> String.equal t t'
  | Tt_deleted t, Tp_deleted t' -> String.equal t t'
  | (Tt_old_updated (t, None) | Tt_new_updated (t, None)), Tp_updated (t', None)
    -> String.equal t t'
  | (Tt_old_updated (t, Some _) | Tt_new_updated (t, Some _)),
    Tp_updated (t', None) -> String.equal t t'
  | (Tt_old_updated (t, Some c) | Tt_new_updated (t, Some c)),
    Tp_updated (t', Some c') -> String.equal t t' && String.equal c c'
  | Tt_selected (t, None), Tp_selected (t', None) -> String.equal t t'
  | Tt_selected (t, Some _), Tp_selected (t', None) -> String.equal t t'
  | Tt_selected (t, Some c), Tp_selected (t', Some c') ->
    String.equal t t' && String.equal c c'
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Traversal.                                                          *)

(* One level of the grammar, shared by every walker over expressions
   and selects: a walker matches only the constructors it treats
   specially and hands every other node to [fold_*] or [map_*], passing
   itself back as [expr] and [select].  Children are visited left to
   right in text order; base and transition FROM items are leaves. *)

let fold_opt f acc = function None -> acc | Some x -> f acc x

let fold_expr ~expr ~select acc e =
  match e with
  | Lit _ | Param _ | Col _ | Agg (_, None) -> acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) | Like (a, b) ->
    expr (expr acc a) b
  | Neg a | Not a | Is_null a | Is_not_null a | Agg (_, Some a) -> expr acc a
  | In_list (a, es) | Not_in_list (a, es) -> List.fold_left expr (expr acc a) es
  | In_select (a, s) | Not_in_select (a, s) -> select (expr acc a) s
  | Exists s | Scalar_select s -> select acc s
  | Between (a, b, c) -> expr (expr (expr acc a) b) c
  | Fn (_, args) -> List.fold_left expr acc args
  | Case (branches, else_) ->
    let acc = List.fold_left (fun acc (c, v) -> expr (expr acc c) v) acc branches in
    fold_opt expr acc else_

let fold_select ~expr ~select acc (s : select) =
  let acc =
    List.fold_left
      (fun acc -> function Proj (e, _) -> expr acc e | Star | Table_star _ -> acc)
      acc s.projections
  in
  let acc =
    List.fold_left
      (fun acc it ->
        match it.source with
        | Derived sub -> select acc sub
        | Base _ | Transition _ -> acc)
      acc s.from
  in
  let acc = fold_opt expr acc s.where in
  let acc = List.fold_left expr acc s.group_by in
  let acc = fold_opt expr acc s.having in
  let acc = List.fold_left (fun acc (_, sub) -> select acc sub) acc s.compounds in
  List.fold_left (fun acc (e, _) -> expr acc e) acc s.order_by

let fold_op ~expr ~select acc = function
  | Insert { source = `Values rows; _ } ->
    List.fold_left (List.fold_left expr) acc rows
  | Insert { source = `Select s; _ } | Select_op s -> select acc s
  | Delete { where; _ } -> fold_opt expr acc where
  | Update { sets; where; _ } ->
    fold_opt expr (List.fold_left (fun acc (_, e) -> expr acc e) acc sets) where

(* The maps bind each child before building the node: constructor
   arguments alone would evaluate right to left. *)
let map_expr ~expr ~select e =
  match e with
  | Lit _ | Param _ | Col _ | Agg (_, None) -> e
  | Binop (o, a, b) ->
    let a = expr a in
    Binop (o, a, expr b)
  | Cmp (o, a, b) ->
    let a = expr a in
    Cmp (o, a, expr b)
  | And (a, b) ->
    let a = expr a in
    And (a, expr b)
  | Or (a, b) ->
    let a = expr a in
    Or (a, expr b)
  | Like (a, b) ->
    let a = expr a in
    Like (a, expr b)
  | Neg a -> Neg (expr a)
  | Not a -> Not (expr a)
  | Is_null a -> Is_null (expr a)
  | Is_not_null a -> Is_not_null (expr a)
  | Agg (fn, Some a) -> Agg (fn, Some (expr a))
  | In_list (a, es) ->
    let a = expr a in
    In_list (a, List.map expr es)
  | Not_in_list (a, es) ->
    let a = expr a in
    Not_in_list (a, List.map expr es)
  | In_select (a, s) ->
    let a = expr a in
    In_select (a, select s)
  | Not_in_select (a, s) ->
    let a = expr a in
    Not_in_select (a, select s)
  | Exists s -> Exists (select s)
  | Scalar_select s -> Scalar_select (select s)
  | Between (a, b, c) ->
    let a = expr a in
    let b = expr b in
    Between (a, b, expr c)
  | Fn (name, args) -> Fn (name, List.map expr args)
  | Case (branches, else_) ->
    let branches =
      List.map
        (fun (c, v) ->
          let c = expr c in
          (c, expr v))
        branches
    in
    Case (branches, Option.map expr else_)

let map_from ~select from =
  List.map
    (fun it ->
      match it.source with
      | Derived sub -> { it with source = Derived (select sub) }
      | Base _ | Transition _ -> it)
    from

let map_select ~expr ~select (s : select) =
  let projections =
    List.map
      (function Proj (e, a) -> Proj (expr e, a) | (Star | Table_star _) as p -> p)
      s.projections
  in
  let from = map_from ~select s.from in
  let where = Option.map expr s.where in
  let group_by = List.map expr s.group_by in
  let having = Option.map expr s.having in
  let compounds = List.map (fun (o, sub) -> (o, select sub)) s.compounds in
  let order_by = List.map (fun (e, d) -> (expr e, d)) s.order_by in
  { s with projections; from; where; group_by; having; compounds; order_by }

let map_op ~expr ~select = function
  | Insert { table; columns; source = `Values rows } ->
    Insert { table; columns; source = `Values (List.map (List.map expr) rows) }
  | Insert { table; columns; source = `Select s } ->
    Insert { table; columns; source = `Select (select s) }
  | Delete { table; where } -> Delete { table; where = Option.map expr where }
  | Update { table; sets; where } ->
    let sets = List.map (fun (c, e) -> (c, expr e)) sets in
    Update { table; sets; where = Option.map expr where }
  | Select_op s -> Select_op (select s)

(* Every base and transition FROM source, at every nesting level: a
   select's own sources first, then those under its children. *)
let fold_sources f =
  let rec expr acc e = fold_expr ~expr ~select acc e
  and select acc (s : select) =
    let acc =
      List.fold_left
        (fun acc it ->
          match it.source with Derived _ -> acc | src -> f acc src)
        acc s.from
    in
    fold_select ~expr ~select acc s
  in
  (expr, select)

let fold_sources_expr f acc e = fst (fold_sources f) acc e
let fold_sources_op f acc op =
  let expr, select = fold_sources f in
  fold_op ~expr ~select acc op

let trans_tables_of_rule (r : rule_def) =
  let add acc = function Transition tt -> tt :: acc | Base _ | Derived _ -> acc in
  let acc = fold_opt (fold_sources_expr add) [] r.condition in
  match r.action with
  | Act_rollback | Act_call _ -> acc
  | Act_block ops -> List.fold_left (fold_sources_op add) acc ops

let base_tables_of_expr e =
  List.rev
    (fold_sources_expr
       (fun acc -> function
         | Base t when not (List.exists (String.equal t) acc) -> t :: acc
         | _ -> acc)
       [] e)

(* ------------------------------------------------------------------ *)
(* Positional parameters.                                              *)

(* The parser numbers parameters 0..n-1 in statement order, so the
   count is one past the highest index. *)
let param_count_op op =
  let rec expr n = function
    | Param i -> max n (i + 1)
    | e -> fold_expr ~expr ~select n e
  and select n s = fold_select ~expr ~select n s in
  fold_op ~expr ~select 0 op

(* Substituting argument literals into the AST is the paper-faithful
   reading of "bind constants"; EXECUTE binds a parameter frame
   instead, and the differential tests check the two agree. *)
let subst_params_op args op =
  let rec expr = function
    | Param i when i < 0 || i >= Array.length args ->
      Errors.semantic "parameter %d out of range" (i + 1)
    | Param i -> Lit args.(i)
    | e -> map_expr ~expr ~select e
  and select s = map_select ~expr ~select s in
  map_op ~expr ~select op

(* The dual of substitution, for the workload's prepared-statement
   mode: rewrite an operation so every literal in a bindable position
   — INSERT VALUES rows, UPDATE set right-hand sides, WHERE predicates
   at every nesting level — becomes the next positional parameter,
   returning the rewritten operation with the collected arguments.
   Projections, GROUP BY, HAVING and ORDER BY are left alone: a
   parameter there would change output naming, grouping structure or
   positional-ordering semantics rather than just late-bind a
   constant.  The maps run left to right, so the numbering matches the
   textual `?` order and [Pretty.op_str] of the result is a valid
   PREPARE body for the same argument vector. *)
let parameterize_nodes op =
  let collected = ref [] and n = ref 0 in
  let rec expr = function
    | Lit v as e ->
      let i = !n in
      incr n;
      collected := (e, v) :: !collected;
      Param i
    | e -> map_expr ~expr ~select e
  and select (s : select) =
    let from = map_from ~select s.from in
    let where = Option.map expr s.where in
    let compounds = List.map (fun (o, sub) -> (o, select sub)) s.compounds in
    { s with from; where; compounds }
  in
  let op' = map_op ~expr ~select op in
  let collected = Array.of_list (List.rev !collected) in
  (op', Array.map fst collected, Array.map snd collected)

let parameterize_op op =
  let op', _, args = parameterize_nodes op in
  (op', args)
