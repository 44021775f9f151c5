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
  | Param of int  (** positional '?' parameter, 0-based in statement order *)
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
      (** PREPARE name AS <op>: parse and compile once, bind per
          EXECUTE.  Only DML operations are preparable; the body is the
          only place positional parameters may appear. *)
  | Stmt_execute of string * Value.t list
      (** EXECUTE name (v, ...): bind constants into the prepared
          operation's parameter frame and run the cached closure. *)
  | Stmt_deallocate of string option  (** [None] deallocates all *)

(** {2 Structural helpers used by the rule engine and static analysis} *)

val trans_table_base : trans_table -> string
(** The underlying base table of a transition-table reference. *)

val trans_table_matches_pred : trans_table -> basic_trans_pred -> bool
(** Does a transition-table reference fall within what a basic
    transition predicate licenses (paper Section 3's syntactic
    restriction)?  A column-unspecific "updated t" licenses the
    column-specific tables too. *)

val trans_tables_of_rule : rule_def -> trans_table list
(** Every transition table referenced by a rule's condition and
    action. *)

val base_tables_of_expr : expr -> string list
(** Distinct base tables referenced by an expression, in first-seen
    order; the triggering footprint of a compiled assertion. *)

(** {2 Traversal}

    One level of the grammar, shared by every walker over expressions
    and selects.  A walker matches only the constructors it treats
    specially and hands every other node to these, passing itself back
    as [expr] (called on each immediate sub-expression) and [select]
    (called on each immediate subquery); nothing here recurses on its
    own.  Children are visited left to right in text order:

    - an expression's operands, list elements, CASE arms and embedded
      selects;
    - a select's projection expressions, derived FROM items, WHERE,
      GROUP BY, HAVING, compound arms and ORDER BY keys (base and
      transition FROM items are leaves, read from [from]);
    - an operation's VALUES rows, source select, SET right-hand sides
      and WHERE.

    The parameter rewrites below use the matching maps, which rebuild
    a node from its mapped children. *)

val fold_expr :
  expr:('a -> expr -> 'a) -> select:('a -> select -> 'a) -> 'a -> expr -> 'a

val fold_select :
  expr:('a -> expr -> 'a) -> select:('a -> select -> 'a) -> 'a -> select -> 'a

val fold_op :
  expr:('a -> expr -> 'a) -> select:('a -> select -> 'a) -> 'a -> op -> 'a

val fold_sources_expr : ('a -> table_source -> 'a) -> 'a -> expr -> 'a
(** Fold over every base and transition FROM source at every nesting
    level of an expression's embedded selects — a select's own sources
    before those of its children; derived sources are descended into,
    never passed to the function. *)

val fold_sources_op : ('a -> table_source -> 'a) -> 'a -> op -> 'a
(** {!fold_sources_expr} over an operation (its target table is not a
    FROM source). *)

(** {2 Positional parameters} *)

val param_count_op : op -> int
(** Number of positional parameters in an operation (one past the
    highest index; the parser numbers them 0..n-1 in statement
    order). *)

val subst_params_op : Value.t array -> op -> op
(** Substitute argument literals for the parameters of an operation —
    what EXECUTE's parameter frame must be equivalent to (the
    differential tests check it).  Arity is validated by the caller; an
    out-of-range index raises a semantic error. *)

val parameterize_op : op -> op * Value.t array
(** The dual of {!subst_params_op}, for driving ad-hoc statements
    through the prepared-statement machinery: replace every literal in
    a bindable position (INSERT VALUES rows, UPDATE set right-hand
    sides, WHERE predicates at every nesting level) with the next
    positional parameter and return the collected arguments.
    Projections, GROUP BY, HAVING and ORDER BY keep their literals, so
    output naming, grouping and positional ordering are unchanged.
    Parameters are numbered in textual order:
    [subst_params_op args (fst (parameterize_op op))] is [op]. *)

val parameterize_nodes : op -> op * expr array * Value.t array
(** {!parameterize_op} also returning, per parameter, the [Lit] node
    it replaced (physically the node of [op]). *)
