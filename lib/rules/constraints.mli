(** The higher-level integrity-constraint facility the paper points to
    in Section 6 (the [CW90] direction): declarative constraints are
    compiled into set-oriented production rules that maintain them.

    Compilation styles:
    - NOT NULL, UNIQUE / PRIMARY KEY, CHECK and the restricting side of
      foreign keys compile to rollback rules ("abort" repair);
    - [ON DELETE CASCADE] / [SET NULL] compile to repairing rules — the
      cascade rule is exactly the paper's Example 3.1 — with priority
      pairs making repair run before the check. *)

module Ast = Sqlf.Ast

type t =
  | Not_null of { table : string; column : string }
  | Unique of { table : string; columns : string list; not_null : string list }
      (** [not_null]: the key columns the schema declares NOT NULL (the
          rule probes by one of them when it can; see {!compile}). *)
  | Foreign_key of {
      child : string;
      child_column : string;
      parent : string;
      parent_column : string;
      on_delete : [ `Cascade | `Restrict | `Set_null ];
    }
  | Check of { table : string; predicate : Ast.expr }
  | Assertion of { assertion_name : string; predicate : Ast.expr }
      (** A cross-table invariant (SQL assertion style): compiled to a
          rollback rule triggered by any change to any table the
          predicate references. *)

val name_of : t -> string
(** Deterministic rule-name stem for a constraint (e.g.
    [nn_emp_salary], [fk_emp_dept_no_dept]). *)

val assertion_rule_name : string -> string
(** The rule name an assertion compiles to, from the assertion name
    alone — DROP ASSERTION uses it to find the rule without
    re-stating the predicate. *)

val compile : t -> Ast.rule_def list
(** The production rules maintaining the constraint.  Multi-column
    foreign keys are rejected.  A UNIQUE / PRIMARY KEY rule groups only
    the rows sharing a probe-column value with a tuple inserted or
    key-updated during its transition, which is exact because the
    rule's transition starts in a state satisfying the constraint (the
    rule only rolls back); it assumes the rule was active since its
    table was created, so such a rule cannot be deactivated (see
    {!is_unique_rule}). *)

val is_unique_rule :
  not_null:(string -> string -> bool) -> Ast.rule_def -> bool
(** Whether a rule definition is exactly the one {!compile} emits for
    a UNIQUE / PRIMARY KEY constraint of its table; [not_null table
    column] tells whether the schema declares the column NOT NULL. *)

val of_create_table : Ast.create_table -> t list
(** Translate the DDL constraints of a CREATE TABLE statement.
    Column-level NOT NULL is enforced by the schema itself and is not
    compiled into a rule. *)

val priority_pairs : t -> (string * string) list
(** (high, low) priority declarations accompanying {!compile}'s rules. *)
