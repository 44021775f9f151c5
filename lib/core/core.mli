(** The public facade of the system.

    {!System} executes SQL text — DDL, data manipulation, rule
    definition, transaction control — against a set-oriented production
    rule engine, following the paper's model: every externally
    generated operation block is a transaction, and rules are processed
    just before commit (or at explicit [process rules] triggering
    points).

    The lower layers are re-exported for programmatic use. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Handle = Relational.Handle
module Row = Relational.Row
module Table = Relational.Table
module Database = Relational.Database
module Index = Relational.Index
module Errors = Relational.Errors
module Fault = Relational.Fault
module Ast = Sqlf.Ast
module Parser = Sqlf.Parser
module Pretty = Sqlf.Pretty
module Eval = Sqlf.Eval
module Effect = Rules.Effect
module Engine = Rules.Engine
module Instance_engine = Rules.Instance_engine
module Analysis = Rules.Analysis
module Constraints = Rules.Constraints
module Procedures = Rules.Procedures
module Selection = Rules.Selection
module Priority = Rules.Priority

module System : sig
  type t

  (** What executing one statement produced. *)
  type exec_result =
    | Msg of string  (** DDL acknowledgements, SHOW RULES text, ... *)
    | Relation of Eval.relation  (** query results *)
    | Outcome of Engine.outcome  (** transaction commit / rollback *)

  val create : ?config:Engine.config -> unit -> t
  (** A fresh system over an empty database. *)

  val of_engine : Engine.t -> t
  val engine : t -> Engine.t
  val database : t -> Database.t

  val register_procedure : t -> string -> Procedures.procedure -> unit
  (** Register an OCaml procedure callable from rule actions
      ([then call name], paper Section 5.2). *)

  val set_ddl_hook : t -> (string -> unit) option -> unit
  (** Install (or remove) the catalog-durability seam: the hook is
      called with each catalog statement's concrete syntax {e before}
      the statement is applied (write-ahead), so a WAL can replay the
      catalog by re-executing the text.  If the hook raises, the
      statement is not executed. *)

  val exec : t -> string -> exec_result list
  (** Execute a [';']-separated script.  Outside an explicit
      transaction each DML statement is its own operation block /
      transaction (autocommit); between [begin] and [commit],
      statements accumulate into one block.  CREATE TABLE constraints
      and CREATE ASSERTION are compiled into production rules. *)

  val exec_with :
    ([ `Statement of Ast.statement | `Op of Engine.bound ] -> 'a) ->
    Engine.statements ->
    string ->
    'a list
  (** {!exec}'s loop with the caller's routing: each statement goes to
      [route] in turn, bound from the statement state's shape memo when
      it knows every shape, parsed otherwise.  A syntax error anywhere
      runs nothing; an error [route] raises ends the script. *)

  val exec_bound : t -> Engine.bound -> exec_result
  (** Run a memoized operation's plan from the plan table, as {!exec}. *)

  val exec_one : t -> string -> exec_result
  (** Execute exactly one statement. *)

  val exec_statement : t -> Ast.statement -> exec_result
  (** Execute one already-parsed statement. *)

  val is_ddl : Ast.statement -> bool
  (** Whether the statement changes the catalog (tables, rules,
      assertions, priorities, activation, indexes). *)

  val exec_block : t -> string -> Engine.outcome * Eval.relation list
  (** Execute a script of DML statements as ONE externally-generated
      operation block (one transaction), the paper's basic unit. *)

  val query : t -> string -> string list * Row.t list
  (** Evaluate a query; returns column headers and rows. *)

  val query_value : t -> string -> Value.t
  (** A single-cell query result; [Null] when the result is empty. *)

  val analyze : t -> Analysis.report
  (** Static analysis of the installed rule set under the declared
      priorities (paper Section 6). *)

  val render_relation : Eval.relation -> string
  (** Render rows as an aligned text table with a row-count footer. *)

  val render_result : exec_result -> string
end
