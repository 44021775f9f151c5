(** Recursive-descent parser for the dialect (paper Sections 2.1, 3,
    4.4 and 5, plus the DDL around them).

    One syntactic note: the paper separates the operations of a rule
    action with [';'], which is also the statement separator.  Action
    blocks are parsed greedily — after a [';'] the block continues if
    and only if the next tokens begin another DML operation.  A script
    can terminate a rule definition explicitly with an empty statement
    ([';;']) or by following it with a non-DML statement. *)

val parse_script : string -> Ast.statement list
(** Parse a [';']-separated script; empty statements are skipped. *)

val parse_script_traced : string -> (Ast.statement * (Ast.expr * int) list) list
(** {!parse_script}, each statement paired with the [Lit] nodes it
    built from literal-slot tokens ({!Lexer.is_slot}): the node itself
    (physically, as it sits in the statement) and the index of its
    slot among all of the script's slots, which is its index into
    {!Lexer.shape}'s literal vector.  Literals from [NAN] and
    [INFINITY] are not slots. *)

val parse_statement_string : string -> Ast.statement
(** Parse exactly one statement. *)

val parse_expr_string : string -> Ast.expr
(** Parse a standalone expression (for tests and programmatic rule
    construction). *)

val parse_select_string : string -> Ast.select
(** Parse a standalone select operation. *)
