(** Hand-written lexer for the SQL dialect.

    Supports identifiers, integer and float literals, single-quoted
    strings with [''] escaping, line ([--]) and block comments, and the
    dialect's operator symbols.  Lexical errors are raised as
    [Parse_error] with line/column positions. *)

type state
(** A streaming scan over one input: a cursor into the source string,
    no materialized token list. *)

val make : string -> state
(** Start a streaming scan at the beginning of [src]. *)

val next_token : state -> Token.located
(** Scan and return the next token, advancing the cursor.  Returns
    {!Token.Eof} (repeatedly) at end of input. *)
