(** Table-driven lexer for the SQL dialect.

    Supports identifiers, integer and float literals, single-quoted
    strings with [''] escaping, line ([--]) and block comments, and the
    dialect's operator symbols.  Lexical errors are raised as
    [Parse_error] with line/column positions.  The scan allocates
    nothing per character: only identifier names and literal values.

    Besides the token stream the parser reads, the lexer computes
    {e shapes}: a statement's token stream with each literal replaced
    by a typed slot.  Statements with equal shape keys parse to the
    same tree up to their literal values. *)

open Relational

type state
(** A streaming scan over one input: a cursor into the source string,
    no materialized token list. *)

val make : string -> state
(** Start a streaming scan at the beginning of [src]. *)

val next_token : state -> Token.located
(** Scan and return the next token, advancing the cursor.  Returns
    {!Token.Eof} (repeatedly) at end of input. *)

val is_slot : Token.t -> bool
(** Does the token fill a literal slot of a shape: an integer, float
    or string literal, [TRUE], [FALSE] or [NULL] (also where [NULL] is
    syntax, as in [IS NULL]: its value is always [Null])? *)

type segment = {
  key : string;
      (** the statement's tokens, each literal replaced by a slot typed
          Int, Float, Str, Bool or NULL *)
  first_slot : int;  (** index of its first literal in {!shape.literals} *)
  nslots : int;
}

type shape = {
  segments : segment list;
      (** one per [';']-separated statement, empty statements skipped *)
  literals : Value.t array;  (** every slot's value, in text order *)
}

val shape : string -> shape
(** Scan a whole script once.  Raises the lexical error {!next_token}
    would raise first. *)
