(** Lexical tokens for the SQL dialect.  Keywords are case-insensitive;
    identifiers preserve case and compare case-sensitively. *)

type t =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Kw of string  (** upper-cased keyword *)
  | Symbol of string  (** punctuation and operators *)
  | Eof

type located = { token : t; line : int; col : int }

val keywords : string list
(** Every word with special meaning anywhere in the grammar. *)

val to_string : t -> string
(** Human-readable rendering for error messages. *)
