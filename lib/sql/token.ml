(* Lexical tokens for the SQL dialect of the paper (Sections 2.1 and
   3) plus the DDL we need around it.  Keywords are case-insensitive;
   identifiers preserve case but compare case-sensitively. *)

type t =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Kw of string (* upper-cased keyword *)
  | Symbol of string (* punctuation and operators *)
  | Eof

type located = { token : t; line : int; col : int }

(* Every word with special meaning anywhere in the grammar.  Keeping
   one list makes the lexer's keyword test trivial; the parser still
   accepts most keywords as identifiers where unambiguous. *)
let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "DELETE"; "UPDATE";
    "SET"; "CREATE"; "DROP"; "TABLE"; "RULE"; "WHEN"; "IF"; "THEN"; "OR";
    "AND"; "NOT"; "NULL"; "IS"; "IN"; "EXISTS"; "BETWEEN"; "LIKE"; "AS";
    "DISTINCT"; "GROUP"; "BY"; "HAVING"; "ORDER"; "ASC"; "DESC"; "LIMIT";
    "INSERTED"; "DELETED"; "UPDATED"; "SELECTED"; "OLD"; "NEW"; "ROLLBACK";
    "PRIORITY"; "BEFORE"; "INT"; "INTEGER"; "FLOAT"; "REAL"; "STRING";
    "VARCHAR"; "CHAR"; "TEXT"; "BOOL"; "BOOLEAN"; "TRUE"; "FALSE"; "PRIMARY";
    "KEY"; "UNIQUE"; "REFERENCES"; "FOREIGN"; "CHECK"; "DEFAULT"; "CONSTRAINT";
    "ON"; "CASCADE"; "RESTRICT"; "ACTION"; "BEGIN"; "COMMIT"; "PROCESS";
    "RULES"; "CALL"; "CASE"; "ELSE"; "END"; "COUNT"; "SUM"; "AVG"; "MIN";
    "UNION"; "EXCEPT"; "INTERSECT"; "ALL"; "ASSERTION";
    "MAX"; "SHOW"; "TABLES"; "ACTIVATE"; "DEACTIVATE"; "DESCRIBE"; "INDEX";
    "EXPLAIN"; "NAN"; "INFINITY"; "USING"; "PREPARE"; "EXECUTE"; "DEALLOCATE";
  ]

let to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int_lit n -> Printf.sprintf "integer %d" n
  | Float_lit f -> Printf.sprintf "float %g" f
  | Str_lit s -> Printf.sprintf "string %S" s
  | Kw k -> k
  | Symbol s -> Printf.sprintf "%S" s
  | Eof -> "end of input"
