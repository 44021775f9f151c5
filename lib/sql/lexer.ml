(* Hand-written lexer.  Supports:
   - identifiers  [a-zA-Z_][a-zA-Z0-9_]*  (keywords case-insensitive)
   - integer and float literals
   - string literals in single quotes with '' escaping
   - line comments (-- ...) and block comments
   - the symbols of the dialect *)

open Relational

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }
let col st = st.pos - st.bol + 1

let error st msg =
  Errors.raise_error
    (Errors.Parse_error { line = st.line; col = col st; msg })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '-' when peek2 st = Some '-' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_ws st
  | Some '/' when peek2 st = Some '*' ->
    advance st;
    advance st;
    let rec to_close () =
      match peek st with
      | None -> error st "unterminated block comment"
      | Some '*' when peek2 st = Some '/' ->
        advance st;
        advance st
      | Some _ ->
        advance st;
        to_close ()
    in
    to_close ();
    skip_ws st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while
    match peek st with Some c when is_ident_char c -> true | _ -> false
  do
    advance st
  done;
  let word = String.sub st.src start (st.pos - start) in
  if Token.is_keyword word then Token.Kw (String.uppercase_ascii word)
  else Token.Ident word

let lex_number st =
  let start = st.pos in
  while match peek st with Some c when is_digit c -> true | _ -> false do
    advance st
  done;
  let is_float = ref false in
  (match peek st, peek2 st with
  | Some '.', Some c when is_digit c ->
    is_float := true;
    advance st;
    while match peek st with Some c when is_digit c -> true | _ -> false do
      advance st
    done
  | Some '.', (Some _ | None) when peek2 st = None || not (is_ident_start (Option.get (peek2 st))) ->
    (* "5." style float, but not "t.col" *)
    is_float := true;
    advance st
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    if not (match peek st with Some c -> is_digit c | None -> false) then
      error st "malformed float exponent";
    while match peek st with Some c when is_digit c -> true | _ -> false do
      advance st
    done
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Token.Float_lit (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Token.Int_lit n
    | None -> Token.Float_lit (float_of_string text)

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '\'' when peek2 st = Some '\'' ->
      Buffer.add_char buf '\'';
      advance st;
      advance st;
      go ()
    | Some '\'' -> advance st
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Token.Str_lit (Buffer.contents buf)

let lex_symbol st =
  let two a b tok =
    if peek st = Some a && peek2 st = Some b then (
      advance st;
      advance st;
      Some (Token.Symbol tok))
    else None
  in
  match two '<' '>' "<>" with
  | Some t -> t
  | None -> (
    match two '<' '=' "<=" with
    | Some t -> t
    | None -> (
      match two '>' '=' ">=" with
      | Some t -> t
      | None -> (
        match two '!' '=' "<>" with
        | Some t -> t
        | None -> (
          match two '|' '|' "||" with
          | Some t -> t
          | None -> (
            match peek st with
            | Some (('(' | ')' | ',' | ';' | '.' | '*' | '+' | '-' | '/' | '%'
                    | '=' | '<' | '>' | '?') as c) ->
              advance st;
              Token.Symbol (String.make 1 c)
            | Some c -> error st (Printf.sprintf "unexpected character %C" c)
            | None -> Token.Eof)))))

let next_token st : Token.located =
  skip_ws st;
  let line = st.line and c = col st in
  let token =
    match peek st with
    | None -> Token.Eof
    | Some ch when is_ident_start ch -> lex_ident st
    | Some ch when is_digit ch -> lex_number st
    | Some '\'' -> lex_string st
    | Some _ -> lex_symbol st
  in
  { Token.token; line; col = c }
