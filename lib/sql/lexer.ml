(* Table-driven lexer.  Supports:
   - identifiers  [a-zA-Z_][a-zA-Z0-9_]*  (keywords case-insensitive)
   - integer and float literals (an integer that overflows [int] is a
     float, as [int_of_string] would have it)
   - string literals in single quotes with '' escaping
   - line comments (-- ...) and block comments
   - the symbols of the dialect

   Nothing is allocated per character: a 256-entry class table drives
   the scan, keywords are recognised in place by a case-folding hash
   over the source bytes (no upper-cased copy, no [Hashtbl] probe with
   a fresh string), and keyword and symbol tokens are preallocated.
   Only the values a token carries are allocated: an identifier's
   name, a literal's value.

   The same scan serves two consumers.  The parser pulls located
   tokens one at a time ([next_token]).  [shape] scans a whole script
   once and returns, per ';'-separated statement, its shape key — the
   token stream with every literal replaced by a slot typed Int, Float,
   Str, Bool or NULL — and the literal vector the slots index.  Two
   statements with equal shape keys parse to the same tree up to the
   values of their literals, which is what lets [System.exec] reuse a
   statement's parameterized plan without parsing it again. *)

open Relational

type state = {
  src : string;
  len : int;
  names : bool; (* materialize identifier names (the shape scan reads them in place) *)
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  mutable tline : int; (* position of the token just scanned *)
  mutable tcol : int;
  mutable tstart : int; (* its first byte *)
  mutable tkw : int; (* its keyword index, when it is a keyword *)
}

let scanner ~names src =
  {
    src;
    len = String.length src;
    names;
    pos = 0;
    line = 1;
    bol = 0;
    tline = 1;
    tcol = 1;
    tstart = 0;
    tkw = -1;
  }

let make src = scanner ~names:true src

let error st msg =
  Errors.raise_error
    (Errors.Parse_error { line = st.line; col = st.pos - st.bol + 1; msg })

(* ------------------------------------------------------------------ *)
(* Character classes                                                   *)

let c_other = '\000'
let c_space = '\001'
let c_newline = '\002'
let c_ident = '\003' (* letter or '_' *)
let c_digit = '\004'

let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | ' ' | '\t' | '\r' -> c_space
      | '\n' -> c_newline
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> c_ident
      | '0' .. '9' -> c_digit
      | _ -> c_other)

let cls c = String.unsafe_get classes (Char.code c)

(* The byte at [i], or '\000' past the end (NUL never starts a token,
   so it stands in for end of input in lookahead tests). *)
let at st i = if i < st.len then String.unsafe_get st.src i else '\000'
let is_digit c = cls c = c_digit
let is_ident_char c = let k = cls c in k = c_ident || k = c_digit

(* ------------------------------------------------------------------ *)
(* Keywords                                                            *)

let keywords = Array.of_list Token.keywords
let keyword_tokens = Array.map (fun k -> Token.Kw k) keywords

(* Open addressing over a power-of-two table of keyword indices, keyed
   by a case-folding hash of the word's bytes. *)
let kw_bits = 9
let kw_mask = (1 lsl kw_bits) - 1
let folded = String.init 256 (fun i -> Char.uppercase_ascii (Char.chr i))
let fold c = Char.code (String.unsafe_get folded (Char.code c))

let hash_range s start stop =
  let h = ref 0 in
  for i = start to stop - 1 do
    h := (!h * 31) + fold (String.unsafe_get s i)
  done;
  !h land kw_mask

let kw_table =
  let tbl = Array.make (1 lsl kw_bits) (-1) in
  Array.iteri
    (fun k word ->
      let rec place i = if tbl.(i) < 0 then tbl.(i) <- k else place ((i + 1) land kw_mask) in
      place (hash_range word 0 (String.length word)))
    keywords;
  tbl

(* Does [word] (upper case) spell [src.[start .. start + n - 1]] in
   any case? *)
let rec spells word src start n j =
  j >= n
  || fold (String.unsafe_get src (start + j)) = Char.code (String.unsafe_get word j)
     && spells word src start n (j + 1)

let rec probe src start n i =
  let k = kw_table.(i) in
  if k < 0 then -1
  else
    let word = keywords.(k) in
    if String.length word = n && spells word src start n 0 then k
    else probe src start n ((i + 1) land kw_mask)

(* The index of the keyword spelled (in any case) by
   [src.[start .. stop - 1]], or -1. *)
let keyword_index src start stop =
  probe src start (stop - start) (hash_range src start stop)

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

let newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos + 1

let rec to_close st =
  if st.pos >= st.len then error st "unterminated block comment"
  else
    match String.unsafe_get st.src st.pos with
    | '*' when at st (st.pos + 1) = '/' -> st.pos <- st.pos + 2
    | '\n' ->
      newline st;
      st.pos <- st.pos + 1;
      to_close st
    | _ ->
      st.pos <- st.pos + 1;
      to_close st

let rec skip_ws st =
  if st.pos < st.len then
    let c = String.unsafe_get st.src st.pos in
    let k = cls c in
    if k = c_space then (
      st.pos <- st.pos + 1;
      skip_ws st)
    else if k = c_newline then (
      newline st;
      st.pos <- st.pos + 1;
      skip_ws st)
    else if c = '-' && at st (st.pos + 1) = '-' then begin
      while st.pos < st.len && String.unsafe_get st.src st.pos <> '\n' do
        st.pos <- st.pos + 1
      done;
      skip_ws st
    end
    else if c = '/' && at st (st.pos + 1) = '*' then begin
      st.pos <- st.pos + 2;
      to_close st;
      skip_ws st
    end

let skip_digits st =
  while st.pos < st.len && is_digit (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let unnamed = Token.Ident ""

let lex_ident st =
  let start = st.pos in
  while st.pos < st.len && is_ident_char (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  let k = keyword_index st.src start st.pos in
  st.tkw <- k;
  if k >= 0 then keyword_tokens.(k)
  else if st.names then Token.Ident (String.sub st.src start (st.pos - start))
  else unnamed

(* Digits accumulate into an int; one that would pass [max_int] makes
   the literal a float, as [int_of_string_opt] failing did. *)
let lex_number st =
  let start = st.pos in
  let n = ref 0 and overflow = ref false in
  while st.pos < st.len && is_digit (String.unsafe_get st.src st.pos) do
    let d = Char.code (String.unsafe_get st.src st.pos) - 48 in
    if !n > (max_int - d) / 10 then overflow := true else n := (!n * 10) + d;
    st.pos <- st.pos + 1
  done;
  let is_float = ref false in
  if at st st.pos = '.' then begin
    let c2 = at st (st.pos + 1) in
    if is_digit c2 then (
      is_float := true;
      st.pos <- st.pos + 1;
      skip_digits st)
    else if st.pos + 1 >= st.len || cls c2 <> c_ident then (
      (* "5." style float, but not "t.col" *)
      is_float := true;
      st.pos <- st.pos + 1)
  end;
  (match at st st.pos with
  | 'e' | 'E' ->
    is_float := true;
    st.pos <- st.pos + 1;
    (match at st st.pos with '+' | '-' -> st.pos <- st.pos + 1 | _ -> ());
    if not (is_digit (at st st.pos)) then error st "malformed float exponent";
    skip_digits st
  | _ -> ());
  if !is_float || !overflow then
    Token.Float_lit (float_of_string (String.sub st.src start (st.pos - start)))
  else Token.Int_lit !n

(* A literal without '' escapes is one substring; escapes go through a
   buffer. *)
let rec plain_string st start =
  if st.pos >= st.len then error st "unterminated string literal"
  else
    match String.unsafe_get st.src st.pos with
    | '\'' when at st (st.pos + 1) = '\'' ->
      let buf = Buffer.create (st.pos - start + 16) in
      Buffer.add_substring buf st.src start (st.pos - start);
      escaped_string st buf
    | '\'' ->
      let s = String.sub st.src start (st.pos - start) in
      st.pos <- st.pos + 1;
      s
    | c ->
      if c = '\n' then newline st;
      st.pos <- st.pos + 1;
      plain_string st start

and escaped_string st buf =
  if st.pos >= st.len then error st "unterminated string literal"
  else
    match String.unsafe_get st.src st.pos with
    | '\'' when at st (st.pos + 1) = '\'' ->
      Buffer.add_char buf '\'';
      st.pos <- st.pos + 2;
      escaped_string st buf
    | '\'' ->
      st.pos <- st.pos + 1;
      Buffer.contents buf
    | c ->
      if c = '\n' then newline st;
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      escaped_string st buf

let lex_string st =
  st.pos <- st.pos + 1 (* opening quote *);
  Token.Str_lit (plain_string st st.pos)

let one st tok =
  st.pos <- st.pos + 1;
  tok

let two st tok =
  st.pos <- st.pos + 2;
  tok

let lex_symbol st c =
  match c, at st (st.pos + 1) with
  | '<', '>' | '!', '=' -> two st (Token.Symbol "<>")
  | '<', '=' -> two st (Token.Symbol "<=")
  | '>', '=' -> two st (Token.Symbol ">=")
  | '|', '|' -> two st (Token.Symbol "||")
  | '(', _ -> one st (Token.Symbol "(")
  | ')', _ -> one st (Token.Symbol ")")
  | ',', _ -> one st (Token.Symbol ",")
  | ';', _ -> one st (Token.Symbol ";")
  | '.', _ -> one st (Token.Symbol ".")
  | '*', _ -> one st (Token.Symbol "*")
  | '+', _ -> one st (Token.Symbol "+")
  | '-', _ -> one st (Token.Symbol "-")
  | '/', _ -> one st (Token.Symbol "/")
  | '%', _ -> one st (Token.Symbol "%")
  | '=', _ -> one st (Token.Symbol "=")
  | '<', _ -> one st (Token.Symbol "<")
  | '>', _ -> one st (Token.Symbol ">")
  | '?', _ -> one st (Token.Symbol "?")
  | _ -> error st (Printf.sprintf "unexpected character %C" c)

(* Scan the next token, recording its position in [tline]/[tcol]. *)
let token st =
  skip_ws st;
  st.tline <- st.line;
  st.tcol <- st.pos - st.bol + 1;
  st.tstart <- st.pos;
  if st.pos >= st.len then Token.Eof
  else
    let c = String.unsafe_get st.src st.pos in
    let k = cls c in
    if k = c_ident then lex_ident st
    else if k = c_digit then lex_number st
    else if c = '\'' then lex_string st
    else lex_symbol st c

let next_token st : Token.located =
  let token = token st in
  { Token.token; line = st.tline; col = st.tcol }

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)

let is_slot = function
  | Token.Int_lit _ | Token.Float_lit _ | Token.Str_lit _
  | Token.Kw ("TRUE" | "FALSE" | "NULL") ->
    true
  | _ -> false

type segment = {
  key : string;
  first_slot : int; (* index of its first literal in [literals] *)
  nslots : int;
}

type shape = { segments : segment list; literals : Value.t array }

(* Key bytes: a keyword is 0x80 + its index, an identifier its name
   and a NUL, a symbol its first character (two-character symbols get
   control bytes), a literal slot one control byte per type.  Empty
   statements yield no segment, as the parser skips them. *)
let shape src =
  let st = scanner ~names:false src in
  let buf = Buffer.create 128 in
  let lits = ref [] and nlits = ref 0 in
  let slot tag v =
    Buffer.add_char buf tag;
    lits := v :: !lits;
    incr nlits
  in
  let close segs first =
    if Buffer.length buf = 0 then segs
    else begin
      let key = Buffer.contents buf in
      Buffer.clear buf;
      { key; first_slot = first; nslots = !nlits - first } :: segs
    end
  in
  let rec go segs first =
    match token st with
    | Token.Eof -> List.rev (close segs first)
    | Token.Symbol ";" -> go (close segs first) !nlits
    | tok ->
      (match tok with
      | Token.Int_lit n -> slot '\005' (Value.Int n)
      | Token.Float_lit f -> slot '\006' (Value.Float f)
      | Token.Str_lit s -> slot '\007' (Value.Str s)
      | Token.Kw "TRUE" -> slot '\008' (Value.Bool true)
      | Token.Kw "FALSE" -> slot '\008' (Value.Bool false)
      | Token.Kw "NULL" -> slot '\009' Value.Null
      | Token.Kw _ -> Buffer.add_char buf (Char.unsafe_chr (0x80 + st.tkw))
      | Token.Ident _ ->
        Buffer.add_substring buf src st.tstart (st.pos - st.tstart);
        Buffer.add_char buf '\000'
      | Token.Symbol "<>" -> Buffer.add_char buf '\001'
      | Token.Symbol "<=" -> Buffer.add_char buf '\002'
      | Token.Symbol ">=" -> Buffer.add_char buf '\003'
      | Token.Symbol "||" -> Buffer.add_char buf '\004'
      | Token.Symbol s -> Buffer.add_char buf (String.unsafe_get s 0)
      | Token.Eof -> ());
      go segs first
  in
  let segments = go [] 0 in
  { segments; literals = Array.of_list (List.rev !lits) }
