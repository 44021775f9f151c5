(* Recursive-descent parser for the dialect.

   One syntactic note: the paper separates the operations of a rule
   action with ';', which is also our statement separator.  We parse
   action blocks greedily — after a ';' the block continues if and only
   if the next tokens begin another DML operation.  A script can
   therefore terminate a rule definition explicitly with an empty
   statement (';;') or by following it with a non-DML statement.
   Parenthesizing is not needed. *)

open Relational

(* The parser pulls tokens straight off the streaming lexer through a
   small ring buffer — no materialized token list.  The grammar needs
   at most two tokens of lookahead ([peek_ahead st 2]), so four slots
   are plenty. *)

let ring = 4

type state = {
  lx : Lexer.state;
  buf : Token.located array; (* pulled-but-unconsumed tokens *)
  mutable head : int; (* slot holding the current token *)
  mutable count : int; (* filled slots starting at [head] *)
  mutable nparams : int; (* '?' parameters seen in the current statement *)
  mutable slots : int; (* literal-slot tokens consumed ({!Lexer.is_slot}) *)
  mutable lits : (Ast.expr * int) list;
      (* the [Lit] nodes of the current statement built from slot
         tokens, each with its slot's index, newest first *)
}

let make src =
  {
    lx = Lexer.make src;
    buf = Array.make ring { Token.token = Token.Eof; line = 0; col = 0 };
    head = 0;
    count = 0;
    nparams = 0;
    slots = 0;
    lits = [];
  }

let fill st n =
  while st.count <= n do
    st.buf.((st.head + st.count) mod ring) <- Lexer.next_token st.lx;
    st.count <- st.count + 1
  done

let current st =
  fill st 0;
  st.buf.(st.head)

let peek st = (current st).Token.token

let peek_ahead st n =
  fill st n;
  st.buf.((st.head + n) mod ring).Token.token

(* Consuming Eof is a no-op, as in the array-indexed parser this
   replaces. *)
let advance st =
  fill st 0;
  match st.buf.(st.head).Token.token with
  | Token.Eof -> ()
  | tok ->
    if Lexer.is_slot tok then st.slots <- st.slots + 1;
    st.head <- (st.head + 1) mod ring;
    st.count <- st.count - 1

let error st msg =
  let { Token.token; line; col } = current st in
  Errors.raise_error
    (Errors.Parse_error
       { line; col; msg = Printf.sprintf "%s (found %s)" msg (Token.to_string token) })

let expect_kw st kw =
  match peek st with
  | Token.Kw k when String.equal k kw -> advance st
  | _ -> error st (Printf.sprintf "expected %s" kw)

let accept_kw st kw =
  match peek st with
  | Token.Kw k when String.equal k kw ->
    advance st;
    true
  | _ -> false

let expect_symbol st sym =
  match peek st with
  | Token.Symbol s when String.equal s sym -> advance st
  | _ -> error st (Printf.sprintf "expected %S" sym)

let accept_symbol st sym =
  match peek st with
  | Token.Symbol s when String.equal s sym ->
    advance st;
    true
  | _ -> false

let is_kw st kw =
  match peek st with Token.Kw k -> String.equal k kw | _ -> false

let is_symbol st sym =
  match peek st with Token.Symbol s -> String.equal s sym | _ -> false

let expect_ident st what =
  match peek st with
  | Token.Ident name ->
    advance st;
    name
  | _ -> error st (Printf.sprintf "expected %s" what)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let agg_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept_kw st "OR" then Ast.Or (lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "AND" then Ast.And (lhs, parse_and st) else lhs

and parse_not st =
  if accept_kw st "NOT" then Ast.Not (parse_not st) else parse_predicate st

(* Comparison level, including IS NULL / IN / BETWEEN / LIKE. *)
and parse_predicate st =
  let lhs = parse_additive st in
  if accept_kw st "IS" then
    if accept_kw st "NOT" then (
      expect_kw st "NULL";
      Ast.Is_not_null lhs)
    else (
      expect_kw st "NULL";
      Ast.Is_null lhs)
  else if accept_kw st "IN" then parse_in st lhs ~negated:false
  else if is_kw st "NOT" && peek_ahead st 1 = Token.Kw "IN" then (
    advance st;
    advance st;
    parse_in st lhs ~negated:true)
  else if is_kw st "NOT" && peek_ahead st 1 = Token.Kw "LIKE" then (
    advance st;
    advance st;
    Ast.Not (Ast.Like (lhs, parse_additive st)))
  else if is_kw st "NOT" && peek_ahead st 1 = Token.Kw "BETWEEN" then (
    advance st;
    advance st;
    let low = parse_additive st in
    expect_kw st "AND";
    let high = parse_additive st in
    Ast.Not (Ast.Between (lhs, low, high)))
  else if accept_kw st "BETWEEN" then begin
    let low = parse_additive st in
    expect_kw st "AND";
    let high = parse_additive st in
    Ast.Between (lhs, low, high)
  end
  else if accept_kw st "LIKE" then Ast.Like (lhs, parse_additive st)
  else
    match peek st with
    | Token.Symbol (("=" | "<>" | "<" | "<=" | ">" | ">=") as s) ->
      advance st;
      let op =
        match s with
        | "=" -> Ast.Eq
        | "<>" -> Ast.Neq
        | "<" -> Ast.Lt
        | "<=" -> Ast.Le
        | ">" -> Ast.Gt
        | _ -> Ast.Ge
      in
      let rhs = parse_additive st in
      Ast.Cmp (op, lhs, rhs)
    | _ -> lhs

and parse_in st lhs ~negated =
  expect_symbol st "(";
  let result =
    if is_kw st "SELECT" then begin
      let s = parse_select st in
      if negated then Ast.Not_in_select (lhs, s) else Ast.In_select (lhs, s)
    end
    else begin
      let rec items acc =
        let e = parse_expr st in
        if accept_symbol st "," then items (e :: acc) else List.rev (e :: acc)
      in
      let es = items [] in
      if negated then Ast.Not_in_list (lhs, es) else Ast.In_list (lhs, es)
    end
  in
  expect_symbol st ")";
  result

and parse_additive st =
  let rec go lhs =
    if accept_symbol st "+" then go (Ast.Binop (Ast.Add, lhs, parse_multiplicative st))
    else if accept_symbol st "-" then
      go (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st))
    else if accept_symbol st "||" then
      go (Ast.Binop (Ast.Concat, lhs, parse_multiplicative st))
    else lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    if accept_symbol st "*" then go (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    else if accept_symbol st "/" then go (Ast.Binop (Ast.Div, lhs, parse_unary st))
    else if accept_symbol st "%" then go (Ast.Binop (Ast.Mod, lhs, parse_unary st))
    else lhs
  in
  go (parse_unary st)

and parse_unary st =
  if accept_symbol st "-" then Ast.Neg (parse_unary st) else parse_primary st

(* A literal from the current (slot) token, recorded with its slot. *)
and slot_lit st v =
  let e = Ast.Lit v in
  st.lits <- (e, st.slots) :: st.lits;
  advance st;
  e

and parse_primary st =
  match peek st with
  | Token.Int_lit n -> slot_lit st (Value.Int n)
  | Token.Float_lit f -> slot_lit st (Value.Float f)
  | Token.Str_lit s -> slot_lit st (Value.Str s)
  | Token.Kw "NULL" -> slot_lit st Value.Null
  | Token.Kw "TRUE" -> slot_lit st (Value.Bool true)
  | Token.Kw "FALSE" -> slot_lit st (Value.Bool false)
  | Token.Kw "NAN" ->
    advance st;
    Ast.Lit (Value.Float Float.nan)
  | Token.Kw "INFINITY" ->
    advance st;
    Ast.Lit (Value.Float Float.infinity)
  | Token.Symbol "?" ->
    advance st;
    let i = st.nparams in
    st.nparams <- st.nparams + 1;
    Ast.Param i
  | Token.Kw "EXISTS" ->
    advance st;
    expect_symbol st "(";
    let s = parse_select st in
    expect_symbol st ")";
    Ast.Exists s
  | Token.Kw "CASE" -> parse_case st
  | Token.Kw kw when agg_of_kw kw <> None && peek_ahead st 1 = Token.Symbol "(" ->
    advance st;
    advance st;
    let agg = Option.get (agg_of_kw kw) in
    let e =
      if String.equal kw "COUNT" && accept_symbol st "*" then
        Ast.Agg (Ast.Count_star, None)
      else Ast.Agg (agg, Some (parse_expr st))
    in
    expect_symbol st ")";
    e
  | Token.Symbol "(" ->
    advance st;
    let e =
      if is_kw st "SELECT" then Ast.Scalar_select (parse_select st)
      else parse_expr st
    in
    expect_symbol st ")";
    e
  | Token.Symbol "*" ->
    (* bare star only valid in projections; handled there *)
    error st "unexpected *"
  | Token.Ident name ->
    advance st;
    if is_symbol st "(" then begin
      (* scalar function call *)
      advance st;
      let args =
        if is_symbol st ")" then []
        else begin
          let rec go acc =
            let e = parse_expr st in
            if accept_symbol st "," then go (e :: acc) else List.rev (e :: acc)
          in
          go []
        end
      in
      expect_symbol st ")";
      Ast.Fn (String.lowercase_ascii name, args)
    end
    else if accept_symbol st "." then begin
      if accept_symbol st "*" then
        (* table.* is only valid in projections; represented there *)
        error st "table.* is only allowed in a select list"
      else
        let column = expect_ident st "column name" in
        Ast.Col { qualifier = Some name; column }
    end
    else Ast.Col { qualifier = None; column = name }
  | _ -> error st "expected expression"

and parse_case st =
  expect_kw st "CASE";
  let rec branches acc =
    if accept_kw st "WHEN" then begin
      let c = parse_expr st in
      expect_kw st "THEN";
      let v = parse_expr st in
      branches ((c, v) :: acc)
    end
    else List.rev acc
  in
  let bs = branches [] in
  if bs = [] then error st "CASE requires at least one WHEN branch";
  let else_ = if accept_kw st "ELSE" then Some (parse_expr st) else None in
  expect_kw st "END";
  Ast.Case (bs, else_)

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)

(* A select "core": everything through HAVING.  Compound operators and
   the trailing ORDER BY / LIMIT are handled by [parse_select]. *)
and parse_select_core st =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let projections = parse_projections st in
  let from = if accept_kw st "FROM" then parse_from_items st else [] in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if is_kw st "GROUP" then begin
      advance st;
      expect_kw st "BY";
      let rec go acc =
        let e = parse_expr st in
        if accept_symbol st "," then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr st) else None in
  {
    Ast.distinct; projections; from; where; group_by; having;
    compounds = []; order_by = []; limit = None;
  }

and parse_select st =
  let core = parse_select_core st in
  let rec parse_compounds acc =
    if is_kw st "UNION" then begin
      advance st;
      let op = if accept_kw st "ALL" then Ast.Union_all else Ast.Union in
      parse_compounds ((op, parse_select_core st) :: acc)
    end
    else if accept_kw st "EXCEPT" then
      parse_compounds ((Ast.Except, parse_select_core st) :: acc)
    else if accept_kw st "INTERSECT" then
      parse_compounds ((Ast.Intersect, parse_select_core st) :: acc)
    else List.rev acc
  in
  let compounds = parse_compounds [] in
  let order_by =
    if is_kw st "ORDER" then begin
      advance st;
      expect_kw st "BY";
      let rec go acc =
        let e = parse_expr st in
        let dir =
          if accept_kw st "DESC" then `Desc
          else begin
            ignore (accept_kw st "ASC");
            `Asc
          end
        in
        if accept_symbol st "," then go ((e, dir) :: acc)
        else List.rev ((e, dir) :: acc)
      in
      go []
    end
    else []
  in
  let limit =
    if accept_kw st "LIMIT" then begin
      match peek st with
      | Token.Int_lit n ->
        advance st;
        Some n
      | _ -> error st "expected integer after LIMIT"
    end
    else None
  in
  { core with Ast.compounds; order_by; limit }

and parse_projections st =
  let parse_one () =
    if accept_symbol st "*" then Ast.Star
    else if
      (match peek st with Token.Ident _ -> true | _ -> false)
      && peek_ahead st 1 = Token.Symbol "."
      && peek_ahead st 2 = Token.Symbol "*"
    then begin
      let name = expect_ident st "table name" in
      advance st;
      advance st;
      Ast.Table_star name
    end
    else begin
      let n0 = st.nparams in
      let e = parse_expr st in
      let alias =
        if accept_kw st "AS" then Some (expect_ident st "alias")
        else
          match peek st with
          | Token.Ident a ->
            advance st;
            Some a
          | _ -> None
      in
      let alias =
        match alias with
        | None when st.nparams > n0 ->
          (* a parameter in an alias-free projection: pin the output
             column name to the PREPARE-time source text, so binding
             (or the tests' substitution) cannot rename
             the column per EXECUTE *)
          Some (Pretty.expr_str e)
        | _ -> alias
      in
      Ast.Proj (e, alias)
    end
  in
  let rec go acc =
    let p = parse_one () in
    if accept_symbol st "," then go (p :: acc) else List.rev (p :: acc)
  in
  go []

and parse_from_items st =
  let rec go acc =
    let item = parse_from_item st in
    if accept_symbol st "," then go (item :: acc) else List.rev (item :: acc)
  in
  go []

(* A from item: base table, derived table, or one of the paper's
   transition tables ("inserted t", "deleted t", "old updated t[.c]",
   "new updated t[.c]", "selected t[.c]"), each with an optional
   alias. *)
and parse_from_item st =
  let source =
    if accept_symbol st "(" then begin
      let s = parse_select st in
      expect_symbol st ")";
      Ast.Derived s
    end
    else if accept_kw st "INSERTED" then
      Ast.Transition (Ast.Tt_inserted (expect_ident st "table name"))
    else if accept_kw st "DELETED" then
      Ast.Transition (Ast.Tt_deleted (expect_ident st "table name"))
    else if accept_kw st "OLD" then begin
      expect_kw st "UPDATED";
      let t, c = parse_table_dot_col st in
      Ast.Transition (Ast.Tt_old_updated (t, c))
    end
    else if accept_kw st "NEW" then begin
      expect_kw st "UPDATED";
      let t, c = parse_table_dot_col st in
      Ast.Transition (Ast.Tt_new_updated (t, c))
    end
    else if accept_kw st "SELECTED" then begin
      let t, c = parse_table_dot_col st in
      Ast.Transition (Ast.Tt_selected (t, c))
    end
    else Ast.Base (expect_ident st "table name")
  in
  let alias =
    if accept_kw st "AS" then Some (expect_ident st "alias")
    else
      match peek st with
      | Token.Ident a ->
        advance st;
        Some a
      | _ -> None
  in
  { Ast.source; alias }

and parse_table_dot_col st =
  let t = expect_ident st "table name" in
  if is_symbol st "." && (match peek_ahead st 1 with Token.Ident _ -> true | _ -> false)
  then begin
    advance st;
    let c = expect_ident st "column name" in
    (t, Some c)
  end
  else (t, None)

(* ------------------------------------------------------------------ *)
(* DML operations                                                      *)

let parse_insert st =
  expect_kw st "INSERT";
  expect_kw st "INTO";
  let table = expect_ident st "table name" in
  let columns =
    if
      is_symbol st "("
      && (match peek_ahead st 1 with Token.Ident _ -> true | _ -> false)
      && (peek_ahead st 2 = Token.Symbol "," || peek_ahead st 2 = Token.Symbol ")")
    then begin
      expect_symbol st "(";
      let rec go acc =
        let c = expect_ident st "column name" in
        if accept_symbol st "," then go (c :: acc) else List.rev (c :: acc)
      in
      let cols = go [] in
      expect_symbol st ")";
      Some cols
    end
    else None
  in
  if accept_kw st "VALUES" then begin
    let parse_row () =
      expect_symbol st "(";
      let rec go acc =
        let e = parse_expr st in
        if accept_symbol st "," then go (e :: acc) else List.rev (e :: acc)
      in
      let row = go [] in
      expect_symbol st ")";
      row
    in
    let rec rows acc =
      let r = parse_row () in
      if accept_symbol st "," then rows (r :: acc) else List.rev (r :: acc)
    in
    Ast.Insert { table; columns; source = `Values (rows []) }
  end
  else if accept_symbol st "(" then begin
    let s = parse_select st in
    expect_symbol st ")";
    Ast.Insert { table; columns; source = `Select s }
  end
  else if is_kw st "SELECT" then
    Ast.Insert { table; columns; source = `Select (parse_select st) }
  else error st "expected VALUES or a select operation"

let parse_delete st =
  expect_kw st "DELETE";
  expect_kw st "FROM";
  let table = expect_ident st "table name" in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  Ast.Delete { table; where }

let parse_update st =
  expect_kw st "UPDATE";
  let table = expect_ident st "table name" in
  expect_kw st "SET";
  let rec sets acc =
    let col = expect_ident st "column name" in
    expect_symbol st "=";
    let e = parse_expr st in
    if accept_symbol st "," then sets ((col, e) :: acc)
    else List.rev ((col, e) :: acc)
  in
  let sets = sets [] in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  Ast.Update { table; sets; where }

let parse_op st =
  match peek st with
  | Token.Kw "INSERT" -> parse_insert st
  | Token.Kw "DELETE" -> parse_delete st
  | Token.Kw "UPDATE" -> parse_update st
  | Token.Kw "SELECT" -> Ast.Select_op (parse_select st)
  | _ -> error st "expected INSERT, DELETE, UPDATE or SELECT"

(* An operation block inside a rule action: ops separated by ';',
   continuing greedily while the next tokens begin a DML op. *)
let parse_op_block st =
  let rec go acc =
    let op = parse_op st in
    if is_symbol st ";" && (match peek_ahead st 1 with
                            | Token.Kw ("INSERT" | "DELETE" | "UPDATE" | "SELECT") -> true
                            | _ -> false)
    then begin
      advance st;
      go (op :: acc)
    end
    else List.rev (op :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Rule definition                                                     *)

let parse_basic_trans_pred st =
  if accept_kw st "INSERTED" then begin
    expect_kw st "INTO";
    Ast.Tp_inserted (expect_ident st "table name")
  end
  else if accept_kw st "DELETED" then begin
    expect_kw st "FROM";
    Ast.Tp_deleted (expect_ident st "table name")
  end
  else if accept_kw st "UPDATED" then begin
    let t, c = parse_table_dot_col st in
    Ast.Tp_updated (t, c)
  end
  else if accept_kw st "SELECTED" then begin
    let t, c = parse_table_dot_col st in
    Ast.Tp_selected (t, c)
  end
  else error st "expected INSERTED INTO, DELETED FROM, UPDATED or SELECTED"

let parse_trans_preds st =
  let rec go acc =
    let p = parse_basic_trans_pred st in
    if accept_kw st "OR" then go (p :: acc) else List.rev (p :: acc)
  in
  go []

let parse_rule_def st ~rule_name =
  expect_kw st "WHEN";
  let trans_preds = parse_trans_preds st in
  let condition = if accept_kw st "IF" then Some (parse_expr st) else None in
  expect_kw st "THEN";
  let action =
    if accept_kw st "ROLLBACK" then Ast.Act_rollback
    else if accept_kw st "CALL" then Ast.Act_call (expect_ident st "procedure name")
    else Ast.Act_block (parse_op_block st)
  in
  { Ast.rule_name; trans_preds; condition; action }

(* ------------------------------------------------------------------ *)
(* CREATE TABLE                                                        *)

let parse_col_type st =
  let skip_length () =
    (* VARCHAR(40) etc.: length is accepted and ignored. *)
    if accept_symbol st "(" then begin
      (match peek st with
      | Token.Int_lit _ -> advance st
      | _ -> error st "expected length");
      expect_symbol st ")"
    end
  in
  match peek st with
  | Token.Kw ("INT" | "INTEGER") ->
    advance st;
    Schema.T_int
  | Token.Kw ("FLOAT" | "REAL") ->
    advance st;
    Schema.T_float
  | Token.Kw ("STRING" | "TEXT") ->
    advance st;
    Schema.T_string
  | Token.Kw ("VARCHAR" | "CHAR") ->
    advance st;
    skip_length ();
    Schema.T_string
  | Token.Kw ("BOOL" | "BOOLEAN") ->
    advance st;
    Schema.T_bool
  | _ -> error st "expected a column type"

let parse_literal st =
  match peek st with
  | Token.Int_lit n ->
    advance st;
    Value.Int n
  | Token.Float_lit f ->
    advance st;
    Value.Float f
  | Token.Str_lit s ->
    advance st;
    Value.Str s
  | Token.Kw "NULL" ->
    advance st;
    Value.Null
  | Token.Kw "TRUE" ->
    advance st;
    Value.Bool true
  | Token.Kw "FALSE" ->
    advance st;
    Value.Bool false
  | Token.Kw "NAN" ->
    advance st;
    Value.Float Float.nan
  | Token.Kw "INFINITY" ->
    advance st;
    Value.Float Float.infinity
  | Token.Symbol "-" -> (
    advance st;
    match peek st with
    | Token.Int_lit n ->
      advance st;
      Value.Int (-n)
    | Token.Float_lit f ->
      advance st;
      Value.Float (-.f)
    | Token.Kw "INFINITY" ->
      advance st;
      Value.Float Float.neg_infinity
    | _ -> error st "expected numeric literal")
  | _ -> error st "expected a literal"

let parse_col_constraints st =
  let rec go acc =
    if is_kw st "NOT" && peek_ahead st 1 = Token.Kw "NULL" then begin
      advance st;
      advance st;
      go (Ast.C_not_null :: acc)
    end
    else if is_kw st "PRIMARY" then begin
      advance st;
      expect_kw st "KEY";
      go (Ast.C_primary_key :: acc)
    end
    else if accept_kw st "UNIQUE" then go (Ast.C_unique :: acc)
    else if accept_kw st "DEFAULT" then go (Ast.C_default (parse_literal st) :: acc)
    else if accept_kw st "REFERENCES" then begin
      let parent = expect_ident st "table name" in
      let col =
        if accept_symbol st "(" then begin
          let c = expect_ident st "column name" in
          expect_symbol st ")";
          Some c
        end
        else None
      in
      go (Ast.C_references (parent, col) :: acc)
    end
    else if accept_kw st "CHECK" then begin
      expect_symbol st "(";
      let e = parse_expr st in
      expect_symbol st ")";
      go (Ast.C_check e :: acc)
    end
    else List.rev acc
  in
  go []

let parse_name_list st =
  expect_symbol st "(";
  let rec go acc =
    let c = expect_ident st "column name" in
    if accept_symbol st "," then go (c :: acc) else List.rev (c :: acc)
  in
  let names = go [] in
  expect_symbol st ")";
  names

let parse_on_delete st =
  if accept_kw st "ON" then begin
    expect_kw st "DELETE";
    if accept_kw st "CASCADE" then `Cascade
    else if accept_kw st "RESTRICT" then `Restrict
    else if accept_kw st "SET" then begin
      expect_kw st "NULL";
      `Set_null
    end
    else if accept_kw st "NO" then begin
      expect_kw st "ACTION";
      `Restrict
    end
    else error st "expected CASCADE, RESTRICT or SET NULL"
  end
  else `Restrict

let parse_table_constraint st =
  if is_kw st "PRIMARY" then begin
    advance st;
    expect_kw st "KEY";
    Some (Ast.T_primary_key (parse_name_list st))
  end
  else if accept_kw st "UNIQUE" then Some (Ast.T_unique (parse_name_list st))
  else if is_kw st "FOREIGN" then begin
    advance st;
    expect_kw st "KEY";
    let columns = parse_name_list st in
    expect_kw st "REFERENCES";
    let parent = expect_ident st "table name" in
    let parent_columns =
      if is_symbol st "(" then Some (parse_name_list st) else None
    in
    let on_delete = parse_on_delete st in
    Some (Ast.T_foreign_key { columns; parent; parent_columns; on_delete })
  end
  else if accept_kw st "CHECK" then begin
    expect_symbol st "(";
    let e = parse_expr st in
    expect_symbol st ")";
    Some (Ast.T_check e)
  end
  else None

let parse_create_table st =
  let ct_name = expect_ident st "table name" in
  expect_symbol st "(";
  let rec go cols constraints =
    match parse_table_constraint st with
    | Some c ->
      if accept_symbol st "," then go cols (c :: constraints)
      else (List.rev cols, List.rev (c :: constraints))
    | None ->
      let cd_name = expect_ident st "column name" in
      let cd_type = parse_col_type st in
      let cd_constraints = parse_col_constraints st in
      let col = { Ast.cd_name; cd_type; cd_constraints } in
      if accept_symbol st "," then go (col :: cols) constraints
      else (List.rev (col :: cols), List.rev constraints)
  in
  let ct_columns, ct_constraints = go [] [] in
  expect_symbol st ")";
  { Ast.ct_name; ct_columns; ct_constraints }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let parse_statement_inner st =
  match peek st with
  | Token.Kw "CREATE" -> (
    advance st;
    if accept_kw st "TABLE" then Ast.Stmt_create_table (parse_create_table st)
    else if accept_kw st "ASSERTION" then begin
      let name = expect_ident st "assertion name" in
      expect_kw st "CHECK";
      expect_symbol st "(";
      let e = parse_expr st in
      expect_symbol st ")";
      Ast.Stmt_create_assertion (name, e)
    end
    else if accept_kw st "RULE" then
      if accept_kw st "PRIORITY" then begin
        let high = expect_ident st "rule name" in
        expect_kw st "BEFORE";
        let low = expect_ident st "rule name" in
        Ast.Stmt_priority (high, low)
      end
      else begin
        let name = expect_ident st "rule name" in
        Ast.Stmt_create_rule (parse_rule_def st ~rule_name:name)
      end
    else if accept_kw st "INDEX" then begin
      let ix_name = expect_ident st "index name" in
      expect_kw st "ON";
      let ix_table = expect_ident st "table name" in
      match parse_name_list st with
      | [ ix_column ] ->
        let ix_kind =
          if accept_kw st "USING" then begin
            let kind = expect_ident st "index kind (HASH or ORDERED)" in
            match String.lowercase_ascii kind with
            | "hash" -> `Hash
            | "ordered" | "btree" -> `Ordered
            | _ ->
              error st
                (Printf.sprintf "unknown index kind %S: expected HASH or ORDERED"
                   kind)
          end
          else `Hash
        in
        Ast.Stmt_create_index { ix_name; ix_table; ix_column; ix_kind }
      | _ -> error st "indexes are single-column: expected exactly one column"
    end
    else error st "expected TABLE, RULE, ASSERTION or INDEX after CREATE")
  | Token.Kw "DROP" -> (
    advance st;
    if accept_kw st "TABLE" then Ast.Stmt_drop_table (expect_ident st "table name")
    else if accept_kw st "RULE" then Ast.Stmt_drop_rule (expect_ident st "rule name")
    else if accept_kw st "ASSERTION" then
      Ast.Stmt_drop_assertion (expect_ident st "assertion name")
    else if accept_kw st "INDEX" then
      Ast.Stmt_drop_index (expect_ident st "index name")
    else error st "expected TABLE, RULE, ASSERTION or INDEX after DROP")
  | Token.Kw "ACTIVATE" ->
    advance st;
    ignore (accept_kw st "RULE");
    Ast.Stmt_activate (expect_ident st "rule name")
  | Token.Kw "DEACTIVATE" ->
    advance st;
    ignore (accept_kw st "RULE");
    Ast.Stmt_deactivate (expect_ident st "rule name")
  | Token.Kw "BEGIN" ->
    advance st;
    Ast.Stmt_begin
  | Token.Kw "COMMIT" ->
    advance st;
    Ast.Stmt_commit
  | Token.Kw "ROLLBACK" ->
    advance st;
    Ast.Stmt_rollback
  | Token.Kw "PROCESS" ->
    advance st;
    expect_kw st "RULES";
    Ast.Stmt_process_rules
  | Token.Kw "SHOW" ->
    advance st;
    if accept_kw st "TABLES" then Ast.Stmt_show_tables
    else if accept_kw st "RULES" then Ast.Stmt_show_rules
    else error st "expected TABLES or RULES after SHOW"
  | Token.Kw "DESCRIBE" ->
    advance st;
    Ast.Stmt_describe (expect_ident st "table name")
  | Token.Kw "EXPLAIN" ->
    advance st;
    if accept_kw st "RULE" then
      Ast.Stmt_explain (Ast.Explain_rule (expect_ident st "rule name"))
    else Ast.Stmt_explain (Ast.Explain_op (parse_op st))
  | Token.Kw "PREPARE" ->
    advance st;
    let name = expect_ident st "prepared-statement name" in
    expect_kw st "AS";
    (* [parse_op] admits only DML, so a parameterized DDL body cannot
       slip in under PREPARE *)
    Ast.Stmt_prepare (name, parse_op st)
  | Token.Kw "EXECUTE" ->
    advance st;
    let name = expect_ident st "prepared-statement name" in
    let args =
      if accept_symbol st "(" then
        if accept_symbol st ")" then []
        else begin
          let rec go acc =
            let v = parse_literal st in
            if accept_symbol st "," then go (v :: acc) else List.rev (v :: acc)
          in
          let vs = go [] in
          expect_symbol st ")";
          vs
        end
      else []
    in
    Ast.Stmt_execute (name, args)
  | Token.Kw "DEALLOCATE" ->
    advance st;
    if accept_kw st "ALL" then Ast.Stmt_deallocate None
    else Ast.Stmt_deallocate (Some (expect_ident st "prepared-statement name"))
  | Token.Kw ("INSERT" | "DELETE" | "UPDATE" | "SELECT") ->
    Ast.Stmt_op (parse_op st)
  | _ -> error st "expected a statement"

(* Positional parameters bind through PREPARE only.  Everything else —
   DDL (which executes, and in the rule case compiles, at definition
   time), direct DML, EXPLAIN — gets a typed error rather than a
   misbound constant downstream. *)
let parse_statement st =
  st.nparams <- 0;
  let stmt = parse_statement_inner st in
  (if st.nparams > 0 then
     match stmt with
     | Ast.Stmt_prepare _ -> ()
     | Ast.Stmt_create_rule _ | Ast.Stmt_create_assertion _ ->
       Errors.raise_error
         (Errors.Parameter_error
            "positional parameters are not allowed in rule definitions \
             (rule bodies compile at DDL time)")
     | Ast.Stmt_op _ | Ast.Stmt_explain _ ->
       Errors.raise_error
         (Errors.Parameter_error
            "positional parameters are only allowed inside PREPARE ... AS")
     | _ ->
       Errors.raise_error
         (Errors.Parameter_error "positional parameters are not allowed in DDL"));
  stmt

let at_eof st = peek st = Token.Eof

(* Parse a ';'-separated script, each statement with the literal
   nodes it built from slot tokens. *)
let parse_script_traced src =
  let st = make src in
  let rec go acc =
    (* skip empty statements *)
    while is_symbol st ";" do
      advance st
    done;
    if at_eof st then List.rev acc
    else begin
      st.lits <- [];
      let stmt = parse_statement st in
      let lits = st.lits in
      if not (at_eof st) then expect_symbol st ";";
      go ((stmt, lits) :: acc)
    end
  in
  go []

let parse_script src = List.map fst (parse_script_traced src)

let parse_statement_string src =
  match parse_script src with
  | [ s ] -> s
  | [] -> Errors.semantic "empty statement"
  | _ -> Errors.semantic "expected a single statement"

let parse_expr_string src =
  let st = make src in
  let e = parse_expr st in
  if not (at_eof st) then error st "trailing input after expression";
  e

let parse_select_string src =
  let st = make src in
  let s = parse_select st in
  (* allow a trailing ';' *)
  ignore (accept_symbol st ";");
  if not (at_eof st) then error st "trailing input after select";
  s
