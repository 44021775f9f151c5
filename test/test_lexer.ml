(* Lexer tests. *)

open Helpers

module Token = Sqlf.Token

let tokens src =
  List.filter_map
    (fun { Token.token; _ } ->
      match token with Token.Eof -> None | t -> Some t)
    (stream_tokens src)

let token_testable =
  Alcotest.testable
    (fun ppf t -> Fmt.string ppf (Token.to_string t))
    (fun a b -> a = b)

let check_tokens = Alcotest.(check (list token_testable))

let test_keywords_and_idents () =
  check_tokens "mixed case keywords"
    [ Token.Kw "SELECT"; Token.Kw "FROM"; Token.Ident "emp" ]
    (tokens "SeLeCt fRoM emp");
  check_tokens "ident with underscore"
    [ Token.Ident "dept_no" ]
    (tokens "dept_no");
  check_tokens "keyword-prefixed ident"
    [ Token.Ident "selection" ]
    (tokens "selection")

let test_numbers () =
  check_tokens "int" [ Token.Int_lit 42 ] (tokens "42");
  check_tokens "float" [ Token.Float_lit 4.5 ] (tokens "4.5");
  check_tokens "exponent" [ Token.Float_lit 1e3 ] (tokens "1e3");
  check_tokens "neg exponent" [ Token.Float_lit 2.5e-2 ] (tokens "2.5e-2");
  check_tokens "dot access stays int"
    [ Token.Ident "t"; Token.Symbol "."; Token.Ident "c" ]
    (tokens "t.c")

let test_strings () =
  check_tokens "simple" [ Token.Str_lit "abc" ] (tokens "'abc'");
  check_tokens "escaped quote" [ Token.Str_lit "it's" ] (tokens "'it''s'");
  check_tokens "empty" [ Token.Str_lit "" ] (tokens "''");
  expect_error (fun () -> tokens "'unterminated")

let test_symbols () =
  check_tokens "comparison ops"
    [
      Token.Symbol "<="; Token.Symbol ">="; Token.Symbol "<>"; Token.Symbol "<";
      Token.Symbol ">"; Token.Symbol "=";
    ]
    (tokens "<= >= <> < > =");
  check_tokens "bang equals" [ Token.Symbol "<>" ] (tokens "!=");
  check_tokens "concat" [ Token.Symbol "||" ] (tokens "||");
  check_tokens "arith"
    [ Token.Symbol "+"; Token.Symbol "-"; Token.Symbol "*"; Token.Symbol "/" ]
    (tokens "+ - * /");
  expect_error (fun () -> tokens "select @")

let test_comments () =
  check_tokens "line comment"
    [ Token.Kw "SELECT"; Token.Int_lit 1 ]
    (tokens "select -- comment here\n 1");
  check_tokens "block comment"
    [ Token.Kw "SELECT"; Token.Int_lit 1 ]
    (tokens "select /* multi\nline */ 1");
  expect_error (fun () -> tokens "/* unterminated")

let test_positions () =
  let toks = stream_tokens "select\n  foo" in
  match toks with
  | [ sel; foo; _eof ] ->
    Alcotest.(check int) "line 1" 1 sel.Token.line;
    Alcotest.(check int) "line 2" 2 foo.Token.line;
    Alcotest.(check int) "col 3" 3 foo.Token.col
  | _ -> Alcotest.fail "unexpected token count"

let suite =
  [
    Alcotest.test_case "keywords and identifiers" `Quick test_keywords_and_idents;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "symbols" `Quick test_symbols;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "positions" `Quick test_positions;
  ]
