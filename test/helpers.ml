(* Shared helpers for the test suites. *)

open Core

let value_testable =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Value.to_string v)) Value.equal

let row_testable =
  Alcotest.testable (fun ppf r -> Fmt.string ppf (Row.to_string r)) Row.equal

let rows_testable = Alcotest.list row_testable

(* Build a fresh system and run a setup script. *)
let system ?config script =
  let s = System.create ?config () in
  ignore (System.exec s script);
  s

(* The emp/dept schema used throughout the paper's examples. *)
let paper_schema =
  "create table emp (name string, emp_no int, salary float, dept_no int);\n\
   create table dept (dept_no int, mgr_no int)"

let paper_system ?config () = system ?config paper_schema

let run s sql = ignore (System.exec s sql)

(* Run a query and return the rows. *)
let rows s sql = snd (System.query s sql)

(* Run a query and return the single cell. *)
let cell s sql = System.query_value s sql

let int_cell s sql =
  match cell s sql with
  | Value.Int n -> n
  | v -> Alcotest.failf "expected int cell, got %s" (Value.to_string v)

let float_cell s sql =
  match cell s sql with
  | Value.Float f -> f
  | Value.Int n -> float_of_int n
  | v -> Alcotest.failf "expected numeric cell, got %s" (Value.to_string v)

let string_list_cells s sql =
  List.map
    (fun row ->
      match row with
      | [| Value.Str name |] -> name
      | _ -> Alcotest.failf "expected single string column")
    (rows s sql)

(* Expect that evaluating [f] raises an [Errors.Error]. *)
let expect_error f =
  match f () with
  | _ -> Alcotest.fail "expected an error"
  | exception Errors.Error _ -> ()

let check_outcome = Alcotest.(check bool)

let committed = function
  | System.Outcome Engine.Committed -> true
  | System.Outcome Engine.Rolled_back -> false
  | System.Msg _ | System.Relation _ -> true

(* Execute one SQL statement and report whether the transaction
   committed. *)
let exec_committed s sql =
  List.for_all committed (System.exec s sql)

let vi n = Value.Int n
let vf f = Value.Float f
let vs s = Value.Str s
let vb b = Value.Bool b
let vnull = Value.Null

let qtest = QCheck_alcotest.to_alcotest

(* Single-operation effects, built as the engine builds them: from the
   affected set an operation returns, old rows included. *)
let eff_ins hs = Effect.of_affected (Sqlf.Dml.A_insert hs)
let eff_del pairs = Effect.of_affected (Sqlf.Dml.A_delete pairs)
let eff_upd triples = Effect.of_affected (Sqlf.Dml.A_update triples)
let eff_sel reads = Effect.of_affected (Sqlf.Dml.A_select reads)

(* Every token of [src] through the lexer's streaming interface, ending
   with the [Eof] token. *)
let stream_tokens src =
  let st = Sqlf.Lexer.make src in
  let rec go acc =
    let tok = Sqlf.Lexer.next_token st in
    match tok.Sqlf.Token.token with
    | Sqlf.Token.Eof -> List.rev (tok :: acc)
    | _ -> go (tok :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Seed plumbing for the randomized suites.

   Every suite that derives work from a PRNG seed routes it through
   here, so a failing run can be reproduced with

     SOPR_SEED=<n> dune runtest

   The override narrows a suite's seed list to the one given seed (or,
   via [seed_streams], replaces it with as many seeds counting up from
   it); [with_seed_reported] prints the seed of the failing iteration on any
   exception, before re-raising it for the framework to report. *)

let seed_env = "SOPR_SEED"

let seed_override () =
  match Sys.getenv_opt seed_env with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None ->
      invalid_arg (Printf.sprintf "%s=%S is not an integer" seed_env s))

(* A suite's deterministic seed list, narrowed by the override. *)
let seeds ~default = match seed_override () with Some s -> [ s ] | None -> default

(* A suite's seed list with the override [s] expanded to as many
   streams [s], [s + 1], ... as the default list has, for a suite whose
   checks bound the total work driven. *)
let seed_streams ~default =
  match seed_override () with
  | Some s -> List.mapi (fun i _ -> s + i) default
  | None -> default

(* A suite's single seed, replaced by the override. *)
let seed ~default = Option.value (seed_override ()) ~default

let with_seed_reported s f =
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Printf.eprintf "\n[seed] failing under seed %d — reproduce with %s=%d\n%!"
      s seed_env s;
    Printexc.raise_with_backtrace e bt

(* qcheck properties read QCHECK_SEED; bridge the override to it so one
   variable reproduces every randomized suite. *)
let () =
  match (seed_override (), Sys.getenv_opt "QCHECK_SEED") with
  | Some s, None -> Unix.putenv "QCHECK_SEED" (string_of_int s)
  | _ -> ()
