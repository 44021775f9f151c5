(* An explorer of every selection order.

   Figure 1 lets the engine pick any triggered rule that no other
   triggered rule precedes in the declared priority order; the
   strategy only breaks that tie.  [explore] runs a depth-first search
   over [Engine.candidates]/[Engine.step] that branches on every
   eligible rule ([Selection.eligible]).  The processing state is
   persistent, so a branch keeps its parent state as it is and costs
   no copy.  The search reports the final states every order reaches
   (a rollback counts as one, and so does an error) and every path that runs more than
   [config.max_steps] actions.

   The cases pin the worked examples' confluence (Example 4.3 with and
   without its priority), a divergent rule pair, and, over generated
   rule sets, that the order the engine actually takes is among the
   explored ones. *)

open Helpers
open Core
module Selection = Rules.Selection
module Str_map = Map.Make (String)

(* A value-only rendering of a database state: every table's rows,
   sorted, so states reached along different orders compare equal
   whatever handles their rows got. *)
let digest db =
  List.sort String.compare (Database.table_names db)
  |> List.map (fun name ->
         let rows = Table.rows (Database.table db name) in
         let rows = List.sort String.compare (List.map Row.to_string rows) in
         name ^ ":" ^ String.concat ";" rows)
  |> String.concat "\n"

type final = Final of Database.t | Rolled_back | Failed

type exploration = {
  finals : final Str_map.t;
      (** by digest; ["rollback"] for a rollback, ["error"] for an error *)
  over_limit : string list list;  (** considered rules, in order *)
  orders : int;  (** complete orders explored *)
  steps_taken : int;  (** calls of [Engine.step], for a work budget *)
}

(* Explore every selection order of rule processing for the external
   block [sql], inside a transaction that is rolled back afterwards.
   [budget] caps the number of steps; the search stops early (and
   [steps_taken] exceeds it) past that. *)
let explore ?(budget = max_int) s sql =
  let eng = System.engine s in
  let ops =
    List.map
      (function Ast.Stmt_op op -> op | _ -> invalid_arg "explore: DML only")
      (Parser.parse_script sql)
  in
  Engine.begin_txn eng;
  ignore (Engine.submit_ops eng ops);
  let finals = ref Str_map.empty and over = ref [] in
  let orders = ref 0 and taken = ref 0 in
  let final key v =
    incr orders;
    finals := Str_map.add key v !finals
  in
  let rec go path (p : Engine.processing) =
    match Selection.eligible (Engine.priorities eng) (Engine.candidates p) with
    | [] -> final (digest p.Engine.p_db) (Final p.Engine.p_db)
    | eligible ->
      List.iter
        (fun (r : Rules.Rule.t) ->
          let path = r.Rules.Rule.name :: path in
          incr taken;
          if !taken <= budget then
            match Engine.step eng p r with
            | Engine.Next p' -> go path p'
            | Engine.Rollback -> final "rollback" Rolled_back
            | exception Errors.Error (Errors.Rule_limit_exceeded _) ->
              incr orders;
              over := List.rev path :: !over
            | exception Errors.Error _ -> final "error" Failed)
        eligible
  in
  go [] (Engine.start eng);
  Engine.rollback_txn eng;
  {
    finals = !finals;
    over_limit = List.rev !over;
    orders = !orders;
    steps_taken = !taken;
  }

let count_rows db table = Table.cardinality (Database.table db table)

(* ------------------------------------------------------------------ *)
(* The worked examples                                                 *)

let ex43_block =
  "delete from emp where emp_no = 100; update emp set salary = 85000 where \
   emp_no = 200; update emp set salary = 40000 where emp_no = 400"

let ex43_system ~priority =
  let s = paper_system () in
  run s Test_paper_examples.rule_41;
  run s Test_paper_examples.rule_42;
  if priority then run s "create rule priority ex42 before ex41";
  Test_paper_examples.org_setup s;
  s

(* With R2 before R1, the priority leaves one eligible rule at every
   point, so there is exactly one order and one final state: the one
   the engine reaches. *)
let test_ex43_priority_one_final () =
  let s = ex43_system ~priority:true in
  let x = explore s ex43_block in
  Alcotest.(check int) "one final state" 1 (Str_map.cardinal x.finals);
  Alcotest.(check (list (list string))) "no divergence" [] x.over_limit;
  ignore (System.exec_block s ex43_block);
  Alcotest.(check (list string))
    "it is the engine's" [ digest (System.database s) ]
    (List.map fst (Str_map.bindings x.finals))

(* Without the priority both rules are eligible after the block, and
   every order still empties emp and dept: the cascade covers the
   whole tree whichever rule goes first. *)
let test_ex43_every_order_empties () =
  let s = ex43_system ~priority:false in
  let x = explore s ex43_block in
  Alcotest.(check bool) "several orders explored" true (x.orders > 1);
  Alcotest.(check (list (list string))) "no divergence" [] x.over_limit;
  Str_map.iter
    (fun _ -> function
      | Rolled_back | Failed -> Alcotest.fail "no rule rolls back or fails"
      | Final db ->
        Alcotest.(check (pair int int))
          "emp and dept empty" (0, 0)
          (count_rows db "emp", count_rows db "dept"))
    x.finals;
  Alcotest.(check int) "and they agree" 1 (Str_map.cardinal x.finals)

(* Two rules that trigger each other forever: every order runs past
   the step limit and none reaches a final state. *)
let test_ping_pong_over_limit () =
  let config = { Engine.default_config with Engine.max_steps = 6 } in
  let s = system ~config "create table a (x int);\ncreate table b (x int)" in
  run s "create rule ping when inserted into a then insert into b values (1)";
  run s "create rule pong when inserted into b then insert into a values (1)";
  let x = explore s "insert into a values (0)" in
  Alcotest.(check int) "no final state" 0 (Str_map.cardinal x.finals);
  match x.over_limit with
  | [ path ] ->
    Alcotest.(check (list string))
      "the one path alternates"
      [ "ping"; "pong"; "ping"; "pong"; "ping"; "pong"; "ping" ]
      path
  | paths -> Alcotest.failf "expected one path, got %d" (List.length paths)

(* ------------------------------------------------------------------ *)
(* Generated rule sets: the engine's order is one of the explored      *)

let tables = [| "t0"; "t1"; "t2" |]

(* Rule [g<i>]: triggered by one operation on one table (a third of
   the time, or by an insert into another), with an optional condition
   on a table's count or on its transition table, writing one table
   (possibly from its transition table, old or new values of updated
   rows alike) or rolling back. *)
let gen_rule st i =
  let open QCheck.Gen in
  let sp = Printf.sprintf in
  let tbl () = tables.(int_bound 2 st) in
  let src = tbl () and dst = tbl () in
  let n () = int_bound 5 st in
  let pred, trans =
    match int_bound 4 st with
    | 0 -> (sp "inserted into %s" src, sp "inserted %s" src)
    | 1 -> (sp "deleted from %s" src, sp "deleted %s" src)
    | 2 | 3 ->
      let on = if bool st then sp "%s.x" src else src in
      (sp "updated %s" on, sp "%s updated %s" (if bool st then "old" else "new") on)
    | _ ->
      let on = if bool st then sp "%s.x" src else src in
      (sp "selected %s" on, sp "selected %s" on)
  in
  let pred = if int_bound 2 st = 0 then sp "%s or inserted into %s" pred (tbl ()) else pred in
  let cond =
    match int_bound 3 st with
    | 0 | 1 -> ""
    | 2 -> sp " if (select count(*) from %s) < %d" (tbl ()) (1 + n ())
    | _ -> sp " if exists (select * from %s where x > %d)" trans (n ())
  in
  let action =
    match int_bound 4 st with
    | 0 -> sp "insert into %s values (%d)" dst (n ())
    | 1 -> sp "insert into %s (select x + 1 from %s)" dst trans
    | 2 -> sp "delete from %s where x = %d" dst (n ())
    | 3 -> sp "update %s set x = x + 1 where x < %d" dst (n ())
    | _ -> (
      match int_bound 5 st with
      | 0 -> "rollback"
      | 1 -> sp "update %s set x = 10 / (x - %d) where x < 6" dst (n ())
      | _ -> sp "delete from %s" dst)
  in
  sp "create rule g%d when %s%s then %s" i pred cond action

(* Two to [max_rules] (by default four) rules, and half the time a
   priority between two (with three or more rules, sometimes a chain of
   two). *)
let gen_case ?(max_rules = 4) st =
  let open QCheck.Gen in
  let rules = List.init (int_range 2 max_rules st) (gen_rule st) in
  let priorities =
    (if bool st then [ "create rule priority g1 before g0" ] else [])
    @ if List.length rules > 2 && bool st then [ "create rule priority g2 before g1" ] else []
  in
  rules @ priorities

let setup_sql =
  String.concat ";\n"
    (List.concat_map
       (fun t ->
         [
           Printf.sprintf "create table %s (x int)" t;
           Printf.sprintf "insert into %s values (1), (2), (3)" t;
         ])
       (Array.to_list tables))

(* The external block inserts, updates and deletes in every table, so
   every generated rule is triggered to begin with. *)
let block =
  String.concat "; "
    (List.concat_map
       (fun t ->
         [
           Printf.sprintf "insert into %s values (4)" t;
           Printf.sprintf "update %s set x = x + 10 where x = 1" t;
           Printf.sprintf "delete from %s where x = 3" t;
         ])
       (Array.to_list tables))

let prop_engine_order_explored =
  let config = { Engine.default_config with Engine.max_steps = 3 } in
  QCheck.Test.make ~name:"the creation-order run is among the explored orders"
    ~count:60
    (QCheck.make ~print:(String.concat "\n") gen_case)
    (fun ddl ->
      let fresh () =
        let s = system ~config setup_sql in
        List.iter (run s) ddl;
        s
      in
      let x = explore ~budget:20_000 (fresh ()) block in
      QCheck.assume (x.steps_taken <= 20_000);
      let s = fresh () in
      match System.exec_block s block with
      | Engine.Committed, _ ->
        Str_map.mem (digest (System.database s)) x.finals
      | Engine.Rolled_back, _ -> Str_map.mem "rollback" x.finals
      | exception Errors.Error (Errors.Rule_limit_exceeded _) ->
        x.over_limit <> []
      | exception Errors.Error _ -> Str_map.mem "error" x.finals)

let suite =
  [
    Alcotest.test_case "example 4.3 with priority: one final state" `Quick
      test_ex43_priority_one_final;
    Alcotest.test_case "example 4.3 without priority: every order empties"
      `Quick test_ex43_every_order_empties;
    Alcotest.test_case "ping-pong runs past max_steps" `Quick
      test_ping_pong_over_limit;
    qtest prop_engine_order_explored;
  ]
