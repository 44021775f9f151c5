(* The rule engine against the Section 4 reference
   (test/reference_rules.ml).

   The differential runs one case on an engine and on the reference
   from the same committed state: the rules, the priorities, and a
   sequence of transactions, each one or more operation blocks with a
   triggering point between two (Section 5.3).  Per transaction it
   compares the outcome (committed, rolled back, or the kind of error)
   and the trace — external effect sizes, every consideration with its
   condition's verdict, every firing with its effect size, rollbacks,
   aborts and quiescence — and at the end the value digests of the two
   databases.  The generated cases are the rule sets of
   test/test_selection_orders.ml, a quarter of them with a pair of rules
   that undo each other's work, over generated blocks, under every
   selection strategy with select tracking on and off.

   The paper's examples run through the reference alone and must end
   as the paper says; Example 4.3's orders, explored by the reference,
   must reach the final states the engine's explorer finds. *)

open Core
open Helpers
module R = Reference_rules
module Orders = Test_selection_orders

type case = {
  setup : string; (* schema and data, one script *)
  ddl : string list; (* rules and priorities, in order *)
  txns : string list list; (* per transaction, its blocks *)
}

let parse_ops sql =
  List.map
    (function Ast.Stmt_op op -> op | _ -> invalid_arg "parse_ops: DML only")
    (Parser.parse_script sql)

let catalog (config : Engine.config) ddl =
  let rules, priorities =
    List.fold_left
      (fun (rules, priorities) sql ->
        match Parser.parse_statement_string sql with
        | Ast.Stmt_create_rule def -> (def :: rules, priorities)
        | Ast.Stmt_priority (high, low) -> (rules, (high, low) :: priorities)
        | _ -> invalid_arg "catalog: rules and priorities only")
      ([], []) ddl
  in
  R.catalog ~priorities:(List.rev priorities) ~strategy:config.Engine.strategy
    ~max_steps:config.Engine.max_steps ~track_selects:config.Engine.track_selects
    (List.rev rules)

let events eng =
  List.map
    (function
      | Engine.Ev_external { effect_size } -> R.External effect_size
      | Engine.Ev_considered { rule; condition_held } -> R.Considered (rule, condition_held)
      | Engine.Ev_fired { rule; effect_size } -> R.Fired (rule, effect_size)
      | Engine.Ev_rollback { rule } -> R.Rollback rule
      | Engine.Ev_abort _ -> R.Abort
      | Engine.Ev_quiescent -> R.Quiescent)
    (Engine.trace eng)

(* One transaction on the engine, as the reference runs it: a failing
   block rolls the transaction back. *)
let engine_txn eng segments =
  Engine.begin_txn eng;
  let submit sql = ignore (Engine.submit_ops eng (parse_ops sql)) in
  let rec go = function
    | [] -> Engine.commit eng
    | [ last ] ->
      submit last;
      Engine.commit eng
    | seg :: rest -> (
      submit seg;
      match Engine.process_rules eng with
      | Engine.Committed -> go rest
      | Engine.Rolled_back -> Engine.Rolled_back)
  in
  match go segments with
  | Engine.Committed -> R.Committed
  | Engine.Rolled_back -> R.Rolled_back_txn
  | exception Errors.Error e ->
    if Engine.in_transaction eng then Engine.rollback_txn eng;
    R.Failed e

(* Outcomes compare by error kind: the two evaluators may word a
   message apart. *)
let outcome_label = function
  | R.Committed -> "committed"
  | R.Rolled_back_txn -> "rolled back"
  | R.Failed (Errors.Rule_limit_exceeded { rule; steps }) ->
    Printf.sprintf "step limit (%s, %d)" rule steps
  | R.Failed (Errors.Type_error _) -> "type error"
  | R.Failed (Errors.Semantic_error _) -> "semantic error"
  | R.Failed e -> Errors.to_string e

let show (outcome, evs) =
  Fmt.str "%s: %a" outcome (Fmt.list ~sep:Fmt.semi R.pp_event) evs

(* What the differential saw, across every case run. *)
type tally = {
  mutable cases : int;
  mutable firings : int;
  mutable false_conditions : int;
  mutable rollbacks : int;
  mutable limits : int;
  mutable other_errors : int;
  mutable points : int; (* triggering points before commit *)
}

let tally =
  {
    cases = 0;
    firings = 0;
    false_conditions = 0;
    rollbacks = 0;
    limits = 0;
    other_errors = 0;
    points = 0;
  }

let count (outcome, evs) segments =
  List.iter
    (function
      | R.Fired _ -> tally.firings <- tally.firings + 1
      | R.Considered (_, false) -> tally.false_conditions <- tally.false_conditions + 1
      | _ -> ())
    evs;
  tally.points <- tally.points + List.length segments - 1;
  match outcome with
  | R.Committed -> ()
  | R.Rolled_back_txn -> tally.rollbacks <- tally.rollbacks + 1
  | R.Failed (Errors.Rule_limit_exceeded _) -> tally.limits <- tally.limits + 1
  | R.Failed _ -> tally.other_errors <- tally.other_errors + 1

(* Run [case] on the engine and on the reference; the reference's final
   state, or what differed first. *)
let differential ~config case =
  let s = system ~config case.setup in
  List.iter (run s) case.ddl;
  let eng = System.engine s in
  Engine.set_tracing eng true;
  let rec go r i = function
    | [] ->
      let de = Orders.digest (System.database s) and dr = Orders.digest (R.database r) in
      if de = dr then Ok (R.database r)
      else Error (Printf.sprintf "final states differ:\nengine:\n%s\nreference:\n%s" de dr)
    | segments :: rest ->
      let outcome = outcome_label (engine_txn eng segments) in
      let e = (outcome, events eng) in
      let r, outcome, evs = R.run_txn r (List.map parse_ops segments) in
      let f = (outcome_label outcome, evs) in
      tally.cases <- tally.cases + (if i = 0 then 1 else 0);
      count (outcome, evs) segments;
      if e <> f then
        Error
          (Printf.sprintf "transaction %d differs:\nengine:    %s\nreference: %s" (i + 1) (show e)
             (show f))
      else go r (i + 1) rest
  in
  let r = R.create (catalog config case.ddl) (System.database s) in
  go r 0 case.txns

(* ------------------------------------------------------------------ *)
(* Generated cases                                                     *)

(* A block of one to four statements over the generated rule sets'
   tables: inserts, updates (some of every row, so a row is often
   updated twice in one composite), deletes and (tracked or not)
   selects. *)
let gen_block st =
  let open QCheck.Gen in
  let sp = Printf.sprintf in
  let statement () =
    let t = Orders.tables.(int_bound 2 st) and n = int_bound 5 st in
    match int_bound 7 st with
    | 0 -> sp "insert into %s values (%d)" t n
    | 1 -> sp "insert into %s values (%d), (%d)" t n (int_bound 5 st)
    | 2 -> sp "update %s set x = x + 10 where x = %d" t n
    | 3 -> sp "update %s set x = x + 1 where x < %d" t n
    | 4 -> sp "update %s set x = x + 1" t
    | 5 -> sp "delete from %s where x = %d" t n
    | 6 -> sp "select x from %s where x > %d" t n
    | _ -> sp "select count(*) from %s" t
  in
  String.concat "; " (List.init (int_range 1 4 st) (fun _ -> statement ()))

(* Two rules that undo each other's work on one table: one deletes
   what is inserted, the other puts back what is deleted.  A rule's
   composite then often nets to nothing (an insert, then a delete of
   the same tuple, Section 2.2) while the transition as a whole does
   not. *)
let gen_undo_pair st =
  let t = Orders.tables.(QCheck.Gen.int_bound 2 st) and n = QCheck.Gen.int_bound 5 st in
  [
    Printf.sprintf "create rule undo_ins when inserted into %s then delete from %s where x > %d" t t n;
    Printf.sprintf
      "create rule undo_del when deleted from %s then insert into %s (select x from deleted %s)" t t
      t;
  ]

(* Two to five generated rules, a quarter of the time with an undo
   pair; one to three transactions, the first half the time the block
   that triggers every generated rule; a quarter of them have a
   triggering point. *)
let gen_case st =
  let open QCheck.Gen in
  let txn i =
    let first = if i = 0 && bool st then Orders.block else gen_block st in
    if int_bound 3 st = 0 then [ first; gen_block st ] else [ first ]
  in
  let ddl = Orders.gen_case ~max_rules:5 st in
  let ddl = if int_bound 3 st = 0 then ddl @ gen_undo_pair st else ddl in
  { setup = Orders.setup_sql; ddl; txns = List.init (int_range 1 3 st) txn }

let print_case c =
  String.concat "\n"
    (c.ddl
    @ List.mapi
        (fun i segs -> Printf.sprintf "-- transaction %d: %s" (i + 1) (String.concat " | process rules | " segs))
        c.txns)

let strategy_label = function
  | Selection.Creation_order -> "creation order"
  | Selection.Least_recently_considered -> "least recently considered"
  | Selection.Most_recently_considered -> "most recently considered"

(* 250 cases under each of the six configurations: 1,500 in all.  The
   configuration's index salts the generator, so the six properties
   draw different cases from one QCheck seed. *)
let prop_differential i (strategy, track_selects) =
  let config = { Engine.strategy; track_selects; max_steps = 5 } in
  QCheck.Test.make ~count:250
    ~name:
      (Printf.sprintf "engine = reference (%s, selects %s)" (strategy_label strategy)
         (if track_selects then "tracked" else "untracked"))
    (QCheck.make ~print:print_case (fun st ->
         gen_case (Random.State.make [| Random.State.bits st; i |])))
    (fun case ->
      match differential ~config case with
      | Ok _ -> true
      | Error diff -> QCheck.Test.fail_reportf "%s" diff)

let configurations =
  List.concat_map
    (fun strategy -> [ (strategy, false); (strategy, true) ])
    [
      Selection.Creation_order;
      Selection.Least_recently_considered;
      Selection.Most_recently_considered;
    ]

(* The cases exercised what they are for (runs after the properties:
   Alcotest executes a suite in order). *)
let test_not_vacuous () =
  let at_least what n got =
    Alcotest.(check bool) (Printf.sprintf "%s: %d >= %d" what got n) true (got >= n)
  in
  at_least "cases" 1000 tally.cases;
  at_least "firings" 1000 tally.firings;
  at_least "false conditions" 300 tally.false_conditions;
  at_least "rule rollbacks" 1 tally.rollbacks;
  at_least "step limits" 10 tally.limits;
  at_least "other errors" 1 tally.other_errors;
  at_least "triggering points" 200 tally.points

(* ------------------------------------------------------------------ *)
(* The paper's examples through the reference                          *)

let with_data data = paper_schema ^ ";\n" ^ data

(* The paper's Examples 3.1, 4.1 and 4.2 as cases (the config matrix
   runs them too). *)
let example_3_1 =
  {
    setup =
      with_data
        "insert into dept values (1, 100), (2, 200), (3, 300);\n\
         insert into emp values ('a', 1, 10000, 1), ('b', 2, 10000, 2), ('c', 3, 10000, 2), ('d', \
         4, 10000, 3)";
    ddl = [ Test_paper_examples.rule_31 ];
    txns = [ [ "delete from dept where dept_no in (1, 2)" ] ];
  }

let example_4_1 =
  {
    setup =
      with_data
        "insert into dept values (1, 100), (2, 200), (3, 300);\n\
         insert into emp values ('Jane', 100, 60000, 0), ('Mary', 200, 70000, 1), ('Jim', 300, \
         40000, 1), ('Bill', 400, 25000, 2), ('Sam', 500, 30000, 3), ('Sue', 600, 30000, 3)";
    ddl = [ Test_paper_examples.rule_41 ];
    txns = [ [ "delete from emp where emp_no = 100" ] ];
  }

let example_4_2 =
  {
    setup = with_data "insert into emp values ('Bill', 1, 25000, 1), ('Mary', 2, 70000, 1)";
    ddl = [ Test_paper_examples.rule_42 ];
    txns =
      [
        [
          "update emp set salary = 30000 where emp_no = 1; update emp set salary = 85000 where \
           emp_no = 2";
        ];
      ];
  }

(* [case] through the reference alone: its outcomes and final state. *)
let reference_run case =
  let r = R.create (catalog Engine.default_config case.ddl) (System.database (system case.setup)) in
  let r, outcomes =
    List.fold_left
      (fun (r, outcomes) segments ->
        let r, outcome, _ = R.run_txn r (List.map parse_ops segments) in
        (r, outcomes @ [ outcome_label outcome ]))
      (r, []) case.txns
  in
  (outcomes, R.database r)

let names db =
  List.sort String.compare
    (List.map
       (fun row -> match row.(0) with Value.Str name -> name | v -> Value.to_string v)
       (Table.rows (Database.table db "emp")))

let count_rows db t = Table.cardinality (Database.table db t)

(* Example 3.1: both departments' employees go in one firing. *)
let test_example_3_1 () =
  let outcomes, db = reference_run example_3_1 in
  Alcotest.(check (list string)) "committed" [ "committed" ] outcomes;
  Alcotest.(check (list string)) "only dept 3 employees remain" [ "d" ] (names db);
  Alcotest.(check int) "one department left" 1 (count_rows db "dept")

(* Example 4.1: deleting Jane cascades down the whole hierarchy. *)
let test_example_4_1 () =
  let outcomes, db = reference_run example_4_1 in
  Alcotest.(check (list string)) "committed" [ "committed" ] outcomes;
  Alcotest.(check (list string)) "everyone reporting to Jane is gone" [] (names db);
  Alcotest.(check int) "and their departments" 0 (count_rows db "dept")

(* Example 4.2: the composite of two updates averages above 50000, so
   the employee over 80000 goes. *)
let test_example_4_2 () =
  let outcomes, db = reference_run example_4_2 in
  Alcotest.(check (list string)) "committed" [ "committed" ] outcomes;
  Alcotest.(check (list string)) "Mary is deleted" [ "Bill" ] (names db)

(* Example 4.3: every order the reference allows ends where the
   engine's explorer finds the engine's orders end. *)
let test_example_4_3 ~priority () =
  let s = Orders.ex43_system ~priority in
  let engine = Orders.explore s Orders.ex43_block in
  let cat =
    catalog Engine.default_config
      ([ Test_paper_examples.rule_41; Test_paper_examples.rule_42 ]
      @ if priority then [ "create rule priority ex42 before ex41" ] else [])
  in
  let finals, over = R.explore cat (System.database s) (parse_ops Orders.ex43_block) in
  let digests =
    List.sort_uniq String.compare
      (List.map (function Some db -> Orders.digest db | None -> "rollback") finals)
  in
  Alcotest.(check (list string)) "the same final states"
    (List.map fst (Orders.Str_map.bindings engine.Orders.finals))
    digests;
  Alcotest.(check (list (list string))) "no divergence" engine.Orders.over_limit over;
  Alcotest.(check bool) "every order explored" true (List.length finals + List.length over >= engine.Orders.orders)

let suite =
  [
    Alcotest.test_case "example 3.1 ends as the paper says" `Quick test_example_3_1;
    Alcotest.test_case "example 4.1 ends as the paper says" `Quick test_example_4_1;
    Alcotest.test_case "example 4.2 ends as the paper says" `Quick test_example_4_2;
    Alcotest.test_case "example 4.3 with priority: the explored orders" `Quick
      (test_example_4_3 ~priority:true);
    Alcotest.test_case "example 4.3 without priority: the explored orders" `Quick
      (test_example_4_3 ~priority:false);
  ]
  @ List.mapi (fun i c -> qtest (prop_differential i c)) configurations
  @ [ Alcotest.test_case "the differential is not vacuous" `Quick test_not_vacuous ]
