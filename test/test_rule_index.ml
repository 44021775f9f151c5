(* Rule discrimination index (PR 7).

   Layers:

   - unit tests of the index structure itself (registration keys,
     wildcard vs per-column update/select posting lists, incremental
     add/remove);
   - a qcheck property that [Rule_index.matching] is sound AND complete
     against the linear triggering filter: for randomized rule sets and
     composed effects, membership in the matched set coincides exactly
     with [Effect.satisfies_any];
   - engine-level regressions for the subtle paths the index rewiring
     introduced, each also run against the Section 4 reference
     (test/reference_rules.ml): rules woken mid-processing by a rule
     firing catch up on the composite transition (insert-then-delete
     netting must still cancel), the acting rule's per-rule state
     always restarts, and DDL-generation mismatches rebuild the index;
   - the two stale-state bugfixes: dropping and recreating a rule
     resets its consideration recency (fair selection under
     least-recently-considered), and bulk rule creation is linear — a
     structural sharing assertion, not a wall-clock one;
   - the observability counters ([rules skipped] is exactly the
     non-woken remainder, per candidate scan the reference's trace
     counts). *)

open Helpers
open Core
module Rule = Rules.Rule
module Rule_index = Rules.Rule_index
module Selection = Rules.Selection

(* Matching reads handles and columns only: a placeholder old row. *)
let old = [| vi 0 |]

let rule_def ?condition name preds action =
  { Ast.rule_name = name; trans_preds = preds; condition; action }

let mk_rule ~seq ?condition name preds =
  Rule.create ~seq (rule_def ?condition name preds Ast.Act_rollback)

let names_of set = Rule_index.Str_set.elements set

let check_names label expected set =
  Alcotest.(check (list string)) label expected (names_of set)

(* ------------------------------------------------------------------ *)
(* Index structure units                                               *)

let test_keys_of_rule () =
  let r =
    mk_rule ~seq:1 "r"
      [
        Ast.Tp_updated ("t", Some "a");
        Ast.Tp_inserted "t";
        Ast.Tp_updated ("t", None);
        Ast.Tp_selected ("u", Some "b");
        Ast.Tp_inserted "t" (* duplicate: deduplicated *);
      ]
  in
  let rendered = List.map Rule_index.key_to_string (Rule_index.keys_of_rule r) in
  Alcotest.(check (list string))
    "stable, deduplicated rendering"
    [ "insert(t)"; "update(t.*)"; "update(t.a)"; "select(u.b)" ]
    rendered

let test_matching_posting_lists () =
  let r_ins = mk_rule ~seq:1 "r_ins" [ Ast.Tp_inserted "t" ] in
  let r_del = mk_rule ~seq:2 "r_del" [ Ast.Tp_deleted "t" ] in
  let r_upd_a = mk_rule ~seq:3 "r_upd_a" [ Ast.Tp_updated ("t", Some "a") ] in
  let r_upd_any = mk_rule ~seq:4 "r_upd_any" [ Ast.Tp_updated ("t", None) ] in
  let r_sel_b = mk_rule ~seq:5 "r_sel_b" [ Ast.Tp_selected ("u", Some "b") ] in
  let idx =
    Rule_index.rebuild ~generation:0
      [ r_ins; r_del; r_upd_a; r_upd_any; r_sel_b ]
  in
  Alcotest.(check int) "registered" 5 (Rule_index.registered idx);
  let ht = Handle.fresh "t" and hu = Handle.fresh "u" in
  check_names "insert t" [ "r_ins" ]
    (Rule_index.matching idx (eff_ins [ ht ]));
  check_names "update t.a hits column and wildcard"
    [ "r_upd_a"; "r_upd_any" ]
    (Rule_index.matching idx (eff_upd [ (ht, [ "a" ], old) ]));
  check_names "update t.b hits wildcard only" [ "r_upd_any" ]
    (Rule_index.matching idx (eff_upd [ (ht, [ "b" ], old) ]));
  check_names "select u.b" [ "r_sel_b" ]
    (Rule_index.matching idx (eff_sel [ ([ "b" ], [ hu ]) ]));
  check_names "select u.c misses" []
    (Rule_index.matching idx (eff_sel [ ([ "c" ], [ hu ]) ]));
  let composite =
    Effect.compose
      (eff_del [ (ht, old) ])
      (eff_upd [ (ht, [ "a" ], old) ])
  in
  check_names "composite unions per-op matches"
    [ "r_del"; "r_upd_a"; "r_upd_any" ]
    (Rule_index.matching idx composite);
  (* incremental removal unregisters every key of the rule *)
  Rule_index.remove idx r_upd_any;
  Alcotest.(check int) "registered after remove" 4
    (Rule_index.registered idx);
  check_names "update t.b after removing wildcard rule" []
    (Rule_index.matching idx (eff_upd [ (ht, [ "b" ], old) ]));
  Rule_index.add idx r_upd_any;
  check_names "re-added" [ "r_upd_any" ]
    (Rule_index.matching idx (eff_upd [ (ht, [ "b" ], old) ]))

(* ------------------------------------------------------------------ *)
(* Soundness and completeness property                                 *)

(* Small vocabularies so collisions (several rules on one key, effects
   touching registered and unregistered keys) are frequent. *)
let prop_tables = [| "t0"; "t1"; "t2" |]
let prop_cols = [| "a"; "b"; "c" |]

let gen_pred st =
  let open QCheck.Gen in
  let t = prop_tables.(int_bound 2 st) in
  let col st = if bool st then None else Some prop_cols.(int_bound 2 st) in
  match int_bound 3 st with
  | 0 -> Ast.Tp_inserted t
  | 1 -> Ast.Tp_deleted t
  | 2 -> Ast.Tp_updated (t, col st)
  | _ -> Ast.Tp_selected (t, col st)

let gen_rules st =
  let open QCheck.Gen in
  let n = 1 + int_bound 19 st in
  List.init n (fun i ->
      let preds = List.init (1 + int_bound 2 st) (fun _ -> gen_pred st) in
      mk_rule ~seq:(i + 1) (Printf.sprintf "r%d" i) preds)

(* A composed effect over a small handle pool, so insert-then-delete
   netting and multi-table composites occur. *)
let gen_effect st =
  let open QCheck.Gen in
  let pool =
    Array.init 6 (fun i -> Handle.fresh prop_tables.(i mod Array.length prop_tables))
  in
  let one st =
    let h = pool.(int_bound (Array.length pool - 1) st) in
    match int_bound 3 st with
    | 0 -> eff_ins [ h ]
    | 1 -> eff_del [ (h, old) ]
    | 2 -> eff_upd [ (h, [ prop_cols.(int_bound 2 st) ], old) ]
    | _ -> eff_sel [ ([ prop_cols.(int_bound 2 st) ], [ h ]) ]
  in
  List.fold_left
    (fun acc e -> Effect.compose acc e)
    Effect.empty
    (List.init (int_bound 7 st) (fun _ -> one st))

let print_case (rules, eff) =
  let rule_str r =
    Printf.sprintf "%s: [%s]" r.Rule.name
      (String.concat "; "
         (List.map
            (fun k -> Rule_index.key_to_string k)
            (Rule_index.keys_of_rule r)))
  in
  Printf.sprintf "rules = %s\neffect = %s"
    (String.concat " | " (List.map rule_str rules))
    (Format.asprintf "%a" Effect.pp eff)

let prop_sound_complete =
  QCheck.Test.make ~name:"matching = { r | satisfies_any eff (preds r) }"
    ~count:500
    (QCheck.make ~print:print_case (fun st -> (gen_rules st, gen_effect st)))
    (fun (rules, eff) ->
      let idx = Rule_index.rebuild ~generation:0 rules in
      let matched = Rule_index.matching idx eff in
      List.for_all
        (fun r ->
          Rule_index.Str_set.mem r.Rule.name matched
          = Effect.satisfies_any eff (Rule.trans_preds r))
        rules)

(* ------------------------------------------------------------------ *)
(* Select tracking: the index on statements' effects                   *)

(* Under select tracking, one transaction reads column [a] of [s],
   updates column [a] of [u] and only deletes from [d].  Rules are
   registered on every kind of key of the three tables, matching and
   not. *)
let tracked_rules =
  [
    ("sel_s", Ast.Tp_selected ("s", None));
    ("sel_s_a", Ast.Tp_selected ("s", Some "a"));
    ("sel_s_b", Ast.Tp_selected ("s", Some "b"));
    ("del_s", Ast.Tp_deleted "s");
    ("upd_u", Ast.Tp_updated ("u", None));
    ("upd_u_a", Ast.Tp_updated ("u", Some "a"));
    ("upd_u_b", Ast.Tp_updated ("u", Some "b"));
    ("ins_u", Ast.Tp_inserted "u");
    ("sel_u", Ast.Tp_selected ("u", None));
    ("del_d", Ast.Tp_deleted "d");
    ("ins_d", Ast.Tp_inserted "d");
    ("upd_d", Ast.Tp_updated ("d", None));
    ("sel_d", Ast.Tp_selected ("d", None));
  ]

let tracked_expected = [ "del_d"; "sel_s"; "sel_s_a"; "upd_u"; "upd_u_a" ]

let tracked_setup =
  List.map
    (fun t -> Printf.sprintf "insert into %s values (1, 10), (2, 20)" t)
    [ "s"; "u"; "d" ]

let tracked_txn =
  [
    "select a from s where a >= 0";
    "update u set a = a + 1 where a >= 0";
    "delete from d where a = 1";
  ]

let parse_op sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_op op -> op
  | _ -> Alcotest.fail "expected a DML statement"

(* The transaction's effect, composed from its statements' affected
   sets as the engine composes them. *)
let tracked_effect () =
  let table name =
    Schema.table name
      [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_int ]
  in
  let exec (db, eff) sql =
    let r =
      Sqlf.Dml.exec_cop ~track_selects:true Eval.no_transitions db
        (Sqlf.Dml.compile_op db (parse_op sql))
    in
    (r.Sqlf.Dml.db, Effect.compose eff (Effect.of_affected r.Sqlf.Dml.affected))
  in
  let db =
    List.fold_left
      (fun db t -> Database.create_table db (table t))
      Database.empty [ "s"; "u"; "d" ]
  in
  let db, _ = List.fold_left exec (db, Effect.empty) tracked_setup in
  snd (List.fold_left exec (db, Effect.empty) tracked_txn)

let test_tracked_matching () =
  let rules =
    List.mapi (fun i (n, p) -> mk_rule ~seq:(i + 1) n [ p ]) tracked_rules
  in
  let eff = tracked_effect () in
  let linear =
    List.filter_map
      (fun r ->
        if Effect.satisfies_any eff (Rule.trans_preds r) then Some r.Rule.name
        else None)
      rules
  in
  Alcotest.(check (list string))
    "linear scan" tracked_expected
    (List.sort String.compare linear);
  check_names "index wakes the same rules" tracked_expected
    (Rule_index.matching (Rule_index.rebuild ~generation:0 rules) eff)

(* The engine agrees with the Section 4 reference on [case]. *)
let reference_agrees ?(config = Engine.default_config) case =
  match Test_reference_rules.differential ~config case with
  | Ok db -> db
  | Error diff -> Alcotest.failf "engine and reference differ: %s" diff

(* The same transaction through the engine: each triggered rule logs
   its name once, as in the reference. *)
let test_tracked_engine () =
  let db =
    reference_agrees
      ~config:{ Engine.default_config with Engine.track_selects = true }
      {
        setup =
          String.concat ";\n"
            ([
               "create table s (a int, b int)";
               "create table u (a int, b int)";
               "create table d (a int, b int)";
               "create table log (r string)";
             ]
            @ tracked_setup);
        ddl =
          List.map
            (fun (name, pred) ->
              Printf.sprintf "create rule %s when %s then insert into log values ('%s')" name
                (Pretty.trans_pred_str pred) name)
            tracked_rules;
        txns = [ [ String.concat "; " tracked_txn ] ];
      }
  in
  Alcotest.(check (list string))
    "each triggered rule logged once" tracked_expected
    (List.sort String.compare
       (List.map
          (fun row -> match row.(0) with Value.Str r -> r | v -> Value.to_string v)
          (Table.rows (Database.table db "log"))))

(* ------------------------------------------------------------------ *)
(* Engine-level semantics under the index                              *)

(* A rule woken mid-processing must catch up on the whole composite
   transition: rows inserted by the external statement and deleted by
   a rule net to nothing, so a delete-triggered rule never sees them.
   A naive wake-up that initializes from the firing's own effect would
   fire here. *)
let netting_script =
  "create table a (x int);\n\
   create table b (x int)"

let netting_rules =
  [
    "create rule purge when inserted into a then delete from a where x >= 0";
    "create rule watcher when deleted from a then insert into b values (99)";
  ]

let netting_block = "insert into a values (1), (2)"

let test_netting_matches_reference () =
  let s = system netting_script in
  List.iter (run s) netting_rules;
  run s netting_block;
  Alcotest.(check int) "purged" 0 (int_cell s "select count(*) from a");
  (* the deleted rows never existed before the transition: the
     delete-triggered watcher must not fire *)
  Alcotest.(check int) "watcher inert" 0
    (int_cell s "select count(*) from b");
  ignore
    (reference_agrees
       { setup = netting_script; ddl = netting_rules; txns = [ [ netting_block ] ] })

(* The acting rule's per-rule state restarts after it fires even when
   its own firing touches none of its registration keys — otherwise it
   would stay triggered forever and trip the step limit. *)
let test_acting_rule_resets () =
  let s = system "create table a (x int);\ncreate table b (x int)" in
  run s "create rule fwd when inserted into a then insert into b values (1)";
  run s "insert into a values (7)";
  Alcotest.(check int) "fired exactly once" 1
    (int_cell s "select count(*) from b");
  Alcotest.(check int) "one firing recorded" 1
    (Engine.stats (System.engine s)).Engine.rule_firings

(* A cascade wakes a rule that matched nothing at the external
   transition; the chain must run as the reference runs it. *)
let test_cascade_wakeup_matches_reference () =
  let setup = "create table a (x int);\ncreate table b (x int);\ncreate table c (x int)" in
  let rules =
    [
      "create rule ab when inserted into a then insert into b values (1)";
      "create rule bc when inserted into b then insert into c values (2)";
    ]
  in
  let s = system setup in
  List.iter (run s) rules;
  run s "insert into a values (0)";
  Alcotest.(check (triple int int int))
    "cascade ran" (1, 1, 2)
    ( int_cell s "select count(*) from b",
      int_cell s "select count(*) from c",
      (Engine.stats (System.engine s)).Engine.rule_firings );
  ignore (reference_agrees { setup; ddl = rules; txns = [ [ "insert into a values (0)" ] ] })

(* Table/index DDL bumps the engine's DDL generation; the discrimination
   index must rebuild on the mismatch instead of serving stale keys. *)
let test_ddl_generation_rebuild () =
  let s = system "create table t (x int);\ncreate table log (x int)" in
  run s "create rule r when inserted into t then insert into log values (1)";
  run s "create index t_x on t (x)";
  run s "insert into t values (3)";
  Alcotest.(check int) "rule survived the rebuild" 1
    (int_cell s "select count(*) from log");
  run s "drop index t_x";
  run s "insert into t values (4)";
  Alcotest.(check int) "and the second rebuild" 2
    (int_cell s "select count(*) from log")

let test_deactivate_reactivate_index () =
  let s = system "create table t (x int);\ncreate table log (x int)" in
  run s "create rule r when inserted into t then insert into log values (1)";
  run s "deactivate rule r";
  run s "insert into t values (1)";
  Alcotest.(check int) "deactivated: unregistered" 0
    (int_cell s "select count(*) from log");
  run s "activate rule r";
  run s "insert into t values (2)";
  Alcotest.(check int) "reactivated: registered again" 1
    (int_cell s "select count(*) from log")

(* Rule DDL between two triggering points of one transaction: each
   [process rules] wakes rules from the catalog as it stands then, so
   the second one neither fires the dropped rule nor the deactivated
   one. *)
let test_rule_ddl_between_triggering_points () =
  let observe () =
    let s = system "create table t (x int);\ncreate table log (r string, n int)" in
    List.iter
      (fun r ->
        run s
          (Printf.sprintf
             "create rule %s when inserted into t then insert into log values \
              ('%s', (select count(*) from inserted t))"
             r r))
      [ "r1"; "r2"; "r3" ];
    let eng = System.engine s in
    run s "begin";
    run s "insert into t values (1)";
    run s "process rules";
    run s "drop rule r1";
    run s "deactivate rule r2";
    run s "insert into t values (2), (3)";
    run s "commit";
    (rows s "select r, n from log order by r, n", (Engine.stats eng).Engine.rule_firings)
  in
  let log, firings = observe () in
  Alcotest.(check rows_testable)
    "r3 alone fires at the second point"
    [
      [| vs "r1"; vi 1 |];
      [| vs "r2"; vi 1 |];
      [| vs "r3"; vi 1 |];
      [| vs "r3"; vi 2 |];
    ]
    log;
  Alcotest.(check int) "four firings" 4 firings

(* ------------------------------------------------------------------ *)
(* Observability counters                                              *)

(* Three rules, one on the touched table.  Under the index every
   candidate scan examines exactly the woken rule and skips the other
   two.  A candidate scan either considers a rule or ends in
   quiescence, so the reference's trace counts the scans: the engine
   examines one rule and skips two per scan. *)
let test_stats_counters () =
  let setup = "create table t (x int);\ncreate table u (x int)" in
  let rules =
    List.map
      (fun (name, pred, t) ->
        Printf.sprintf "create rule %s when %s if (select count(*) from %s) < 0 then rollback" name
          pred t)
      [
        ("rt", "inserted into t", "t");
        ("ru1", "inserted into u", "u");
        ("ru2", "deleted from u", "u");
      ]
  in
  let block = "insert into t values (1)" in
  let s = system setup in
  List.iter (run s) rules;
  run s block;
  let st = Engine.stats (System.engine s) in
  let r =
    Reference_rules.create
      (Test_reference_rules.catalog Engine.default_config rules)
      (System.database (system setup))
  in
  let _, _, trace = Reference_rules.run_txn r [ Test_reference_rules.parse_ops block ] in
  let scans =
    List.length
      (List.filter
         (function Reference_rules.Considered _ | Reference_rules.Quiescent -> true | _ -> false)
         trace)
  in
  Alcotest.(check int) "one rule examined per scan" scans st.Engine.candidates_considered;
  Alcotest.(check int) "two skipped per scan" (2 * scans) st.Engine.rules_skipped

let test_explain_rule_keys () =
  let s = system "create table t (a int, b int)" in
  run s
    "create rule r when inserted into t or updated t.a if (select count(*) \
     from t) < 0 then rollback";
  Alcotest.(check (list string))
    "engine reports the registration keys"
    [ "insert(t)"; "update(t.a)" ]
    (Engine.rule_index_keys (System.engine s) "r")

(* ------------------------------------------------------------------ *)
(* Stale-state bugfixes                                                *)

let considered_order eng =
  List.filter_map
    (function
      | Engine.Ev_considered { rule; _ } -> Some rule
      | _ -> None)
    (Engine.trace eng)

(* Dropping a rule must clear its consideration recency: a recreated
   rule is brand new and, under least-recently-considered selection,
   goes first.  Before the fix the stale [last_considered] entry made
   the engine treat the newcomer as the most recently considered
   rule. *)
let test_drop_recreate_fair_selection () =
  let config =
    Some
      {
        Engine.default_config with
        Engine.strategy = Selection.Least_recently_considered;
      }
  in
  let s = system ?config "create table t (x int)" in
  let mk name =
    run s
      (Printf.sprintf
         "create rule %s when inserted into t if (select count(*) from t) < \
          0 then rollback"
         name)
  in
  mk "alpha";
  mk "beta";
  let eng = System.engine s in
  Engine.set_tracing eng true;
  run s "insert into t values (1)";
  Alcotest.(check (list string))
    "first transition considers in creation order" [ "alpha"; "beta" ]
    (considered_order eng);
  run s "drop rule beta";
  mk "beta";
  run s "insert into t values (2)";
  (* recreated beta has never been considered: least recently
     considered selects it before alpha *)
  Alcotest.(check (list string))
    "recreated rule treated as never considered" [ "beta"; "alpha" ]
    (considered_order eng)

(* Rule creation is O(1): the catalog keeps a newest-first list, so the
   list before a creation is physically the tail of the list after it.
   Structural, not wall-clock — no timing flake. *)
let test_create_rule_structural_append () =
  let s = system "create table t (x int)" in
  let eng = System.engine s in
  run s "create rule r1 when inserted into t then rollback";
  let before = Engine.rules_rev eng in
  run s "create rule r2 when inserted into t then rollback";
  (match Engine.rules_rev eng with
  | newest :: tail ->
    Alcotest.(check string) "newest first" "r2" newest.Rule.name;
    Alcotest.(check bool) "previous list is the physical tail" true
      (tail == before)
  | [] -> Alcotest.fail "catalog empty after create");
  (* bulk creation stays linear and preserves creation order *)
  let n = 2000 in
  for i = 1 to n do
    ignore
      (Engine.create_rule eng
         (rule_def
            (Printf.sprintf "bulk%04d" i)
            [ Ast.Tp_inserted "t" ]
            Ast.Act_rollback))
  done;
  let all = Engine.rules eng in
  Alcotest.(check int) "catalog size" (n + 2) (List.length all);
  Alcotest.(check string) "creation order preserved" "r1"
    (List.hd all).Rule.name;
  Alcotest.(check string) "last created is last" "bulk2000"
    (List.nth all (n + 1)).Rule.name

let suite =
  [
    Alcotest.test_case "registration keys" `Quick test_keys_of_rule;
    Alcotest.test_case "posting lists and maintenance" `Quick
      test_matching_posting_lists;
    qtest prop_sound_complete;
    Alcotest.test_case "tracked selects: index = linear scan" `Quick
      test_tracked_matching;
    Alcotest.test_case "tracked selects: engine fires the same rules" `Quick
      test_tracked_engine;
    Alcotest.test_case "composite netting matches the reference" `Quick
      test_netting_matches_reference;
    Alcotest.test_case "acting rule state resets" `Quick
      test_acting_rule_resets;
    Alcotest.test_case "rule DDL between triggering points" `Quick
      test_rule_ddl_between_triggering_points;
    Alcotest.test_case "cascade wake-up matches the reference" `Quick
      test_cascade_wakeup_matches_reference;
    Alcotest.test_case "ddl generation rebuild" `Quick
      test_ddl_generation_rebuild;
    Alcotest.test_case "deactivate unregisters, activate restores" `Quick
      test_deactivate_reactivate_index;
    Alcotest.test_case "skip counters" `Quick test_stats_counters;
    Alcotest.test_case "explain rule index keys" `Quick
      test_explain_rule_keys;
    Alcotest.test_case "drop/recreate resets consideration recency" `Quick
      test_drop_recreate_fair_selection;
    Alcotest.test_case "rule creation is a structural prepend" `Quick
      test_create_rule_structural_append;
  ]
