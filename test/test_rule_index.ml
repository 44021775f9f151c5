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
     introduced: rules woken mid-processing by a rule firing catch up
     on the composite transition (insert-then-delete netting must
     still cancel), the acting rule's per-rule state always restarts,
     and DDL-generation mismatches rebuild the index;
   - the two stale-state bugfixes: dropping and recreating a rule
     resets its consideration recency (fair selection under
     least-recently-considered), and bulk rule creation is linear — a
     structural sharing assertion, not a wall-clock one;
   - the observability counters ([rules skipped] stays zero on the
     linear oracle and is exactly the non-woken remainder indexed);
   - the PR 6 workload scenarios run differentially: index on vs the
     linear-scan oracle, asserting identical results, traces, digests,
     invariants and firing counts ({!Runner.run_index_differential}). *)

open Helpers
open Core
module Rule = Rules.Rule
module Rule_index = Rules.Rule_index
module Selection = Rules.Selection
module Profile = Workload.Profile
module Scenario = Workload.Scenario
module Scenarios = Workload.Scenarios
module Runner = Workload.Runner

(* Registration normally happens in test_workload's module
   initializer; guard so this suite also runs standalone. *)
let ensure_scenarios () =
  if Scenario.names () = [] then Scenarios.register_all ()

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
    (Rule_index.matching idx (Effect.of_inserted [ ht ]));
  check_names "update t.a hits column and wildcard"
    [ "r_upd_a"; "r_upd_any" ]
    (Rule_index.matching idx (Effect.of_updated [ (ht, [ "a" ]) ]));
  check_names "update t.b hits wildcard only" [ "r_upd_any" ]
    (Rule_index.matching idx (Effect.of_updated [ (ht, [ "b" ]) ]));
  check_names "select u.b" [ "r_sel_b" ]
    (Rule_index.matching idx (Effect.of_selected [ ([ "b" ], [ hu ]) ]));
  check_names "select u.c misses" []
    (Rule_index.matching idx (Effect.of_selected [ ([ "c" ], [ hu ]) ]));
  let composite =
    Effect.compose
      (Effect.of_deleted [ ht ])
      (Effect.of_updated [ (ht, [ "a" ]) ])
  in
  check_names "composite unions per-op matches"
    [ "r_del"; "r_upd_a"; "r_upd_any" ]
    (Rule_index.matching idx composite);
  (* incremental removal unregisters every key of the rule *)
  Rule_index.remove idx r_upd_any;
  Alcotest.(check int) "registered after remove" 4
    (Rule_index.registered idx);
  check_names "update t.b after removing wildcard rule" []
    (Rule_index.matching idx (Effect.of_updated [ (ht, [ "b" ]) ]));
  Rule_index.add idx r_upd_any;
  check_names "re-added" [ "r_upd_any" ]
    (Rule_index.matching idx (Effect.of_updated [ (ht, [ "b" ]) ]))

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
    | 0 -> Effect.of_inserted [ h ]
    | 1 -> Effect.of_deleted [ h ]
    | 2 -> Effect.of_updated [ (h, [ prop_cols.(int_bound 2 st) ]) ]
    | _ -> Effect.of_selected [ ([ prop_cols.(int_bound 2 st) ], [ h ]) ]
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
(* Engine-level semantics under the index                              *)

let oracle_config =
  { Engine.default_config with Engine.rule_index = false }

(* A rule woken mid-processing must catch up on the whole composite
   transition: rows inserted by the external statement and deleted by
   a rule net to nothing, so a delete-triggered rule never sees them.
   A naive wake-up that initializes from the firing's own effect would
   fire here. *)
let netting_script =
  "create table a (x int);\n\
   create table b (x int)"

let netting_setup s =
  run s "create rule purge when inserted into a then delete from a where x >= 0";
  run s
    "create rule watcher when deleted from a then insert into b values (99)";
  run s "insert into a values (1), (2)"

let test_netting_matches_oracle () =
  let check config =
    let s = system ?config netting_script in
    netting_setup s;
    Alcotest.(check int) "purged" 0 (int_cell s "select count(*) from a");
    (* the deleted rows never existed before the transition: the
       delete-triggered watcher must not fire *)
    Alcotest.(check int) "watcher inert" 0
      (int_cell s "select count(*) from b")
  in
  check None;
  check (Some oracle_config)

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
   transition; the chain must run identically with and without the
   index. *)
let test_cascade_wakeup_matches_oracle () =
  let counts config =
    let s =
      system ?config
        "create table a (x int);\ncreate table b (x int);\n\
         create table c (x int)"
    in
    run s "create rule ab when inserted into a then insert into b values (1)";
    run s "create rule bc when inserted into b then insert into c values (2)";
    run s "insert into a values (0)";
    ( int_cell s "select count(*) from b",
      int_cell s "select count(*) from c",
      (Engine.stats (System.engine s)).Engine.rule_firings )
  in
  let indexed = counts None and oracle = counts (Some oracle_config) in
  Alcotest.(check (triple int int int)) "cascade equal" oracle indexed;
  let b, c, firings = indexed in
  Alcotest.(check (triple int int int)) "cascade ran" (1, 1, 2) (b, c, firings)

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

(* ------------------------------------------------------------------ *)
(* Observability counters                                              *)

(* Three rules, one on the touched table.  Under the index every
   candidate scan examines exactly the woken rule and skips the other
   two, so [rules_skipped] is exactly twice [candidates_considered]
   whatever the scan count; the linear oracle skips nothing. *)
let stats_system config =
  let s =
    system ?config "create table t (x int);\ncreate table u (x int)"
  in
  run s
    "create rule rt when inserted into t if (select count(*) from t) < 0 \
     then rollback";
  run s
    "create rule ru1 when inserted into u if (select count(*) from u) < 0 \
     then rollback";
  run s
    "create rule ru2 when deleted from u if (select count(*) from u) < 0 \
     then rollback";
  run s "insert into t values (1)";
  Engine.stats (System.engine s)

let test_stats_counters () =
  let st = stats_system None in
  Alcotest.(check bool) "considered some" true
    (st.Engine.candidates_considered > 0);
  Alcotest.(check int) "skips = 2 x examined"
    (2 * st.Engine.candidates_considered)
    st.Engine.rules_skipped;
  let so = stats_system (Some oracle_config) in
  Alcotest.(check int) "oracle skips nothing" 0 so.Engine.rules_skipped;
  Alcotest.(check bool) "oracle examines the catalog" true
    (so.Engine.candidates_considered >= 3)

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

(* ------------------------------------------------------------------ *)
(* Workload differential: index on vs linear oracle                    *)

let test_scenario_differential name () =
  ensure_scenarios ();
  let sc = Scenario.get name in
  let sd = seed ~default:Profile.default.Profile.seed in
  with_seed_reported sd (fun () ->
      let profile =
        {
          Profile.default with
          Profile.seed = sd;
          txns = 30;
          rule_density = 8;
        }
      in
      ignore (Runner.run_index_differential ~check_every:4 sc profile))

let differential_cases () =
  ensure_scenarios ();
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "differential vs linear oracle: %s" name)
        `Quick
        (test_scenario_differential name))
    (Scenario.names ())

let suite =
  [
    Alcotest.test_case "registration keys" `Quick test_keys_of_rule;
    Alcotest.test_case "posting lists and maintenance" `Quick
      test_matching_posting_lists;
    qtest prop_sound_complete;
    Alcotest.test_case "composite netting matches oracle" `Quick
      test_netting_matches_oracle;
    Alcotest.test_case "acting rule state resets" `Quick
      test_acting_rule_resets;
    Alcotest.test_case "cascade wake-up matches oracle" `Quick
      test_cascade_wakeup_matches_oracle;
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
  @ differential_cases ()
