(* The delta-driven UNIQUE / PRIMARY KEY rule ([CW90]: probe only the
   tuples inserted or key-updated during the rule's transition) against
   a test-local copy of the whole-table condition it replaced: same
   trigger predicates, same rollback action, but a WHERE-less
   [exists (select k from t group by k having count( * ) > 1)].

   Both systems run the same random blocks — inserts with colliding
   and NULL keys, key updates and swaps, deletes followed by
   re-inserts, rules whose actions insert into or re-key the
   constrained table, and [process rules] points — and must agree on
   every statement's outcome (commit, rollback or error) and on the
   final contents of every table.  Every case runs with
   transition-information pruning on and off. *)

open Core
open Helpers

type variant = {
  v_name : string;
  v_ddl : string;  (** the table with its declared key *)
  v_ref_ddl : string;  (** the same columns, constraint-free *)
  v_key : string list;
}

let variants =
  [
    {
      v_name = "unique column (nullable)";
      v_ddl = "create table t (a int unique, b int, c int)";
      v_ref_ddl = "create table t (a int, b int, c int)";
      v_key = [ "a" ];
    };
    {
      v_name = "column primary key";
      v_ddl = "create table t (a int primary key, b int, c int)";
      v_ref_ddl = "create table t (a int not null, b int, c int)";
      v_key = [ "a" ];
    };
    {
      v_name = "multi-column unique (nullable)";
      v_ddl = "create table t (a int, b int, c int, unique (a, b))";
      v_ref_ddl = "create table t (a int, b int, c int)";
      v_key = [ "a"; "b" ];
    };
    {
      v_name = "table primary key, second column not null";
      v_ddl = "create table t (a int, b int not null, c int, primary key (a, b))";
      v_ref_ddl = "create table t (a int, b int not null, c int)";
      v_key = [ "a"; "b" ];
    };
  ]

(* The whole-table condition the delta rule replaced. *)
let reference_rule v =
  let keys = String.concat ", " v.v_key in
  Printf.sprintf
    "create rule uq_whole_table when inserted into t%s if exists (select %s \
     from t group by %s having count(*) > 1) then rollback"
    (String.concat "" (List.map (fun c -> " or updated t." ^ c) v.v_key))
    keys keys

(* Rules acting on the constrained table: a copy with a shifted key
   (may collide), a re-keying update, and a re-insert of deleted
   rows. *)
let action_rules =
  [
    "create rule r_copy when inserted into t if exists (select * from \
     inserted t where c = 1) then insert into t select a + 1, b, 2 from \
     inserted t where c = 1";
    "create rule r_rekey when updated t.c then update t set a = a + 2 where \
     c = 3 and b in (select b from new updated t.c)";
    "create rule r_reinsert when deleted from t if exists (select * from \
     deleted t where c = 4) then insert into t select a, b, 0 from deleted t \
     where c = 4";
  ]

let gen_key st =
  let open QCheck.Gen in
  if int_bound 6 st = 0 then "null" else string_of_int (int_bound 4 st)

let gen_small st = string_of_int (QCheck.Gen.int_bound 4 st)

let gen_stmt st =
  let open QCheck.Gen in
  let row () = Printf.sprintf "(%s, %s, %s)" (gen_key st) (gen_key st) (gen_small st) in
  match int_bound 11 st with
  | 0 | 1 | 2 ->
    Printf.sprintf "insert into t values %s"
      (String.concat ", " (List.init (1 + int_bound 2 st) (fun _ -> row ())))
  | 3 -> Printf.sprintf "update t set a = %s where b = %s" (gen_key st) (gen_small st)
  | 4 -> Printf.sprintf "update t set b = %s where a = %s" (gen_key st) (gen_small st)
  | 5 ->
    (* a key swap: never a duplicate in the final state *)
    let x = gen_small st and y = gen_small st in
    Printf.sprintf
      "update t set a = case when a = %s then %s else %s end where a = %s or \
       a = %s"
      x y x x y
  | 6 -> Printf.sprintf "update t set a = a + 1 where c = %s" (gen_small st)
  | 7 -> Printf.sprintf "update t set c = %s where a = %s" (gen_small st) (gen_small st)
  | 8 -> Printf.sprintf "delete from t where a = %s" (gen_key st)
  | 9 ->
    (* delete followed by re-insert of the same key *)
    let x = gen_small st in
    Printf.sprintf "delete from t where a = %s; insert into t values (%s, %s, %s)" x x
      (gen_small st) (gen_small st)
  | 10 -> "process rules"
  | _ -> Printf.sprintf "delete from t where c = %s" (gen_small st)

(* A block: one autocommitted statement, or several in an explicit
   transaction. *)
let gen_block st =
  let open QCheck.Gen in
  if int_bound 3 st = 0 then [ gen_stmt st ]
  else
    let body = List.init (1 + int_bound 3 st) (fun _ -> gen_stmt st) in
    ("begin" :: body) @ [ "commit" ]

type case = { variant : variant; index : string option; blocks : string list list }

let gen_case st =
  let open QCheck.Gen in
  let variant = List.nth variants (int_bound (List.length variants - 1) st) in
  let index =
    match int_bound 2 st with
    | 0 -> None
    | 1 -> Some "create index t_a on t (a)"
    | _ -> Some "create index t_b on t (b) using ordered"
  in
  let blocks = List.init (4 + int_bound 10 st) (fun _ -> gen_block st) in
  { variant; index; blocks }

let print_case c =
  Printf.sprintf "%s%s\n%s" c.variant.v_name
    (match c.index with None -> "" | Some ix -> " + " ^ ix)
    (String.concat "\n"
       (List.map (fun b -> String.concat "; " b) c.blocks))

let make_system ~ddl ~extra c =
  let s = System.create () in
  run s ddl;
  List.iter (run s) extra;
  Option.iter (run s) c.index;
  List.iter (run s) action_rules;
  s

(* What a statement observably did; a statement list may hold several
   [;]-separated statements. *)
let outcome s sql =
  match System.exec s sql with
  | results ->
    String.concat ","
      (List.map
         (function
           | System.Outcome Engine.Committed -> "committed"
           | System.Outcome Engine.Rolled_back -> "rolled back"
           | System.Msg m -> m
           | System.Relation _ -> "rows")
         results)
  | exception Errors.Error e -> "error: " ^ Errors.to_string e

let run_block s block =
  let results = List.map (outcome s) block in
  if Engine.in_transaction (System.engine s) then
    Engine.rollback_txn (System.engine s);
  results

let rollbacks_seen = ref 0

let differential c =
  let delta = make_system ~ddl:c.variant.v_ddl ~extra:[] c in
  let whole =
    make_system ~ddl:c.variant.v_ref_ddl ~extra:[ reference_rule c.variant ] c
  in
  List.iter
    (fun block ->
      let rd = run_block delta block and rw = run_block whole block in
      if rd <> rw then
        QCheck.Test.fail_reportf "block %s:@.delta rule:  %s@.whole table: %s"
          (String.concat "; " block) (String.concat " | " rd) (String.concat " | " rw);
      List.iter (fun r -> if r = "rolled back" then incr rollbacks_seen) rd)
    c.blocks;
  let contents s = rows s "select a, b, c from t order by a, b, c" in
  let cd = contents delta and cw = contents whole in
  if not (List.length cd = List.length cw && List.for_all2 Row.equal cd cw) then
    QCheck.Test.fail_reportf "final contents of t differ"

let prop_delta_matches_whole_table =
  QCheck.Test.make ~count:150
    ~name:"delta UNIQUE rule = whole-table condition (outcomes and final state)"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      differential c;
      true)

(* The NULL verdicts of the whole-table condition, stated directly:
   GROUP BY puts NULLs together, so NULL keys collide. *)
let test_null_keys_collide () =
  let s = System.create () in
  run s "create table t (a int unique, b int)";
  check_outcome "first NULL key" true (exec_committed s "insert into t values (null, 1)");
  check_outcome "second NULL key rolls back" false
    (exec_committed s "insert into t values (null, 2)");
  run s "create table u (a int, b int, unique (a, b))";
  check_outcome "first (1, NULL)" true (exec_committed s "insert into u values (1, null)");
  check_outcome "second (1, NULL) rolls back" false
    (exec_committed s "insert into u values (1, null)");
  check_outcome "updating a key to NULL collides too" false
    (exec_committed s "insert into t values (3, 3); update t set a = null where a = 3")

(* The probe reads only the delta: a single-row insert into an indexed
   key probes the index instead of scanning the table. *)
let test_probe_reads_only_the_delta () =
  let s = System.create () in
  run s "create table t (id int primary key, v int)";
  run s "create index t_id on t (id)";
  run s
    (Printf.sprintf "insert into t values %s"
       (String.concat ", " (List.init 200 (fun i -> Printf.sprintf "(%d, 0)" i))));
  let st = Engine.stats (System.engine s) in
  let scans0 = st.Engine.seq_scans and probes0 = st.Engine.index_probes in
  check_outcome "fresh key" true (exec_committed s "insert into t values (500, 0)");
  check_outcome "duplicate key" false (exec_committed s "insert into t values (7, 1)");
  let st = Engine.stats (System.engine s) in
  Alcotest.(check int) "no scans" 0 (st.Engine.seq_scans - scans0);
  Alcotest.(check int) "one probe per check" 2 (st.Engine.index_probes - probes0)

(* The delta condition is exact only while the key rule has been
   active since its table was created, so it cannot be deactivated —
   also once the engine is rebuilt from a checkpoint image, where the
   rule is recognised by its definition.  Other rules still can. *)
let test_key_rule_stays_active () =
  let s = System.create () in
  run s "create table t (a int primary key, b int)";
  run s "create table u (a int, b int, unique (a, b))";
  let refused s name =
    let r = outcome s ("deactivate rule " ^ name) in
    Alcotest.(check bool) (name ^ " refused: " ^ r) true
      (String.length r > 6 && String.sub r 0 6 = "error:")
  in
  refused s "uq_t_a";
  refused s "uq_u_a_b";
  check_outcome "first key" true (exec_committed s "insert into t values (1, 1)");
  check_outcome "the rule still checks" false
    (exec_committed s "insert into t values (1, 2)");
  let restored =
    System.of_engine
      (Engine.of_durable_image (Engine.durable_image (System.engine s)))
  in
  refused restored "uq_t_a";
  run s "drop rule uq_t_a";
  run s "create rule uq_t_a when inserted into t then rollback";
  Alcotest.(check string) "a user rule of the same name" "rule uq_t_a deactivated"
    (outcome s "deactivate rule uq_t_a")

let test_rollbacks_seen () =
  Alcotest.(check bool)
    (Printf.sprintf "the property exercised rollbacks (%d)" !rollbacks_seen)
    true (!rollbacks_seen > 50)

let suite =
  [
    Alcotest.test_case "NULL keys collide" `Quick test_null_keys_collide;
    Alcotest.test_case "probe reads only the delta" `Quick
      test_probe_reads_only_the_delta;
    Alcotest.test_case "key rules cannot be deactivated" `Quick
      test_key_rule_stays_active;
    qtest prop_delta_matches_whole_table;
    Alcotest.test_case "property is not vacuous" `Quick test_rollbacks_seen;
  ]
