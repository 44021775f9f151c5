(* Tests for transition effects: Definition 2.1 composition, with the
   old rows of Figure 1's transition information. *)

open Core
open Helpers

let h table = Handle.fresh table

let eff_testable =
  Alcotest.testable (fun ppf e -> Effect.pp ppf e) Effect.equal

let upd_entry e h = Handle.Map.find h e.Effect.upd

module Dml = Sqlf.Dml

let db_with_t () =
  Database.create_table Database.empty
    (Schema.table "t"
       [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ])

(* Run one statement through data manipulation, as the engine runs
   operations, with the Section 5.1 read set computed. *)
let exec db sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_op op ->
    Dml.exec_op ~track_selects:true (Eval.base_resolver db) db op
  | _ -> Alcotest.fail "expected a DML statement"

let test_single_op_effects () =
  let h1 = h "t" in
  let e = eff_ins [ h1 ] in
  Alcotest.(check bool) "ins member" true (Handle.Set.mem h1 e.Effect.ins);
  Alcotest.(check bool) "well formed" true (Effect.well_formed e);
  let e = eff_del [ (h1, [| vi 1; vs "x" |]) ] in
  Alcotest.check row_testable "deleted value kept" [| vi 1; vs "x" |]
    (Handle.Map.find h1 e.Effect.del);
  let e = eff_upd [ (h1, [ "a"; "b" ], [| vi 1; vs "x" |]) ] in
  let u = upd_entry e h1 in
  Alcotest.(check int) "upd cols" 2 (Effect.Col_set.cardinal u.Effect.upd_cols);
  Alcotest.check row_testable "old row kept" [| vi 1; vs "x" |] u.Effect.old_row

(* Effects of statements actually run: the old rows are the values
   data manipulation reports in its affected set, which are the values
   stored before the statement. *)
let test_of_affected_insert () =
  let r = exec (db_with_t ()) "insert into t values (1, 'x'), (2, 'y')" in
  let e = Effect.of_affected r.Dml.affected in
  Alcotest.(check int) "two inserted" 2 (Handle.Set.cardinal e.Effect.ins);
  Alcotest.(check bool) "stored afterwards" true
    (Handle.Set.for_all
       (fun h -> Option.is_some (Database.find_row r.Dml.db h))
       e.Effect.ins);
  Alcotest.(check bool) "triggers inserted" true
    (Effect.satisfies_pred e (Ast.Tp_inserted "t"));
  Alcotest.(check bool) "not deleted" false
    (Effect.satisfies_pred e (Ast.Tp_deleted "t"))

let test_of_affected_delete () =
  let db =
    (exec (db_with_t ()) "insert into t values (1, 'x'), (2, 'y')").Dml.db
  in
  let r = exec db "delete from t where a = 1" in
  match Handle.Map.bindings (Effect.of_affected r.Dml.affected).Effect.del with
  | [ (h, row) ] ->
    Alcotest.check row_testable "value captured" [| vi 1; vs "x" |] row;
    Alcotest.check row_testable "as stored before" (Database.get_row db h) row;
    Alcotest.(check bool) "gone afterwards" true
      (Option.is_none (Database.find_row r.Dml.db h))
  | _ -> Alcotest.fail "one deleted tuple"

let test_of_affected_update () =
  let db = (exec (db_with_t ()) "insert into t values (1, 'x')").Dml.db in
  let r = exec db "update t set a = 2" in
  match Handle.Map.bindings (Effect.of_affected r.Dml.affected).Effect.upd with
  | [ (h, u) ] ->
    Alcotest.check row_testable "old row captured" [| vi 1; vs "x" |]
      u.Effect.old_row;
    Alcotest.(check (list string)) "columns" [ "a" ]
      (Effect.Col_set.elements u.Effect.upd_cols);
    Alcotest.check row_testable "new value stored" [| vi 2; vs "x" |]
      (Database.get_row r.Dml.db h)
  | _ -> Alcotest.fail "one updated tuple"

(* The paper's netting rules, Section 2.2, with Figure 1's
   first-recorded old values. *)
let test_insert_then_delete_vanishes () =
  let h1 = h "t" in
  let e = Effect.compose (eff_ins [ h1 ]) (eff_del [ (h1, [| vi 1 |]) ]) in
  (* no deleted value is reported for a tuple the composite created *)
  Alcotest.(check bool) "empty" true (Effect.is_empty e)

let test_update_then_update_keeps_first_old () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (eff_upd [ (h1, [ "a" ], [| vi 1; vs "x" |]) ])
      (eff_upd [ (h1, [ "b" ], [| vi 2; vs "x" |]) ])
  in
  let u = upd_entry e h1 in
  Alcotest.check row_testable "first old kept" [| vi 1; vs "x" |]
    u.Effect.old_row;
  Alcotest.(check bool) "a" true (Effect.Col_set.mem "a" u.Effect.upd_cols);
  Alcotest.(check bool) "b" true (Effect.Col_set.mem "b" u.Effect.upd_cols)

(* Columns accumulate: a tuple updated on [a], then [b], then [a]
   again is updated on exactly [a] and [b], and triggers a predicate on
   either column but not on one never updated. *)
let test_updates_merge_columns () =
  let h1 = h "t" in
  let upd col = eff_upd [ (h1, [ col ], [| vi 1; vs "x"; vi 0 |]) ] in
  let e =
    List.fold_left Effect.compose Effect.empty [ upd "a"; upd "b"; upd "a" ]
  in
  Alcotest.(check (list string)) "columns" [ "a"; "b" ]
    (Effect.Col_set.elements (upd_entry e h1).Effect.upd_cols);
  let sat c = Effect.satisfies_pred e (Ast.Tp_updated ("t", Some c)) in
  Alcotest.(check bool) "updated t.a" true (sat "a");
  Alcotest.(check bool) "updated t.b" true (sat "b");
  Alcotest.(check bool) "updated t.c" false (sat "c")

let test_update_then_delete_first_old () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (eff_upd [ (h1, [ "c" ], [| vi 1; vs "x" |]) ])
      (eff_del [ (h1, [| vi 99; vs "x" |]) ])
  in
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty e.Effect.upd);
  (* the deleted value is the one at the start of the composite *)
  Alcotest.check row_testable "first old row" [| vi 1; vs "x" |]
    (Handle.Map.find h1 e.Effect.del)

let test_insert_then_update_stays_insert () =
  let h1 = h "t" in
  let e =
    Effect.compose (eff_ins [ h1 ]) (eff_upd [ (h1, [ "c" ], [| vi 1 |]) ])
  in
  Alcotest.(check bool) "ins" true (Handle.Set.mem h1 e.Effect.ins);
  (* a tuple created within the composite has no old value *)
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty e.Effect.upd);
  Alcotest.(check bool) "no del" true (Handle.Map.is_empty e.Effect.del);
  Alcotest.(check bool) "triggers insert only" true
    (Effect.satisfies_any e [ Ast.Tp_inserted "t" ]
    && not (Effect.satisfies_any e [ Ast.Tp_updated ("t", None) ]));
  Alcotest.(check bool) "well formed" true (Effect.well_formed e)

(* Delete then insert of a NEW tuple is never treated as an update
   (Section 2.2): the handles differ, so both survive composition. *)
let test_delete_then_insert_not_update () =
  let h1 = h "t" and h2 = h "t" in
  let e = Effect.compose (eff_del [ (h1, [| vi 1 |]) ]) (eff_ins [ h2 ]) in
  Alcotest.(check bool) "del kept" true (Handle.Map.mem h1 e.Effect.del);
  Alcotest.(check bool) "ins kept" true (Handle.Set.mem h2 e.Effect.ins);
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty e.Effect.upd)

let test_identity () =
  let h1 = h "t" in
  let e = eff_upd [ (h1, [ "c" ], [| vi 1 |]) ] in
  Alcotest.check eff_testable "left id" e (Effect.compose Effect.empty e);
  Alcotest.check eff_testable "right id" e (Effect.compose e Effect.empty)

let test_triggering_predicates () =
  let he = h "emp" and hd = h "dept" in
  let e =
    Effect.compose (eff_ins [ he ])
      (eff_upd [ (hd, [ "mgr_no" ], [| vi 1; vi 2 |]) ])
  in
  let sat p = Effect.satisfies_pred e p in
  Alcotest.(check bool) "inserted emp" true (sat (Ast.Tp_inserted "emp"));
  Alcotest.(check bool) "inserted dept" false (sat (Ast.Tp_inserted "dept"));
  Alcotest.(check bool) "deleted emp" false (sat (Ast.Tp_deleted "emp"));
  Alcotest.(check bool) "updated dept" true (sat (Ast.Tp_updated ("dept", None)));
  Alcotest.(check bool) "updated dept.mgr_no" true
    (sat (Ast.Tp_updated ("dept", Some "mgr_no")));
  Alcotest.(check bool) "updated dept.dept_no" false
    (sat (Ast.Tp_updated ("dept", Some "dept_no")));
  Alcotest.(check bool) "disjunction" true
    (Effect.satisfies_any e [ Ast.Tp_deleted "emp"; Ast.Tp_inserted "emp" ]);
  Alcotest.(check bool) "empty disjunction" false (Effect.satisfies_any e [])

let test_select_component () =
  let he = h "emp" in
  let e = eff_sel [ ([ "salary" ], [ he ]) ] in
  Alcotest.(check bool) "selected emp" true
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", None)));
  Alcotest.(check bool) "selected emp.salary" true
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", Some "salary")));
  Alcotest.(check bool) "selected emp.name" false
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", Some "name")));
  (* selection of a tuple later deleted is dropped *)
  let e2 = Effect.compose e (eff_del [ (he, [| vi 1 |]) ]) in
  Alcotest.(check bool) "pruned" false
    (Effect.satisfies_pred e2 (Ast.Tp_selected ("emp", None)))

(* The printer shows S only when it is non-empty, so output without
   select tracking is the plain [I; D; U] triple. *)
let test_pp () =
  let ht = h "t" and hu = h "u" in
  let str e = Fmt.str "%a" Effect.pp e in
  let hs x = Fmt.str "%a" Handle.pp x in
  let iud =
    Effect.compose (eff_ins [ ht ]) (eff_upd [ (hu, [ "a" ], [| vi 1 |]) ])
  in
  Alcotest.(check string) "no S"
    (Printf.sprintf "[I={%s}; D={}; U={%s{a}}]" (hs ht) (hs hu))
    (str iud);
  Alcotest.(check string) "with S"
    (Printf.sprintf "[I={}; D={}; U={}; S={%s{a,b}}]" (hs hu))
    (str (eff_sel [ ([ "b"; "a" ], [ hu ]) ]))

(* ------------------------------------------------------------------ *)
(* Property tests over random valid database histories.

   Two tables [t] and [u] start with two rows each; each step is one
   single-operation effect (insert, delete, update of one column, or a
   select of one column) carrying the old rows the operation saw, as
   data manipulation reports them.  Every update writes a value not
   seen before, so a composite that reported a later value as the old
   one would differ from the first state.  Rows that predate the
   history are what deletes, updates and selects of the composite can
   report. *)

let two_tables () =
  let table name =
    Schema.table name
      [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ]
  in
  Database.create_table
    (Database.create_table Database.empty (table "t"))
    (table "u")

(* A history: its first state, the effects of its transitions, and
   its last state. *)
type history = {
  first : Database.t;
  effs : Effect.t list;
  last : Database.t;
}

let gen_history st =
  let db0, live0 =
    List.fold_left
      (fun (db, live) table ->
        let db, h = Database.insert db table [| vi 0; vs "v" |] in
        (db, h :: live))
      (two_tables (), [])
      [ "t"; "t"; "u"; "u" ]
  in
  let open QCheck.Gen in
  let pick live = List.nth live (int_bound (List.length live - 1) st) in
  let rec go db live steps acc =
    if steps = 0 then (db, List.rev acc)
    else
      let choice = int_bound 3 st in
      let col = if bool st then "a" else "b" in
      if choice = 0 || live = [] then begin
        let table = if bool st then "t" else "u" in
        let db', h =
          Database.insert db table [| vi (int_bound 100 st); vs "v" |]
        in
        go db' (h :: live) (steps - 1) (eff_ins [ h ] :: acc)
      end
      else if choice = 1 then begin
        let h = pick live in
        let live' = List.filter (fun h' -> not (Handle.equal h h')) live in
        go (Database.delete db h) live' (steps - 1)
          (eff_del [ (h, Database.get_row db h) ] :: acc)
      end
      else if choice = 2 then begin
        let h = pick live in
        let row = Database.get_row db h in
        let row' =
          if col = "a" then [| vi (1000 + steps); row.(1) |]
          else [| row.(0); vs (Printf.sprintf "w%d" steps) |]
        in
        go (Database.update db h row') live (steps - 1)
          (eff_upd [ (h, [ col ], row) ] :: acc)
      end
      else go db live (steps - 1) (eff_sel [ ([ col ], [ pick live ]) ] :: acc)
  in
  let last, effs = go db0 live0 (int_range 1 15 st) [] in
  { first = db0; effs; last }

let arb_history =
  QCheck.make
    ~print:(fun { effs; _ } ->
      String.concat "; " (List.map (fun e -> Fmt.str "%a" Effect.pp e) effs))
    gen_history

let fold_compose = List.fold_left Effect.compose Effect.empty

let prop_composition_associative =
  QCheck.Test.make ~name:"effect composition is associative over histories"
    ~count:300 arb_history (fun { effs; _ } ->
      (* compare left fold against a right fold, old rows included *)
      let left = fold_compose effs in
      let right = List.fold_right (fun e acc -> Effect.compose e acc) effs Effect.empty in
      Effect.equal left right)

let prop_composition_well_formed =
  QCheck.Test.make ~name:"composition preserves well-formedness" ~count:300
    arb_history (fun { effs; _ } ->
      List.for_all Effect.well_formed effs && Effect.well_formed (fold_compose effs))

let prop_split_composition =
  QCheck.Test.make
    ~name:"composite of prefix and suffix equals composite of whole"
    ~count:300
    QCheck.(pair arb_history small_nat)
    (fun ({ effs; _ }, k) ->
      let n = List.length effs in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let prefix = List.filteri (fun i _ -> i < k) effs in
      let suffix = List.filteri (fun i _ -> i >= k) effs in
      Effect.equal
        (Effect.compose (fold_compose prefix) (fold_compose suffix))
        (fold_compose effs))

(* get-old-value as the oracle: every deleted or updated tuple of the
   composite existed in the history's first state, and the composite
   reports its value there. *)
let prop_old_rows_from_first_state =
  QCheck.Test.make ~name:"composite old rows are the first state's rows"
    ~count:200 arb_history (fun { first = db0; effs; _ } ->
      let e = fold_compose effs in
      let first h row = Row.equal row (Database.get_row db0 h) in
      Handle.Map.for_all first e.Effect.del
      && Handle.Map.for_all (fun h u -> first h u.Effect.old_row) e.Effect.upd)

(* The net change between a history's first and last states, built
   without composing: a tuple only in the last state is inserted, one
   only in the first is deleted with its first value, and one in both
   is updated on the columns whose values differ, with its first value
   as the old row.  A tuple in both states is selected on every column
   some step selected it on.  Every update in the histories below
   writes a value not seen before, so a column an update touched always
   differs at the end. *)
let net_change { first; effs; last } =
  let tuples db =
    List.concat_map
      (fun t -> Table.to_list (Database.table db t))
      (Database.table_names db)
  in
  let stored db h = Option.is_some (Database.find_row db h) in
  let changed_cols h row0 row1 =
    Table.col_names (Database.table first (Handle.table h))
    |> Array.to_list
    |> List.filteri (fun i _ -> not (Value.equal row0.(i) row1.(i)))
    |> Effect.Col_set.of_list
  in
  let of_first =
    List.fold_left
      (fun (e : Effect.t) (h, row0) ->
        match Database.find_row last h with
        | None -> { e with del = Handle.Map.add h row0 e.del }
        | Some row1 ->
          let upd_cols = changed_cols h row0 row1 in
          if Effect.Col_set.is_empty upd_cols then e
          else
            let u = { Effect.upd_cols; old_row = row0 } in
            { e with upd = Handle.Map.add h u e.upd })
      Effect.empty (tuples first)
  in
  let ins =
    List.fold_left
      (fun s (h, _) -> if stored first h then s else Handle.Set.add h s)
      Handle.Set.empty (tuples last)
  in
  let add_sel h cols m =
    if stored first h && stored last h then
      Handle.Map.update h
        (function
          | None -> Some cols | Some c -> Some (Effect.Col_set.union c cols))
        m
    else m
  in
  let sel =
    List.fold_left
      (fun m (e : Effect.t) -> Handle.Map.fold add_sel e.sel m)
      Handle.Map.empty effs
  in
  { of_first with ins; sel }

let prop_net_change =
  QCheck.Test.make ~name:"composite is the net change of first to last state"
    ~count:300 arb_history (fun hist ->
      Effect.equal (fold_compose hist.effs) (net_change hist))

(* Random statement histories over [t], run through data manipulation
   as the engine runs them, each step's effect built from the affected
   set its statement returns.  Updates add 1000 to [a] or write a [b]
   no earlier step wrote. *)
let gen_dml_history st =
  let open QCheck.Gen in
  let first =
    List.fold_left
      (fun db a ->
        (exec db (Printf.sprintf "insert into t values (%d, 'v')" a)).Dml.db)
      (db_with_t ()) [ 0; 1; 2; 3; 4 ]
  in
  let statement i =
    let k = int_bound 9 st in
    match int_bound 5 st with
    | 0 -> Printf.sprintf "insert into t values (%d, 'n')" k
    | 1 ->
      Printf.sprintf "insert into t (select a + 1, b from t where a = %d)" k
    | 2 -> Printf.sprintf "delete from t where a = %d" k
    | 3 -> Printf.sprintf "update t set a = a + 1000 where a <= %d" k
    | 4 -> Printf.sprintf "update t set b = 'w%d' where a >= %d" i k
    | _ -> Printf.sprintf "select b from t where a = %d" k
  in
  let n = int_range 1 12 st in
  let rec go db i sqls effs =
    if i = n then (List.rev sqls, { first; effs = List.rev effs; last = db })
    else
      let sql = statement i in
      let r = exec db sql in
      let e = Effect.of_affected r.Dml.affected in
      go r.Dml.db (i + 1) (sql :: sqls) (e :: effs)
  in
  go first 0 [] []

let prop_dml_net_change =
  QCheck.Test.make ~name:"composed statement effects are the net change"
    ~count:200
    (QCheck.make ~print:(fun (sqls, _) -> String.concat "; " sqls)
       gen_dml_history)
    (fun (_, hist) -> Effect.equal (fold_compose hist.effs) (net_change hist))

(* Restriction keeps only the kept tables and commutes with
   composition: restricting the composite equals composing the
   restricted effects, in every component and old row.  The engine
   gives every woken rule the restriction of the transition's
   composite, so this is what makes that the information stepwise
   composition would have built for the rule. *)
let prop_restrict_commutes =
  let keeps = [| String.equal "t"; String.equal "u"; (fun _ -> false) |] in
  QCheck.Test.make ~name:"restrict (fold compose) = fold compose (restrict)"
    ~count:200
    (QCheck.pair arb_history (QCheck.int_bound (Array.length keeps - 1)))
    (fun ({ effs; _ }, k) ->
      let keep = keeps.(k) in
      let restricted = Effect.restrict (fold_compose effs) keep in
      Effect.Col_set.for_all keep (Effect.tables restricted)
      && Effect.equal restricted
           (fold_compose (List.map (fun e -> Effect.restrict e keep) effs)))

let suite =
  [
    Alcotest.test_case "single-op effects keep old rows" `Quick
      test_single_op_effects;
    Alcotest.test_case "insert statement effect" `Quick test_of_affected_insert;
    Alcotest.test_case "delete statement effect captures values" `Quick
      test_of_affected_delete;
    Alcotest.test_case "update statement effect captures old row" `Quick
      test_of_affected_update;
    Alcotest.test_case "insert;delete vanishes" `Quick
      test_insert_then_delete_vanishes;
    Alcotest.test_case "update;update keeps first old" `Quick
      test_update_then_update_keeps_first_old;
    Alcotest.test_case "updates merge columns" `Quick
      test_updates_merge_columns;
    Alcotest.test_case "update;delete nets delete with the first old row"
      `Quick test_update_then_delete_first_old;
    Alcotest.test_case "insert;update stays insert" `Quick
      test_insert_then_update_stays_insert;
    Alcotest.test_case "delete;insert stays delete+insert" `Quick
      test_delete_then_insert_not_update;
    Alcotest.test_case "empty is identity" `Quick test_identity;
    Alcotest.test_case "triggering predicates" `Quick test_triggering_predicates;
    Alcotest.test_case "select component (ext 5.1)" `Quick test_select_component;
    Alcotest.test_case "pp prints S when non-empty" `Quick test_pp;
    qtest prop_composition_associative;
    qtest prop_composition_well_formed;
    qtest prop_split_composition;
    qtest prop_old_rows_from_first_state;
    qtest prop_net_change;
    qtest prop_dml_net_change;
    qtest prop_restrict_commutes;
  ]
