(* Tests for transition effects: Definition 2.1 composition, with the
   old rows of Figure 1's transition information. *)

open Core
open Helpers

let h table = Handle.fresh table

let eff_testable =
  Alcotest.testable (fun ppf e -> Effect.pp ppf e) Effect.equal

module Dml = Sqlf.Dml

(* The flat model of test/reference_rules.ml: the effect as four
   handle-keyed collections over all tables, every operation a pass over
   handles, old values read from the state a composite started from.
   The properties below compare the per-table effect against it. *)
module Flat = Reference_rules.Flat

(* The effect of one operation in the flat model. *)
let flat_of_affected = function
  | Dml.A_insert hs -> Flat.inserted hs
  | Dml.A_delete pairs -> Flat.deleted (List.map fst pairs)
  | Dml.A_update triples -> Flat.updated (List.map (fun (h, cols, _) -> (h, cols)) triples)
  | Dml.A_select reads -> Flat.selected reads

(* The per-table effect seen as the flat model sees it: the one
   conversion the properties compare through. *)
let flat (e : Effect.t) =
  Effect.fold
    (fun _ (p : Effect.part) (f : Flat.t) ->
      let keys m = Handle.Map.fold (fun h _ s -> Handle.Set.add h s) m Handle.Set.empty in
      let union m1 m2 = Handle.Map.union (fun _ x _ -> Some x) m1 m2 in
      let cols m = Handle.Map.map (fun c -> Reference_rules.Cols.of_list (Effect.Col_set.elements c)) m in
      {
        Flat.ins = Handle.Set.union p.ins f.ins;
        del = Handle.Set.union (keys p.del) f.del;
        upd = union (cols (Handle.Map.map (fun (u : Effect.upd_entry) -> u.upd_cols) p.upd)) f.upd;
        sel = union (cols (Effect.selected p)) f.sel;
      })
    e Flat.empty

(* A table's part of the per-table effect, and a handle's entries. *)
let part e table = Option.get (Effect.find e table)
let upd_entry e h = Handle.Map.find h (part e (Handle.table h)).Effect.upd
let deleted_row e h = Handle.Map.find h (part e (Handle.table h)).Effect.del

let db_with_t () =
  Database.create_table Database.empty
    (Schema.table "t"
       [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ])

(* Run one statement through data manipulation, as the engine runs
   operations, with the Section 5.1 read set computed. *)
let exec db sql =
  match Parser.parse_statement_string sql with
  | Ast.Stmt_op op ->
    Dml.exec_cop ~track_selects:true Eval.no_transitions db (Dml.compile_op db op)
  | _ -> Alcotest.fail "expected a DML statement"

let test_single_op_effects () =
  let h1 = h "t" in
  let e = eff_ins [ h1 ] in
  Alcotest.(check bool) "ins member" true (Handle.Set.mem h1 (flat e).Flat.ins);
  Alcotest.(check bool) "well formed" true (Effect.well_formed e);
  let e = eff_del [ (h1, [| vi 1; vs "x" |]) ] in
  Alcotest.check row_testable "deleted value kept" [| vi 1; vs "x" |]
    (deleted_row e h1);
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
  Alcotest.(check int) "two inserted" 2 (Handle.Set.cardinal (flat e).Flat.ins);
  Alcotest.(check bool) "stored afterwards" true
    (Handle.Set.for_all
       (fun h -> Option.is_some (Database.find_row r.Dml.db h))
       (flat e).Flat.ins);
  Alcotest.(check bool) "triggers inserted" true
    (Effect.satisfies_pred e (Ast.Tp_inserted "t"));
  Alcotest.(check bool) "not deleted" false
    (Effect.satisfies_pred e (Ast.Tp_deleted "t"))

let test_of_affected_delete () =
  let db =
    (exec (db_with_t ()) "insert into t values (1, 'x'), (2, 'y')").Dml.db
  in
  let r = exec db "delete from t where a = 1" in
  match Handle.Map.bindings (part (Effect.of_affected r.Dml.affected) "t").Effect.del with
  | [ (h, row) ] ->
    Alcotest.check row_testable "value captured" [| vi 1; vs "x" |] row;
    Alcotest.check row_testable "as stored before" (Database.get_row db h) row;
    Alcotest.(check bool) "gone afterwards" true
      (Option.is_none (Database.find_row r.Dml.db h))
  | _ -> Alcotest.fail "one deleted tuple"

let test_of_affected_update () =
  let db = (exec (db_with_t ()) "insert into t values (1, 'x')").Dml.db in
  let r = exec db "update t set a = 2" in
  match Handle.Map.bindings (part (Effect.of_affected r.Dml.affected) "t").Effect.upd with
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
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (flat e).Flat.upd);
  (* the deleted value is the one at the start of the composite *)
  Alcotest.check row_testable "first old row" [| vi 1; vs "x" |]
    (deleted_row e h1)

let test_insert_then_update_stays_insert () =
  let h1 = h "t" in
  let e =
    Effect.compose (eff_ins [ h1 ]) (eff_upd [ (h1, [ "c" ], [| vi 1 |]) ])
  in
  Alcotest.(check bool) "ins" true (Handle.Set.mem h1 (flat e).Flat.ins);
  (* a tuple created within the composite has no old value *)
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (flat e).Flat.upd);
  Alcotest.(check bool) "no del" true (Handle.Set.is_empty (flat e).Flat.del);
  Alcotest.(check bool) "triggers insert only" true
    (Effect.satisfies_any e [ Ast.Tp_inserted "t" ]
    && not (Effect.satisfies_any e [ Ast.Tp_updated ("t", None) ]));
  Alcotest.(check bool) "well formed" true (Effect.well_formed e)

(* Delete then insert of a NEW tuple is never treated as an update
   (Section 2.2): the handles differ, so both survive composition. *)
let test_delete_then_insert_not_update () =
  let h1 = h "t" and h2 = h "t" in
  let e = Effect.compose (eff_del [ (h1, [| vi 1 |]) ]) (eff_ins [ h2 ]) in
  Alcotest.(check bool) "del kept" true (Handle.Set.mem h1 (flat e).Flat.del);
  Alcotest.(check bool) "ins kept" true (Handle.Set.mem h2 (flat e).Flat.ins);
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (flat e).Flat.upd)

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

(* [S] keeps each read as data manipulation reported it; these cases
   check where the reads are merged or filtered by handle. *)

let stored_t () = Database.insert (db_with_t ()) "t" [| vi 1; vs "x" |]

(* One handle read twice on different columns, in one select or in two,
   is one selected tuple on the union of the columns. *)
let test_select_same_handle_twice () =
  let db, ht = stored_t () in
  let one = eff_sel [ ([ "a" ], [ ht ]); ([ "b" ], [ ht; ht ]) ] in
  let two =
    Effect.compose (eff_sel [ ([ "a" ], [ ht ]) ]) (eff_sel [ ([ "b" ], [ ht ]) ])
  in
  Alcotest.check eff_testable "one select = two selects" one two;
  List.iter
    (fun (name, e) ->
      let sat c = Effect.satisfies_pred e (Ast.Tp_selected ("t", Some c)) in
      Alcotest.(check int) (name ^ ": one tuple") 1 (Effect.cardinality e);
      Alcotest.(check (list string))
        (name ^ ": both columns") [ "a"; "b" ]
        (Reference_rules.Cols.elements (Handle.Map.find ht (flat e).Flat.sel));
      Alcotest.(check (list bool))
        (name ^ ": selected t.a, t.b, t.c")
        [ true; true; false ]
        [ sat "a"; sat "b"; sat "c" ];
      Alcotest.check rows_testable (name ^ ": one selected row")
        [ [| vi 1; vs "x" |] ]
        (Rules.Transition_tables.materialize e ~current_db:db
           (Ast.Tt_selected ("t", Some "b")))
          .Eval.rows)
    [ ("one select", one); ("two selects", two) ]

(* A delete in a later step drops the deleted tuple from every read
   that saw it; a read left with no tuple goes, and with it the
   column it alone referenced. *)
let test_select_then_delete () =
  let h1 = h "t" and h2 = h "t" in
  let e =
    List.fold_left Effect.compose Effect.empty
      [
        eff_sel [ ([ "a" ], [ h1; h2 ]) ];
        eff_sel [ ([ "b" ], [ h1 ]) ];
        eff_ins [ h "u" ];
        eff_del [ (h1, [| vi 1 |]) ];
      ]
  in
  Alcotest.(check (list (pair int (list string))))
    "only the survivor, on a"
    [ (Handle.id h2, [ "a" ]) ]
    (List.map
       (fun (h, cols) -> (Handle.id h, Reference_rules.Cols.elements cols))
       (Handle.Map.bindings (flat e).Flat.sel));
  Alcotest.(check bool) "selected t.b gone" false
    (Effect.satisfies_pred e (Ast.Tp_selected ("t", Some "b")));
  Alcotest.(check int) "deleted, inserted, selected" 3 (Effect.cardinality e);
  let e = Effect.compose e (eff_del [ (h2, [| vi 2 |]) ]) in
  Alcotest.(check bool) "no selection left" false
    (Effect.satisfies_pred e (Ast.Tp_selected ("t", None)));
  Alcotest.(check bool) "well formed" true (Effect.well_formed e)

(* A tuple the first effect inserted did not exist before the
   composite: a later read of it is not reported, a read of an older
   tuple in the same select is. *)
let test_select_of_inserted () =
  let h0 = h "t" and h1 = h "t" in
  let e = Effect.compose (eff_ins [ h1 ]) (eff_sel [ ([ "a" ], [ h0; h1 ]) ]) in
  Alcotest.(check (list int))
    "old tuple only" [ Handle.id h0 ]
    (List.map (fun (h, _) -> Handle.id h) (Handle.Map.bindings (flat e).Flat.sel));
  let e = Effect.compose (eff_ins [ h1 ]) (eff_sel [ ([ "a" ], [ h1 ]) ]) in
  Alcotest.check eff_testable "just the insert" (eff_ins [ h1 ]) e;
  Alcotest.(check bool) "not selected" false
    (Effect.satisfies_pred e (Ast.Tp_selected ("t", None)))

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

(* Every component lists its handles in handle order across tables, as
   the flat printer did, whatever order the tables' parts are held
   in. *)
let test_pp_two_tables () =
  let t1 = h "t" and u1 = h "u" and t2 = h "t" and u2 = h "u" in
  let t3 = h "t" and u3 = h "u" and t4 = h "t" and u4 = h "u" in
  let row = [| vi 1; vs "x" |] in
  let affected =
    [
      Dml.A_insert [ u1 ];
      Dml.A_insert [ t1 ];
      Dml.A_delete [ (u2, row); (t2, row) ];
      Dml.A_update [ (u3, [ "b" ], row); (t3, [ "b"; "a" ], row) ];
      Dml.A_select [ ([ "a" ], [ u4; u3 ]); ([ "b" ], [ t4 ]) ];
    ]
  in
  let str pp x = Fmt.str "%a" pp x in
  let hs x = Fmt.str "%a" Handle.pp x in
  let e = List.fold_left Effect.compose Effect.empty (List.map Effect.of_affected affected) in
  let f = List.fold_left Flat.compose Flat.empty (List.map flat_of_affected affected) in
  Alcotest.(check string) "as the flat printer" (str Flat.pp f) (str Effect.pp e);
  (* the expected line, with the printer's line breaks taken as the
     spaces they stand for *)
  let unbroken = String.map (function '\n' -> ' ' | c -> c) in
  Alcotest.(check string) "handle order"
    (Printf.sprintf
       "[I={%s, %s}; D={%s, %s}; U={%s{a,b}, %s{b}}; S={%s{a}, %s{b}, %s{a}}]"
       (hs t1) (hs u1) (hs t2) (hs u2) (hs t3) (hs u3) (hs u3) (hs t4) (hs u4))
    (unbroken (str Effect.pp e))

(* ------------------------------------------------------------------ *)
(* Property tests over random valid database histories.

   Two tables [t] and [u] start with two rows each; each step is one
   single-operation effect (insert, delete, update of one column, or a
   select reading up to three tuples of one table, the same one
   possibly twice, and sometimes tuples of the other table on the other
   column) carrying the old rows the operation saw, as data
   manipulation reports them.  Every update writes a value not seen
   before, so a composite that reported a later value as the old one
   would differ from the first state.  Rows that predate the history
   are what deletes, updates and selects of the composite can
   report. *)

let two_tables () =
  let table name =
    Schema.table name
      [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ]
  in
  Database.create_table
    (Database.create_table Database.empty (table "t"))
    (table "u")

(* A history: its first state, each transition's affected set and the
   state after it, the transitions' effects, and its last state. *)
type history = {
  first : Database.t;
  affected : Dml.affected list;
  states : Database.t list;
  effs : Effect.t list;
  last : Database.t;
}

let history first steps =
  {
    first;
    affected = List.map fst steps;
    states = List.map snd steps;
    effs = List.map (fun (a, _) -> Effect.of_affected a) steps;
    last = List.fold_left (fun _ (_, db) -> db) first steps;
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
  let read table col live =
    match List.filter (fun h -> Handle.table h = table) live with
    | [] -> None
    | hs -> Some ([ col ], List.init (int_range 1 3 st) (fun _ -> pick hs))
  in
  let rec go db live steps acc =
    if steps = 0 then List.rev acc
    else
      let choice = int_bound 3 st in
      let col = if bool st then "a" else "b" in
      let table = if bool st then "t" else "u" in
      let next db live a = go db live (steps - 1) ((a, db) :: acc) in
      if choice = 0 || live = [] then begin
        let db', h =
          Database.insert db table [| vi (int_bound 100 st); vs "v" |]
        in
        next db' (h :: live) (Dml.A_insert [ h ])
      end
      else if choice = 1 then begin
        let h = pick live in
        let live' = List.filter (fun h' -> not (Handle.equal h h')) live in
        next (Database.delete db h) live'
          (Dml.A_delete [ (h, Database.get_row db h) ])
      end
      else if choice = 2 then begin
        let h = pick live in
        let row = Database.get_row db h in
        let row' =
          if col = "a" then [| vi (1000 + steps); row.(1) |]
          else [| row.(0); vs (Printf.sprintf "w%d" steps) |]
        in
        next (Database.update db h row') live (Dml.A_update [ (h, [ col ], row) ])
      end
      else
        let other = if table = "t" then "u" else "t" in
        let other_col = if col = "a" then "b" else "a" in
        let reads =
          read table col live
          :: (if bool st then [ read other other_col live ] else [])
        in
        next db live (Dml.A_select (List.filter_map Fun.id reads))
  in
  history db0 (go db0 live0 (int_range 1 15 st) [])

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
      let first h row = Row.equal row (Database.get_row db0 h) in
      Effect.fold
        (fun _ (p : Effect.part) ok ->
          ok
          && Handle.Map.for_all first p.del
          && Handle.Map.for_all (fun h (u : Effect.upd_entry) -> first h u.old_row) p.upd)
        (fold_compose effs) true)

(* The net change between a history's first and last states, built
   without composing: a tuple only in the last state is inserted, one
   only in the first is deleted, and one in both is updated on the
   columns whose values differ.  A tuple in both states is selected on every column
   some step selected it on.  Every update in the histories below
   writes a value not seen before, so a column an update touched always
   differs at the end. *)
let net_change { first; effs; last; _ } =
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
    |> Reference_rules.Cols.of_list
  in
  let of_first =
    List.fold_left
      (fun (e : Flat.t) (h, row0) ->
        match Database.find_row last h with
        | None -> { e with del = Handle.Set.add h e.del }
        | Some row1 ->
          let cols = changed_cols h row0 row1 in
          if Reference_rules.Cols.is_empty cols then e
          else { e with upd = Handle.Map.add h cols e.upd })
      Flat.empty (tuples first)
  in
  let ins =
    List.fold_left
      (fun s (h, _) -> if stored first h then s else Handle.Set.add h s)
      Handle.Set.empty (tuples last)
  in
  let add_sel h cols m =
    if stored first h && stored last h then Flat.add_cols m h cols else m
  in
  let sel =
    List.fold_left
      (fun m e -> Handle.Map.fold add_sel (flat e).Flat.sel m)
      Handle.Map.empty effs
  in
  { of_first with ins; sel }

let prop_net_change =
  QCheck.Test.make ~name:"composite is the net change of first to last state"
    ~count:300 arb_history (fun hist ->
      Flat.equal (flat (fold_compose hist.effs)) (net_change hist))

(* Random statement histories over [t] and [u], run through data
   manipulation as the engine runs them, each step's effect built from
   the affected set its statement returns.  Updates add 1000 to [a] or
   write a [b] no earlier step wrote; the join reads both tables in one
   select. *)
let gen_dml_history st =
  let open QCheck.Gen in
  let first =
    List.fold_left
      (fun db (x, a) ->
        (exec db (Printf.sprintf "insert into %s values (%d, 'v')" x a)).Dml.db)
      (two_tables ())
      (List.concat_map (fun a -> [ ("t", a); ("u", a) ]) [ 0; 1; 2; 3; 4 ])
  in
  let statement i =
    let k = int_bound 9 st in
    let x, y = if bool st then ("t", "u") else ("u", "t") in
    match int_bound 7 st with
    | 0 -> Printf.sprintf "insert into %s values (%d, 'n')" x k
    | 1 ->
      Printf.sprintf "insert into %s (select a + 1, b from %s where a = %d)" x
        y k
    | 2 -> Printf.sprintf "delete from %s where a = %d" x k
    | 3 -> Printf.sprintf "update %s set a = a + 1000 where a <= %d" x k
    | 4 -> Printf.sprintf "update %s set b = 'w%d' where a >= %d" x i k
    | 5 -> Printf.sprintf "select b from %s where a = %d" x k
    | 6 -> "select t.b, u.a from t, u where t.a = u.a"
    | _ -> Printf.sprintf "select count(*) from %s where b = 'v'" x
  in
  let n = int_range 1 12 st in
  let rec go db i sqls steps =
    if i = n then (List.rev sqls, history first (List.rev steps))
    else
      let sql = statement i in
      let r = exec db sql in
      go r.Dml.db (i + 1) (sql :: sqls) ((r.Dml.affected, r.Dml.db) :: steps)
  in
  go first 0 [] []

let arb_dml_history =
  QCheck.make ~print:(fun (sqls, _) -> String.concat "; " sqls) gen_dml_history

let prop_dml_net_change =
  QCheck.Test.make ~name:"composed statement effects are the net change"
    ~count:200 arb_dml_history (fun (_, hist) ->
      Flat.equal (flat (fold_compose hist.effs)) (net_change hist))

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

(* The per-table effect against the flat reference model: after every
   composition of a history the two hold the same components, and
   agree on every question the engine asks of an effect — its tables,
   its restrictions, each basic transition predicate (column forms and
   a column no step touches included), its cardinality, equality with
   the previous composite, its printed form, and each transition
   table's rows in order, materialized against the state after the
   step (the flat model reads old values from the history's first
   state, the per-table effect from its old rows). *)
let all_preds =
  List.concat_map
    (fun t ->
      let cols = [ None; Some "a"; Some "b"; Some "c" ] in
      [ Ast.Tp_inserted t; Ast.Tp_deleted t ]
      @ List.map (fun c -> Ast.Tp_updated (t, c)) cols
      @ List.map (fun c -> Ast.Tp_selected (t, c)) cols)
    [ "t"; "u" ]

let all_trans_tables =
  List.concat_map
    (fun t ->
      [ Ast.Tt_inserted t; Ast.Tt_deleted t ]
      @ List.concat_map
          (fun c ->
            [ Ast.Tt_old_updated (t, c); Ast.Tt_new_updated (t, c); Ast.Tt_selected (t, c) ])
          [ None; Some "a"; Some "b" ])
    [ "t"; "u" ]

let keeps = [ String.equal "t"; String.equal "u"; Fun.const true; Fun.const false ]

let agrees ~first ~prev:(e0, f0) (e, f) db =
  let str pp x = Fmt.str "%a" pp x in
  Flat.equal (flat e) f
  && Effect.well_formed e
  && Effect.Col_set.elements (Effect.tables e) = Reference_rules.Cols.elements (Flat.tables f)
  && List.for_all
       (fun k -> Flat.equal (flat (Effect.restrict e k)) (Flat.restrict f k))
       keeps
  && List.for_all
       (fun p -> Effect.satisfies_pred e p = Flat.satisfies_pred f p)
       all_preds
  && Effect.cardinality e = Flat.cardinality f
  && Effect.equal e e0 = Flat.equal f f0
  && String.equal (str Effect.pp e) (str Flat.pp f)
  && List.for_all
       (fun tt ->
         List.equal Row.equal
           (Rules.Transition_tables.materialize e ~current_db:db tt).Eval.rows
           (Flat.materialize f ~start:first ~current:db tt))
       all_trans_tables

let agrees_along hist =
  let rec go prev = function
    | [] -> true
    | (a, db) :: rest ->
      let e = Effect.compose (fst prev) (Effect.of_affected a) in
      let f = Flat.compose (snd prev) (flat_of_affected a) in
      agrees ~first:hist.first ~prev (e, f) db && go (e, f) rest
  in
  go (Effect.empty, Flat.empty) (List.combine hist.affected hist.states)

let prop_agrees_with_flat =
  QCheck.Test.make ~name:"per-table effect agrees with the flat model"
    ~count:300 arb_history agrees_along

let prop_dml_agrees_with_flat =
  QCheck.Test.make
    ~name:"statement effects agree with the flat model" ~count:200
    arb_dml_history (fun (_, hist) -> agrees_along hist)

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
    Alcotest.test_case "same handle selected twice" `Quick
      test_select_same_handle_twice;
    Alcotest.test_case "select;delete drops the selection" `Quick
      test_select_then_delete;
    Alcotest.test_case "insert;select is not reported" `Quick
      test_select_of_inserted;
    Alcotest.test_case "pp prints S when non-empty" `Quick test_pp;
    Alcotest.test_case "pp of a two-table effect" `Quick test_pp_two_tables;
    qtest prop_composition_associative;
    qtest prop_composition_well_formed;
    qtest prop_split_composition;
    qtest prop_old_rows_from_first_state;
    qtest prop_net_change;
    qtest prop_dml_net_change;
    qtest prop_restrict_commutes;
    qtest prop_agrees_with_flat;
    qtest prop_dml_agrees_with_flat;
  ]
