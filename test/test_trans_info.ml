(* Tests for per-rule composite transition information (Figure 1's
   init-trans-info / modify-trans-info), exercised directly against
   database states. *)

open Core
open Helpers

let db_with_t () =
  Database.create_table Database.empty
    (Schema.table "t"
       [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ])

let test_init_insert () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  ignore db1;
  let ti = Trans_info.init (Effect.of_inserted [ h ]) db0 in
  Alcotest.(check bool) "ins" true (Handle.Set.mem h ti.Trans_info.ins);
  Alcotest.(check bool) "triggered" true
    (Trans_info.triggered ti [ Ast.Tp_inserted "t" ]);
  Alcotest.(check bool) "not deleted" false
    (Trans_info.triggered ti [ Ast.Tp_deleted "t" ])

let test_init_delete_captures_values () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let db2 = Database.delete db1 h in
  ignore db2;
  (* old state is db1, where the tuple still exists *)
  let ti = Trans_info.init (Effect.of_deleted [ h ]) db1 in
  Alcotest.check row_testable "value captured" [| vi 1; vs "x" |]
    (Handle.Map.find h ti.Trans_info.del)

let test_init_update_captures_old () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let db2 = Database.update db1 h [| vi 2; vs "x" |] in
  ignore db2;
  let ti = Trans_info.init (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  let entry = Handle.Map.find h ti.Trans_info.upd in
  Alcotest.check row_testable "old row" [| vi 1; vs "x" |] entry.Trans_info.old_row;
  Alcotest.(check bool) "col" true
    (Effect.Col_set.mem "a" entry.Trans_info.upd_cols)

(* insert in transition 1, delete in transition 2: the composite info
   is empty — the rule sees nothing. *)
let test_extend_insert_then_delete () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let ti = Trans_info.init (Effect.of_inserted [ h ]) db0 in
  let db2 = Database.delete db1 h in
  ignore db2;
  let ti = Trans_info.extend ti (Effect.of_deleted [ h ]) db1 in
  Alcotest.(check bool) "empty" true (Trans_info.is_empty ti)

(* update in two consecutive transitions: old value is from the start
   of the composite, and columns accumulate. *)
let test_extend_update_keeps_first_old () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  (* transition A: update a to 2 *)
  let db2 = Database.update db1 h [| vi 2; vs "x" |] in
  let ti = Trans_info.init (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  (* transition B: update b *)
  let db3 = Database.update db2 h [| vi 2; vs "y" |] in
  ignore db3;
  let ti = Trans_info.extend ti (Effect.of_updated [ (h, [ "b" ]) ]) db2 in
  let entry = Handle.Map.find h ti.Trans_info.upd in
  (* the old row is the pre-composite value (a=1, b=x), not db2's *)
  Alcotest.check row_testable "first old kept" [| vi 1; vs "x" |]
    entry.Trans_info.old_row;
  Alcotest.(check int) "both columns" 2
    (Effect.Col_set.cardinal entry.Trans_info.upd_cols)

(* update then delete across transitions: net delete, with the
   pre-composite value. *)
let test_extend_update_then_delete () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let db2 = Database.update db1 h [| vi 99; vs "x" |] in
  let ti = Trans_info.init (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  let db3 = Database.delete db2 h in
  ignore db3;
  let ti = Trans_info.extend ti (Effect.of_deleted [ h ]) db2 in
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty ti.Trans_info.upd);
  (* deleted value is the value at the start of the composite (a=1) *)
  Alcotest.check row_testable "pre-composite value" [| vi 1; vs "x" |]
    (Handle.Map.find h ti.Trans_info.del)

(* insert then update across transitions nets to insert. *)
let test_extend_insert_then_update () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let ti = Trans_info.init (Effect.of_inserted [ h ]) db0 in
  let db2 = Database.update db1 h [| vi 5; vs "x" |] in
  ignore db2;
  let ti = Trans_info.extend ti (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  Alcotest.(check bool) "still inserted" true (Handle.Set.mem h ti.Trans_info.ins);
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty ti.Trans_info.upd);
  Alcotest.(check bool) "triggers insert only" true
    (Trans_info.triggered ti [ Ast.Tp_inserted "t" ]
    && not (Trans_info.triggered ti [ Ast.Tp_updated ("t", None) ]))

(* A random valid history over two tables [t] and [u] that start with
   two rows each: each step is one single-operation effect (insert,
   delete, update of one column, or a select of one column) paired with
   the state it ran from.  Rows that predate the history are what
   deletes, updates and selects of the composite can report. *)
let gen_history st =
  let db =
    Database.create_table (db_with_t ())
      (Schema.table "u"
         [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ])
  in
  let db0, live0 =
    List.fold_left
      (fun (db, live) table ->
        let db, h = Database.insert db table [| vi 0; vs "v" |] in
        (db, h :: live))
      (db, []) [ "t"; "t"; "u"; "u" ]
  in
  let open QCheck.Gen in
  let pick live = List.nth live (int_bound (List.length live - 1) st) in
  let rec go db live steps acc =
    if steps = 0 then List.rev acc
    else
      let choice = int_bound 3 st in
      let col = if bool st then "a" else "b" in
      if choice = 0 || live = [] then begin
        let table = if bool st then "t" else "u" in
        let db', h =
          Database.insert db table [| vi (int_bound 100 st); vs "v" |]
        in
        go db' (h :: live) (steps - 1) ((db, Effect.of_inserted [ h ]) :: acc)
      end
      else if choice = 1 then begin
        let h = pick live in
        let live' = List.filter (fun h' -> not (Handle.equal h h')) live in
        go (Database.delete db h) live' (steps - 1)
          ((db, Effect.of_deleted [ h ]) :: acc)
      end
      else if choice = 2 then begin
        let h = pick live in
        let row = Database.get_row db h in
        let row' =
          if col = "a" then [| vi (int_bound 100 st); row.(1) |]
          else [| row.(0); vs "w" |]
        in
        let db' = Database.update db h row' in
        go db' live (steps - 1)
          ((db, Effect.of_updated [ (h, [ col ]) ]) :: acc)
      end
      else
        go db live (steps - 1)
          ((db, Effect.of_selected [ ([ col ], [ pick live ]) ]) :: acc)
  in
  go db0 live0 (int_range 1 15 st) []

let arb_history =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d transitions>" (List.length l))
    gen_history

(* Figure 1's information for a history: init on the first effect,
   extend with the rest. *)
let fold_info = function
  | [] -> Trans_info.empty
  | (db0, e0) :: rest ->
    List.fold_left
      (fun ti (db_before, e) -> Trans_info.extend ti e db_before)
      (Trans_info.init e0 db0) rest

(* property: over random valid histories, the effect represented by
   fold-extended trans-info equals the fold-composed effect. *)
let prop_extend_agrees_with_compose =
  QCheck.Test.make ~name:"trans-info effect = composed effect over histories"
    ~count:200 arb_history (fun history ->
      let composed =
        List.fold_left
          (fun acc (_, e) -> Effect.compose acc e)
          Effect.empty history
      in
      Effect.equal (Trans_info.to_effect (fold_info history)) composed)

(* property: the in-place triggering test agrees with testing the
   effect the information represents, for every basic predicate over
   both tables. *)
let prop_triggered_in_place =
  let preds =
    List.concat_map
      (fun t ->
        [ Ast.Tp_inserted t; Ast.Tp_deleted t ]
        @ List.concat_map
            (fun c -> [ Ast.Tp_updated (t, c); Ast.Tp_selected (t, c) ])
            [ None; Some "a"; Some "b" ])
      [ "t"; "u" ]
  in
  QCheck.Test.make ~name:"triggered in place = satisfies_pred of to_effect"
    ~count:200 arb_history (fun history ->
      let ti = fold_info history in
      List.for_all
        (fun p ->
          Trans_info.triggered ti [ p ]
          = Effect.satisfies_pred (Trans_info.to_effect ti) p)
        preds)

(* Every component, old rows included. *)
let info_equal (a : Trans_info.t) (b : Trans_info.t) =
  let cols = Effect.Col_set.equal in
  Handle.Set.equal a.ins b.ins
  && Handle.Map.equal Row.equal a.del b.del
  && Handle.Map.equal
       (fun x y ->
         cols x.Trans_info.upd_cols y.Trans_info.upd_cols
         && Row.equal x.old_row y.old_row)
       a.upd b.upd
  && Handle.Map.equal cols a.sel b.sel

(* property: restriction commutes with init and extend — restricting
   the fold-extended information equals folding the restricted
   effects.  The engine gives every woken rule the restriction of the
   transition's composite, so this is what makes that the information
   stepwise extension would have built for the rule. *)
let prop_restrict_commutes =
  let keeps = [| String.equal "t"; String.equal "u"; (fun _ -> false) |] in
  QCheck.Test.make ~name:"restrict (fold extend) = fold extend (restrict)"
    ~count:200
    (QCheck.pair arb_history (QCheck.int_bound (Array.length keeps - 1)))
    (fun (history, k) ->
      let keep = keeps.(k) in
      let restricted =
        List.map (fun (db, e) -> (db, Effect.restrict e keep)) history
      in
      info_equal
        (Trans_info.restrict (fold_info history) keep)
        (fold_info restricted))

let suite =
  [
    Alcotest.test_case "init insert" `Quick test_init_insert;
    Alcotest.test_case "init delete captures values" `Quick
      test_init_delete_captures_values;
    Alcotest.test_case "init update captures old row" `Quick
      test_init_update_captures_old;
    Alcotest.test_case "extend: insert;delete vanishes" `Quick
      test_extend_insert_then_delete;
    Alcotest.test_case "extend: update;update keeps first old" `Quick
      test_extend_update_keeps_first_old;
    Alcotest.test_case "extend: update;delete nets delete" `Quick
      test_extend_update_then_delete;
    Alcotest.test_case "extend: insert;update stays insert" `Quick
      test_extend_insert_then_update;
    qtest prop_extend_agrees_with_compose;
    qtest prop_restrict_commutes;
    qtest prop_triggered_in_place;
  ]
