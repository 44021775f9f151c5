(* Tests for transition effects and Definition 2.1 composition. *)

open Core
open Helpers

let h table = Handle.fresh table

let eff_testable =
  Alcotest.testable (fun ppf e -> Effect.pp ppf e) Effect.equal

let test_single_op_effects () =
  let h1 = h "t" in
  let e = Effect.of_inserted [ h1 ] in
  Alcotest.(check bool) "ins member" true (Handle.Set.mem h1 e.Effect.ins);
  Alcotest.(check bool) "well formed" true (Effect.well_formed e);
  let e = Effect.of_deleted [ h1 ] in
  Alcotest.(check bool) "del member" true (Handle.Set.mem h1 e.Effect.del);
  let e = Effect.of_updated [ (h1, [ "a"; "b" ]) ] in
  Alcotest.(check int) "upd cols" 2
    (Effect.Col_set.cardinal (Handle.Map.find h1 e.Effect.upd))

(* The paper's netting rules, Section 2.2. *)
let test_insert_then_delete_is_nothing () =
  let h1 = h "t" in
  let e =
    Effect.compose (Effect.of_inserted [ h1 ]) (Effect.of_deleted [ h1 ])
  in
  Alcotest.(check bool) "empty" true (Effect.is_empty e)

let test_insert_then_update_is_insert () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (Effect.of_inserted [ h1 ])
      (Effect.of_updated [ (h1, [ "c" ]) ])
  in
  Alcotest.(check bool) "ins" true (Handle.Set.mem h1 e.Effect.ins);
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty e.Effect.upd);
  Alcotest.(check bool) "well formed" true (Effect.well_formed e)

let test_update_then_delete_is_delete () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (Effect.of_updated [ (h1, [ "c" ]) ])
      (Effect.of_deleted [ h1 ])
  in
  Alcotest.(check bool) "del" true (Handle.Set.mem h1 e.Effect.del);
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty e.Effect.upd)

let test_updates_merge () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (Effect.of_updated [ (h1, [ "a" ]) ])
      (Effect.of_updated [ (h1, [ "b" ]) ])
  in
  let cols = Handle.Map.find h1 e.Effect.upd in
  Alcotest.(check bool) "a" true (Effect.Col_set.mem "a" cols);
  Alcotest.(check bool) "b" true (Effect.Col_set.mem "b" cols)

(* Delete then insert of a NEW tuple is never treated as an update
   (Section 2.2): the handles differ, so both survive composition. *)
let test_delete_then_insert_not_update () =
  let h1 = h "t" and h2 = h "t" in
  let e =
    Effect.compose (Effect.of_deleted [ h1 ]) (Effect.of_inserted [ h2 ])
  in
  Alcotest.(check bool) "del kept" true (Handle.Set.mem h1 e.Effect.del);
  Alcotest.(check bool) "ins kept" true (Handle.Set.mem h2 e.Effect.ins);
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty e.Effect.upd)

let test_identity () =
  let h1 = h "t" in
  let e = Effect.of_updated [ (h1, [ "c" ]) ] in
  Alcotest.check eff_testable "left id" e (Effect.compose Effect.empty e);
  Alcotest.check eff_testable "right id" e (Effect.compose e Effect.empty)

let test_triggering_predicates () =
  let he = h "emp" and hd = h "dept" in
  let e =
    Effect.compose
      (Effect.of_inserted [ he ])
      (Effect.of_updated [ (hd, [ "mgr_no" ]) ])
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
  let e = Effect.of_selected [ ([ "salary" ], [ he ]) ] in
  Alcotest.(check bool) "selected emp" true
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", None)));
  Alcotest.(check bool) "selected emp.salary" true
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", Some "salary")));
  Alcotest.(check bool) "selected emp.name" false
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", Some "name")));
  (* selection of a tuple later deleted is dropped *)
  let e2 = Effect.compose e (Effect.of_deleted [ he ]) in
  Alcotest.(check bool) "pruned" false
    (Effect.satisfies_pred e2 (Ast.Tp_selected ("emp", None)))

(* ------------------------------------------------------------------ *)
(* Property tests: generate valid operation histories over a handle
   pool and check algebraic laws of composition.                       *)

let gen_history =
  (* produce a list of effects corresponding to a valid history *)
  let open QCheck.Gen in
  let cols = [ "a"; "b"; "c" ] in
  let gen_step = frequency
      [ (2, return `Ins); (1, return `Del); (3, return `Upd) ]
  in
  let rec build live acc n st =
    if n = 0 then List.rev acc
    else
      let step = gen_step st in
      match step with
      | `Ins ->
        let hh = Handle.fresh "sim" in
        build (hh :: live) (Effect.of_inserted [ hh ] :: acc) (n - 1) st
      | `Del when live <> [] ->
        let i = int_bound (List.length live - 1) st in
        let victim = List.nth live i in
        let live = List.filteri (fun j _ -> j <> i) live in
        build live (Effect.of_deleted [ victim ] :: acc) (n - 1) st
      | `Upd when live <> [] ->
        let i = int_bound (List.length live - 1) st in
        let c = List.nth cols (int_bound (List.length cols - 1) st) in
        build live
          (Effect.of_updated [ (List.nth live i, [ c ]) ] :: acc)
          (n - 1) st
      | _ -> build live acc n st
  in
  fun st ->
    let n = int_range 1 12 st in
    build [] [] n st

let arb_history =
  QCheck.make
    ~print:(fun effs ->
      String.concat "; " (List.map (fun e -> Fmt.str "%a" Effect.pp e) effs))
    gen_history

let fold_compose = List.fold_left Effect.compose Effect.empty

let prop_composition_associative =
  QCheck.Test.make ~name:"effect composition is associative over histories"
    ~count:300 arb_history (fun effs ->
      (* compare left fold against a right fold *)
      let left = fold_compose effs in
      let right = List.fold_right (fun e acc -> Effect.compose e acc) effs Effect.empty in
      Effect.equal left right)

let prop_composition_well_formed =
  QCheck.Test.make ~name:"composition preserves well-formedness" ~count:300
    arb_history (fun effs ->
      List.for_all Effect.well_formed effs && Effect.well_formed (fold_compose effs))

let prop_split_composition =
  QCheck.Test.make
    ~name:"composite of prefix and suffix equals composite of whole"
    ~count:300
    QCheck.(pair arb_history small_nat)
    (fun (effs, k) ->
      let n = List.length effs in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let rec split i = function
        | rest when i = 0 -> ([], rest)
        | [] -> ([], [])
        | x :: rest ->
          let a, b = split (i - 1) rest in
          (x :: a, b)
      in
      let prefix, suffix = split k effs in
      Effect.equal
        (Effect.compose (fold_compose prefix) (fold_compose suffix))
        (fold_compose effs))

let suite =
  [
    Alcotest.test_case "single-op effects" `Quick test_single_op_effects;
    Alcotest.test_case "insert;delete nets to nothing" `Quick
      test_insert_then_delete_is_nothing;
    Alcotest.test_case "insert;update nets to insert" `Quick
      test_insert_then_update_is_insert;
    Alcotest.test_case "update;delete nets to delete" `Quick
      test_update_then_delete_is_delete;
    Alcotest.test_case "updates merge columns" `Quick test_updates_merge;
    Alcotest.test_case "delete;insert stays delete+insert" `Quick
      test_delete_then_insert_not_update;
    Alcotest.test_case "empty is identity" `Quick test_identity;
    Alcotest.test_case "triggering predicates" `Quick test_triggering_predicates;
    Alcotest.test_case "select component (ext 5.1)" `Quick test_select_component;
    qtest prop_composition_associative;
    qtest prop_composition_well_formed;
    qtest prop_split_composition;
  ]
