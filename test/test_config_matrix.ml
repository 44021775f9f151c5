(* Configuration-matrix tests: the engine's switches — the selection
   strategy and whether the select component of effects is maintained
   ([track_selects]) — under the paper's worked examples 3.1 (cascaded
   delete), 4.1 (recursive cascade over the management hierarchy) and
   4.2 (salary control over a composite transition).  Each of the six
   combinations runs against the Section 4 reference
   (test/reference_rules.ml) with the same strategy and tracking: the
   two must agree on the outcome, every consideration and firing, and
   the final state. *)

open Core

let combos =
  List.concat_map
    (fun strategy -> List.map (fun track_selects -> (strategy, track_selects)) [ true; false ])
    [
      Selection.Creation_order;
      Selection.Least_recently_considered;
      Selection.Most_recently_considered;
    ]

let check_matrix (case : Test_reference_rules.case) =
  List.iter
    (fun (strategy, track_selects) ->
      let config = { Engine.default_config with Engine.strategy; track_selects } in
      match Test_reference_rules.differential ~config case with
      | Ok _ -> ()
      | Error diff ->
        Alcotest.failf "%s, track_selects=%b: %s"
          (Test_reference_rules.strategy_label strategy)
          track_selects diff)
    combos

let test_example_3_1_matrix () = check_matrix Test_reference_rules.example_3_1
let test_example_4_1_matrix () = check_matrix Test_reference_rules.example_4_1
let test_example_4_2_matrix () = check_matrix Test_reference_rules.example_4_2

let suite =
  [
    Alcotest.test_case "example 3.1 under all configs" `Quick test_example_3_1_matrix;
    Alcotest.test_case "example 4.1 under all configs" `Quick test_example_4_1_matrix;
    Alcotest.test_case "example 4.2 under all configs" `Quick test_example_4_2_matrix;
  ]
