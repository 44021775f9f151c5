(* Unit and property tests for SQL values and three-valued logic. *)

open Core
open Helpers

let check_value = Alcotest.check value_testable
let check_truth = Alcotest.(check bool)

let test_arithmetic () =
  check_value "int add" (vi 7) (Value.add (vi 3) (vi 4));
  check_value "float add" (vf 7.5) (Value.add (vf 3.5) (vi 4));
  check_value "mixed mul" (vf 2.0) (Value.mul (vf 0.5) (vi 4));
  check_value "sub" (vi (-1)) (Value.sub (vi 3) (vi 4));
  check_value "int div" (vi 2) (Value.div (vi 7) (vi 3));
  check_value "float div" (vf 3.5) (Value.div (vf 7.0) (vi 2));
  check_value "mod" (vi 1) (Value.rem (vi 7) (vi 3));
  check_value "neg" (vi (-5)) (Value.neg (vi 5));
  check_value "neg float" (vf (-2.5)) (Value.neg (vf 2.5))

let test_arithmetic_null () =
  check_value "null + x" vnull (Value.add vnull (vi 1));
  check_value "x + null" vnull (Value.add (vi 1) vnull);
  check_value "null * x" vnull (Value.mul vnull (vf 2.0));
  check_value "null / x" vnull (Value.div vnull (vi 2));
  check_value "neg null" vnull (Value.neg vnull);
  check_value "null concat" vnull (Value.concat vnull (vs "a"))

let test_arithmetic_errors () =
  expect_error (fun () -> Value.add (vs "a") (vi 1));
  expect_error (fun () -> Value.div (vi 1) (vi 0));
  expect_error (fun () -> Value.div (vf 1.0) (vf 0.0));
  expect_error (fun () -> Value.rem (vi 1) (vi 0));
  expect_error (fun () -> Value.rem (vf 1.0) (vf 2.0));
  expect_error (fun () -> Value.neg (vs "x"));
  expect_error (fun () -> Value.concat (vi 1) (vs "a"))

let test_concat () =
  check_value "concat" (vs "ab") (Value.concat (vs "a") (vs "b"))

let test_comparison () =
  let cmp a b = Value.compare_sql a b in
  let unknown = Value.unknown_cmp in
  Alcotest.(check int) "int lt" (-1) (cmp (vi 1) (vi 2));
  Alcotest.(check int) "int gt" 1 (cmp (vi 7) (vi (-7)));
  Alcotest.(check int) "mixed eq" 0 (cmp (vi 2) (vf 2.0));
  Alcotest.(check int) "int below float" (-1) (cmp (vi 2) (vf 2.5));
  Alcotest.(check int) "float above int" 1 (cmp (vf 2.5) (vi 2));
  Alcotest.(check int) "float eq" 0 (cmp (vf 0.5) (vf 0.5));
  Alcotest.(check int) "str" 1 (cmp (vs "b") (vs "a"));
  Alcotest.(check int) "str prefix" (-1) (cmp (vs "ab") (vs "abc"));
  Alcotest.(check int) "str eq" 0 (cmp (vs "U") (vs "U"));
  Alcotest.(check int) "str bytewise" (-1) (cmp (vs "Z") (vs "a"));
  Alcotest.(check int) "bool" 1 (cmp (Value.Bool true) (Value.Bool false));
  Alcotest.(check int) "null left" unknown (cmp vnull (vi 1));
  Alcotest.(check int) "null right" unknown (cmp (vi 1) vnull);
  Alcotest.(check int) "null null" unknown (cmp vnull vnull);
  Alcotest.(check int) "null beside a string" unknown (cmp (vs "a") vnull);
  Alcotest.(check bool) "unknown is no sign" true
    (not (List.mem unknown [ -1; 0; 1 ]));
  (* the mismatch error, text included, is the one comparisons raised
     when they returned an option *)
  let type_error f =
    match f () with
    | _ -> Alcotest.fail "expected a type error"
    | exception Errors.Error e -> Errors.to_string e
  in
  Alcotest.(check string) "string with int"
    (type_error (fun () -> Errors.type_error "cannot compare string with int"))
    (type_error (fun () -> cmp (vs "a") (vi 1)));
  Alcotest.(check string) "int with string"
    (type_error (fun () -> Errors.type_error "cannot compare int with string"))
    (type_error (fun () -> cmp (vi 1) (vs "a")));
  expect_error (fun () -> cmp (vi 1) (Value.Bool true));
  (* equality's three values follow the comparison *)
  Alcotest.(check bool) "eq unknown" true (Value.eq_sql vnull (vi 1) = Value.Unknown);
  Alcotest.(check bool) "eq true" true (Value.eq_sql (vi 3) (vf 3.0) = Value.True);
  Alcotest.(check bool) "eq false" true (Value.eq_sql (vs "a") (vs "b") = Value.False)

(* A comparison allocates nothing: the minor heap does not grow over a
   loop of them, NULL and mixed numbers included. *)
let test_comparison_allocates_nothing () =
  let pairs =
    [| (vi 1, vi 2); (vi 2, vf 2.0); (vs "a", vs "b"); (vnull, vi 1); (vf 1.5, vnull) |]
  in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let a, b = pairs.(i mod Array.length pairs) in
    sum := !sum + (Value.compare_sql a b land 3)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sum);
  Alcotest.(check bool) (Printf.sprintf "%.0f words over 10,000 comparisons" words) true
    (words < 100.)

let test_three_valued_logic () =
  let open Value in
  (* and *)
  check_truth "T and T" true (truth_and True True = True);
  check_truth "T and U" true (truth_and True Unknown = Unknown);
  check_truth "F and U" true (truth_and False Unknown = False);
  check_truth "U and F" true (truth_and Unknown False = False);
  check_truth "U and U" true (truth_and Unknown Unknown = Unknown);
  (* or *)
  check_truth "T or U" true (truth_or True Unknown = True);
  check_truth "U or T" true (truth_or Unknown True = True);
  check_truth "F or U" true (truth_or False Unknown = Unknown);
  check_truth "F or F" true (truth_or False False = False);
  (* not *)
  check_truth "not U" true (truth_not Unknown = Unknown);
  check_truth "not T" true (truth_not True = False);
  (* holds *)
  check_truth "holds T" true (truth_holds True);
  check_truth "holds U" false (truth_holds Unknown);
  check_truth "holds F" false (truth_holds False)

let test_like () =
  let like s p = Value.like (vs s) (vs p) = Value.True in
  check_truth "exact" true (like "abc" "abc");
  check_truth "pct suffix" true (like "abcdef" "abc%");
  check_truth "pct prefix" true (like "abcdef" "%def");
  check_truth "pct middle" true (like "abcdef" "a%f");
  check_truth "underscore" true (like "abc" "a_c");
  check_truth "underscore fail" false (like "abbc" "a_c");
  check_truth "empty pct" true (like "" "%");
  check_truth "pct only" true (like "anything" "%%");
  check_truth "no match" false (like "abc" "abd");
  check_truth "pct matches empty" true (like "ab" "a%b");
  check_truth "null like" true (Value.like vnull (vs "%") = Value.Unknown);
  expect_error (fun () -> Value.like (vi 1) (vs "%"))

let test_total_order () =
  Alcotest.(check int) "null first" (-1)
    (compare (Value.compare_total vnull (vi 0)) 0);
  Alcotest.(check int) "int/float" 0 (Value.compare_total (vi 2) (vf 2.0));
  Alcotest.(check bool) "str after num" true
    (Value.compare_total (vs "a") (vi 9) > 0);
  Alcotest.(check bool) "bool before num" true
    (Value.compare_total (vb true) (vi 0) < 0)

let test_to_string_round_trip () =
  (* float rendering must parse back as a float *)
  List.iter
    (fun f ->
      let s = Value.to_string (vf f) in
      Alcotest.(check (float 1e-9)) s f (float_of_string s))
    [ 0.0; 1.5; -2.25; 1e10; 0.1 ]

(* Regression: non-finite floats used to print as OCaml's "nan"/"inf",
   which the SQL grammar could not read back (and "inf" is not even a
   valid float literal elsewhere).  They now print as the grammar's
   NAN / INFINITY literal spellings, so any stored value round-trips
   through rendered SQL. *)
let test_non_finite_round_trip () =
  Alcotest.(check string) "nan spelling" "nan" (Value.to_string (vf Float.nan));
  Alcotest.(check string) "infinity spelling" "infinity"
    (Value.to_string (vf Float.infinity));
  Alcotest.(check string) "-infinity spelling" "-infinity"
    (Value.to_string (vf Float.neg_infinity));
  let s = Helpers.system "create table t (f float)" in
  List.iter
    (fun f ->
      let v = vf f in
      let again =
        Helpers.cell s (Printf.sprintf "select %s" (Value.to_string v))
      in
      (* Value.equal is total here: nan = nan under Float.equal *)
      check_value (Value.to_string v) v again)
    [ Float.nan; Float.infinity; Float.neg_infinity; 1.5; -2.25 ]

let test_display () =
  Alcotest.(check string) "str unquoted" "hi" (Value.to_display (vs "hi"));
  Alcotest.(check string) "str quoted" "'it''s'" (Value.to_string (vs "it's"));
  Alcotest.(check string) "null" "NULL" (Value.to_display vnull)

(* property: like_match with a pattern equal to the text always
   matches; '%' always matches. *)
let prop_like_self =
  QCheck.Test.make ~name:"like: text matches itself" ~count:200
    QCheck.(string_small_of (Gen.char_range 'a' 'z'))
    (fun s ->
      Value.like (vs s) (vs s) = Value.True
      && Value.like (vs s) (vs "%") = Value.True)

let prop_compare_total_order =
  let gen_value =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun n -> Value.Int n) small_signed_int;
          map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
          map (fun s -> Value.Str s) (string_size (int_range 0 5));
          map (fun b -> Value.Bool b) bool;
        ])
  in
  let arb =
    QCheck.make ~print:(fun v -> Value.to_string v) gen_value
  in
  QCheck.Test.make ~name:"compare_total is antisymmetric and transitive-ish"
    ~count:500
    QCheck.(triple arb arb arb)
    (fun (a, b, c) ->
      let ab = Value.compare_total a b and ba = Value.compare_total b a in
      let sign x = compare x 0 in
      sign ab = -sign ba
      &&
      (* transitivity spot check: a<=b<=c implies a<=c *)
      if Value.compare_total a b <= 0 && Value.compare_total b c <= 0 then
        Value.compare_total a c <= 0
      else true)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "arithmetic with null" `Quick test_arithmetic_null;
    Alcotest.test_case "arithmetic errors" `Quick test_arithmetic_errors;
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "sql comparison" `Quick test_comparison;
    Alcotest.test_case "sql comparison allocates nothing" `Quick
      test_comparison_allocates_nothing;
    Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
    Alcotest.test_case "like" `Quick test_like;
    Alcotest.test_case "total order" `Quick test_total_order;
    Alcotest.test_case "to_string round trip" `Quick test_to_string_round_trip;
    Alcotest.test_case "non-finite round trip (regression)" `Quick
      test_non_finite_round_trip;
    Alcotest.test_case "display" `Quick test_display;
    qtest prop_like_self;
    qtest prop_compare_total_order;
  ]
