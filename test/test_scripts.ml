(* Execute the SQL scripts under test/scripts end-to-end and check the
   final states they are designed to reach.  These scripts double as
   documentation of realistic usage; they run exactly as `sopr -f`
   would run them. *)

open Core
open Helpers

(* The scripts sit beside the test binary, where dune's
   [(deps (source_tree scripts))] copies them, so the suite finds them
   whatever directory it is run from. *)
let scripts_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "scripts"

let load name =
  In_channel.with_open_text (Filename.concat scripts_dir name) In_channel.input_all

(* Execute a script statement by statement, tolerating the statements
   that are *meant* to fail (constraint rollbacks surface as outcomes,
   not errors, so only genuine errors are tolerated here). *)
let run_script s sql = List.iter (fun r -> ignore r) (System.exec s sql)

let test_bank () =
  let s = System.create () in
  run_script s (load "bank.sql");
  Alcotest.(check (float 0.01)) "ada after legal transfer" 800.0
    (float_cell s "select balance from account where id = 1");
  Alcotest.(check (float 0.01)) "bob after legal transfer" 700.0
    (float_cell s "select balance from account where id = 2");
  Alcotest.(check int) "one logged transfer" 1
    (int_cell s "select count(*) from transfer_log");
  (* only the committed transaction left audit rows *)
  Alcotest.(check int) "two audited balance changes" 2
    (int_cell s "select count(*) from balance_audit");
  Alcotest.(check (float 0.01)) "audit old value" 1000.0
    (float_cell s "select old_balance from balance_audit where id = 1");
  Alcotest.(check (float 0.01)) "audit new value" 800.0
    (float_cell s "select new_balance from balance_audit where id = 1")

let test_paper_scenario () =
  let s = System.create () in
  run_script s (load "paper_scenario.sql");
  Alcotest.(check int) "everyone cascaded away" 0
    (int_cell s "select count(*) from emp");
  Alcotest.(check int) "departments cascaded away" 0
    (int_cell s "select count(*) from dept")

let test_derived_data () =
  let s = System.create () in
  run_script s (load "derived_data.sql");
  let _, rows = System.query s "select region, total from region_total" in
  Alcotest.check rows_testable "summary consistent"
    [ [| vs "north"; vf 20.0 |] ]
    rows;
  (* invariant: summary always equals the recomputed aggregate *)
  Alcotest.(check int) "no stale groups" 0
    (int_cell s
       "select count(*) from region_total where region not in (select region \
        from sale)")

let test_transitive_closure () =
  let s = System.create () in
  run_script s (load "transitive_closure.sql");
  (* chain 1..6 gives 15 pairs; node 0 reaches all of 1..6: 6 more *)
  Alcotest.(check int) "closure size" 21 (int_cell s "select count(*) from path");
  Alcotest.(check int) "0 reaches everyone" 6
    (int_cell s "select count(*) from path where src = 0");
  Alcotest.(check int) "no duplicates" 21
    (int_cell s "select count(*) from (select distinct src, dst from path) d");
  (* the closure is sound: every path endpoint pair is connected *)
  Alcotest.(check int) "edge implies path" 0
    (int_cell s
       "select count(*) from edge e where not exists (select * from path p \
        where p.src = e.src and p.dst = e.dst)")

let suite =
  [
    Alcotest.test_case "bank.sql" `Quick test_bank;
    Alcotest.test_case "transitive_closure.sql" `Quick test_transitive_closure;
    Alcotest.test_case "paper_scenario.sql" `Quick test_paper_scenario;
    Alcotest.test_case "derived_data.sql" `Quick test_derived_data;
  ]
