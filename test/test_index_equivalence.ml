(* The differential harness for the secondary-index subsystem.

   Index probes are an optimization of a formally specified semantics
   (paper Section 4, Figure 1), so the optimized path must be proven
   equivalent to the scan path.  The tests here come in two layers:

   - unit tests for index maintenance, snapshot consistency (probes
     against retained pre-transition states must see those states),
     the CREATE INDEX / DROP INDEX statements and their errors, and
     the probe-equals-filtered-scan contract;

   - a differential property: randomized transaction sequences — op
     blocks with equality/IN/IN-subquery predicates driving a rule set
     that inserts, deletes, updates and rolls back — executed twice,
     once on a system with indexes and once on an index-free system,
     which never probes, asserting identical outcomes, select results,
     rule-firing traces and final states.

   Handles are process-global and the two systems interleave their
   allocation, so comparisons are value-based (rows, names, sizes) —
   trace events are already handle-free by construction. *)

open Core
open Helpers

(* ------------------------------------------------------------------ *)
(* Unit tests: maintenance and snapshot consistency                    *)

let two_col_schema name a b =
  Schema.table name [ Schema.column a Schema.T_int; Schema.column b Schema.T_int ]

(* One index read of table t's [column] ([a] by default), as the
   planner makes it. *)
let probe_t ?(column = "a") ?(budget = max_int) db keys =
  Table.probe (Database.table db "t") ~column ~budget keys

let test_maintenance () =
  let db = Database.create_table Database.empty (two_col_schema "t" "a" "b") in
  let db =
    Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a" ~kind:`Hash
  in
  let db, h1 = Database.insert db "t" [| vi 1; vi 10 |] in
  let db, h2 = Database.insert db "t" [| vi 1; vi 20 |] in
  let db, h3 = Database.insert db "t" [| vi 2; vi 30 |] in
  let db, _h4 = Database.insert db "t" [| vnull; vi 40 |] in
  let probe db v =
    match probe_t db (`Keys [ v ]) with
    | Some (`Rows pairs) -> List.map fst pairs
    | Some `Over_budget | None -> Alcotest.fail "expected a usable index"
  in
  Alcotest.(check int) "two rows with a=1" 2 (List.length (probe db (vi 1)));
  Alcotest.(check bool) "handle order" true (probe db (vi 1) = [ h1; h2 ]);
  Alcotest.(check int) "null never indexed" 0 (List.length (probe db vnull));
  (* delete unindexes *)
  let db = Database.delete db h1 in
  Alcotest.(check bool) "after delete" true (probe db (vi 1) = [ h2 ]);
  (* update moves the entry to the new key *)
  let db = Database.update db h3 [| vi 1; vi 30 |] in
  Alcotest.(check bool) "after update" true (probe db (vi 1) = [ h2; h3 ]);
  Alcotest.(check int) "old key vacated" 0 (List.length (probe db (vi 2)));
  (* numeric cross-kind probe agrees with SQL equality *)
  Alcotest.(check int) "float probe hits int key" 2
    (List.length (probe db (vf 1.0)))

let test_ordered_range_maintenance () =
  let db = Database.create_table Database.empty (two_col_schema "t" "a" "b") in
  let db =
    Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a"
      ~kind:`Ordered
  in
  let db, h1 = Database.insert db "t" [| vi 1; vi 10 |] in
  let db, h2 = Database.insert db "t" [| vi 3; vi 20 |] in
  let db, h3 = Database.insert db "t" [| vi 5; vi 30 |] in
  let db, _ = Database.insert db "t" [| vnull; vi 40 |] in
  let range db ~lower ~upper =
    match probe_t db (`Range (lower, upper)) with
    | Some (`Rows pairs) -> List.map fst pairs
    | Some `Over_budget | None -> Alcotest.fail "expected an ordered index"
  in
  let check msg expected got =
    Alcotest.(check bool) msg true (got = expected)
  in
  check "a >= 1 in handle order" [ h1; h2; h3 ]
    (range db ~lower:(Some (vi 1, true)) ~upper:None);
  check "a > 1 excludes the bound" [ h2; h3 ]
    (range db ~lower:(Some (vi 1, false)) ~upper:None);
  check "a <= 3" [ h1; h2 ]
    (range db ~lower:None ~upper:(Some (vi 3, true)));
  check "a < 3" [ h1 ] (range db ~lower:None ~upper:(Some (vi 3, false)));
  check "2 <= a <= 5" [ h2; h3 ]
    (range db ~lower:(Some (vi 2, true)) ~upper:(Some (vi 5, true)));
  check "unbounded = all non-null keys" [ h1; h2; h3 ]
    (range db ~lower:None ~upper:None);
  (* the walk gives up once it holds more handles than its budget *)
  Alcotest.(check bool) "three rows pass a budget of two" true
    (probe_t db ~budget:2 (`Range (None, None)) = Some `Over_budget);
  check "three rows fit a budget of three" [ h1; h2; h3 ]
    (match probe_t db ~budget:3 (`Range (None, None)) with
    | Some (`Rows pairs) -> List.map fst pairs
    | Some `Over_budget | None -> []);
  (* NULL keys are never indexed and NULL bounds select nothing *)
  check "null bound selects nothing" []
    (range db ~lower:(Some (vnull, true)) ~upper:None);
  (* cross-kind numeric bounds agree with SQL comparison semantics *)
  check "float bound over int keys" [ h2; h3 ]
    (range db ~lower:(Some (vf 2.5, false)) ~upper:None);
  (* a type-incompatible bound refuses, so the scan raises the error *)
  Alcotest.(check bool) "string bound refused" true
    (probe_t db (`Range (Some (vs "x", true), None)) = None);
  (* equality probes still work over the ordered representation *)
  (match probe_t db (`Keys [ vi 3 ]) with
  | Some (`Rows pairs) -> check "equality probe" [ h2 ] (List.map fst pairs)
  | Some `Over_budget | None -> Alcotest.fail "expected a usable index");
  (* a hash index over the other column answers no range probes *)
  let db =
    Database.create_index db ~ix_name:"t_b" ~table:"t" ~column:"b" ~kind:`Hash
  in
  Alcotest.(check bool) "hash index has no range capability" true
    (probe_t db ~column:"b" (`Range (Some (vi 0, true), None)) = None);
  (* maintenance: delete and update keep the ordered index current *)
  let db = Database.delete db h2 in
  let db = Database.update db h3 [| vi 2; vi 30 |] in
  check "after delete and update" [ h1; h3 ]
    (range db ~lower:(Some (vi 0, true)) ~upper:None)

let test_like_prefix_bounds () =
  Alcotest.(check bool) "plain prefix" true
    (Index.like_prefix "ab%" = Some ("ab", Some "ac"));
  Alcotest.(check bool) "underscore also ends the prefix" true
    (Index.like_prefix "ab_c" = Some ("ab", Some "ac"));
  Alcotest.(check bool) "no wildcard: exact-match range" true
    (Index.like_prefix "ab" = Some ("ab", Some "ac"));
  Alcotest.(check bool) "no literal prefix" true (Index.like_prefix "%x" = None);
  Alcotest.(check bool) "empty pattern" true (Index.like_prefix "" = None);
  (* 0xff bytes cannot be incremented: the range is open above *)
  Alcotest.(check bool) "all-0xff prefix is open above" true
    (Index.like_prefix "\xff\xff%" = Some ("\xff\xff", None));
  Alcotest.(check bool) "trailing 0xff increments the earlier byte" true
    (Index.like_prefix "a\xff%" = Some ("a\xff", Some "b"))

let test_snapshot_consistency () =
  (* a retained pre-transition state must answer probes with its own
     rows, not the current ones — this is what rollback and transition
     tables rely on *)
  let db = Database.create_table Database.empty (two_col_schema "t" "a" "b") in
  let db =
    Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a" ~kind:`Hash
  in
  let db, h1 = Database.insert db "t" [| vi 5; vi 0 |] in
  let snapshot = db in
  let db, _ = Database.insert db "t" [| vi 5; vi 1 |] in
  let db = Database.update db h1 [| vi 6; vi 0 |] in
  let count st v =
    match probe_t st (`Keys [ vi v ]) with
    | Some (`Rows pairs) -> List.length pairs
    | Some `Over_budget | None -> Alcotest.fail "expected a usable index"
  in
  Alcotest.(check int) "snapshot still sees a=5 once" 1 (count snapshot 5);
  Alcotest.(check int) "snapshot sees no a=6" 0 (count snapshot 6);
  Alcotest.(check int) "current sees one a=5" 1 (count db 5);
  Alcotest.(check int) "current sees one a=6" 1 (count db 6)

let test_probe_incompatible_type () =
  let db = Database.create_table Database.empty (two_col_schema "t" "a" "b") in
  let db =
    Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a" ~kind:`Hash
  in
  let db, _ = Database.insert db "t" [| vi 1; vi 2 |] in
  (* a string probe against an int column must refuse (None), so the
     scan path gets to raise its type error *)
  Alcotest.(check bool) "string probe refused" true
    (probe_t db (`Keys [ vs "x" ]) = None);
  Alcotest.(check bool) "no index on b" true
    (probe_t db ~column:"b" (`Keys [ vi 2 ]) = None)

let test_ddl_statements () =
  let s = system "create table emp (name string, dno int)" in
  run s "create index emp_dno on emp (dno)";
  run s "insert into emp values ('a', 1); insert into emp values ('b', 2)";
  Alcotest.(check (list string))
    "probe answers the query" [ "a" ]
    (string_list_cells s "select name from emp where dno = 1");
  (* duplicate name is rejected database-wide *)
  expect_error (fun () -> run s "create index emp_dno on emp (name)");
  (* unknown column and unknown table *)
  expect_error (fun () -> run s "create index emp_x on emp (nope)");
  expect_error (fun () -> run s "create index emp_x on nosuch (dno)");
  (* multi-column index lists are a parse error *)
  expect_error (fun () -> run s "create index emp_nd on emp (name, dno)");
  run s "drop index emp_dno";
  expect_error (fun () -> run s "drop index emp_dno");
  Alcotest.(check (list string))
    "scan answers after drop" [ "a" ]
    (string_list_cells s "select name from emp where dno = 1")

let test_ddl_rejected_in_transaction () =
  let s = system "create table t (a int, b int)" in
  run s "begin";
  expect_error (fun () -> run s "create index t_a on t (a)");
  run s "rollback"

let test_stats_count_probes () =
  let s = system "create table t (a int, b int)" in
  run s "create index t_a on t (a)";
  run s "insert into t values (1, 1); insert into t values (2, 2)";
  let st = Engine.stats (System.engine s) in
  let probes0 = st.Engine.index_probes and scans0 = st.Engine.seq_scans in
  ignore (rows s "select b from t where a = 1");
  Alcotest.(check int) "one probe" (probes0 + 1) st.Engine.index_probes;
  ignore (rows s "select b from t where b = 1");
  Alcotest.(check int) "unindexed column scans" (scans0 + 1) st.Engine.seq_scans

let test_probe_equals_filtered_scan () =
  (* concrete spot check of the planner contract: identical rows in
     identical order, whatever the predicate shape *)
  let setup indexed =
    let s =
      system "create table t (a int, b int);\ncreate table sv (name string, v int)"
    in
    if indexed then begin
      run s "create index t_a on t (a)";
      run s "create index t_b on t (b) using ordered";
      run s "create index sv_name on sv (name) using ordered"
    end;
    run s
      "insert into t values (1, 10); insert into t values (2, 20); insert \
       into t values (1, 30); insert into t values (3, 40); insert into t \
       values (null, 50)";
    run s
      "insert into sv values ('ada', 1); insert into sv values ('adb', 2); \
       insert into sv values ('bob', 3); insert into sv values (null, 4)";
    s
  in
  let queries =
    [
      "select b from t where a = 1";
      "select b from t where 1 = a";
      "select b from t where a in (1, 3)";
      "select b from t where a in (1, null)";
      "select b from t where a = null";
      "select b from t where a = 1 and b > 15";
      "select b from t where a in (select a from t where b = 40)";
      "select t1.b, t2.b from t t1, t t2 where t1.a = 2 and t2.a = t1.a";
      (* range shapes over the ordered index, including NULL rows and
         NULL bounds *)
      "select a from t where b > 15";
      "select a from t where b >= 30";
      "select a from t where 30 > b";
      "select a from t where b <= 20";
      "select a from t where b < null";
      "select a from t where b between 15 and 45";
      "select a from t where b between 45 and 15";
      "select a from t where b > 15 and a = 1";
      "select a from t where b > (select 10 + 10)";
      (* prefix LIKE over an ordered string index *)
      "select v from sv where name like 'ad%'";
      "select v from sv where name like 'ad_'";
      "select v from sv where name like '%b'";
      "select v from sv where name like 'bob'";
      "select v from sv where name like null";
    ]
  in
  let s_ix = setup true and s_plain = setup false in
  List.iter
    (fun q ->
      Alcotest.check rows_testable q (rows s_plain q) (rows s_ix q))
    queries

(* ------------------------------------------------------------------ *)
(* Index maintenance under updates                                     *)

(* An update leaves an index alone when the old and new rows hold the
   physically same value at its column.  After generated inserts,
   deletes and updates — of the indexed columns and of the unindexed
   one, to new values, to NULL, to the same value and to an equal value
   of a fresh allocation — every index must equal the one [create_index]
   builds over the final rows. *)
let gen_maintenance_case st =
  let open QCheck.Gen in
  let value () =
    match int_bound 7 st with 0 -> None | _ -> Some (int_bound 9 st)
  in
  let rows = List.init (int_bound 30 st) (fun _ -> (value (), value (), value ())) in
  let op () =
    match int_bound 9 st with
    | 0 -> `Insert (value (), value (), value ())
    | 1 -> `Delete (int_bound 40 st)
    | 2 -> `Copy (int_bound 40 st)
    | 3 -> `Refresh (int_bound 40 st, int_bound 2 st)
    | _ -> `Set (int_bound 40 st, int_bound 2 st, value ())
  in
  (rows, List.init (int_bound 40 st) (fun _ -> op ()))

let prop_update_maintenance =
  QCheck.Test.make ~name:"updates keep every index equal to a fresh build" ~count:300
    (QCheck.make gen_maintenance_case)
    (fun (rows, ops) ->
      let v = function None -> vnull | Some n -> vi n in
      let schema =
        Schema.table "m"
          [
            Schema.column "a" Schema.T_int;
            Schema.column "b" Schema.T_int;
            Schema.column "c" Schema.T_int;
          ]
      in
      let with_indexes tbl =
        let tbl = Table.create_index tbl ~ix_name:"m_a" ~column:"a" ~kind:`Hash in
        Table.create_index tbl ~ix_name:"m_b" ~column:"b" ~kind:`Ordered
      in
      let insert tbl (a, b, c) = Table.insert tbl (Handle.fresh "m") [| v a; v b; v c |] in
      let tbl = List.fold_left insert (with_indexes (Table.create schema)) rows in
      let nth tbl i =
        match Table.to_list tbl with
        | [] -> None
        | pairs -> Some (List.nth pairs (i mod List.length pairs))
      in
      let update tbl i f =
        match nth tbl i with
        | None -> tbl
        | Some (h, row) ->
          let row' = Array.copy row in
          f row';
          Table.update tbl h row'
      in
      let apply tbl = function
        | `Insert r -> insert tbl r
        | `Delete i -> (
          match nth tbl i with None -> tbl | Some (h, _) -> Table.delete tbl h)
        | `Copy i -> update tbl i ignore
        | `Refresh (i, col) ->
          (* an equal value in a new block *)
          update tbl i (fun row ->
              match row.(col) with
              | Value.Int n -> row.(col) <- Value.Int (Sys.opaque_identity n)
              | _ -> ())
        | `Set (i, col, x) -> update tbl i (fun row -> row.(col) <- v x)
      in
      let final = List.fold_left apply tbl ops in
      let rebuilt =
        with_indexes
          (Table.fold (fun h row fresh -> Table.insert fresh h row) final (Table.create schema))
      in
      List.iter2
        (fun ix fresh ->
          if not (Index.equal ix fresh) then
            QCheck.Test.fail_reportf "index %s differs from a fresh build: %a vs %a"
              (Index.name ix) Index.pp ix Index.pp fresh)
        (Table.index_list final) (Table.index_list rebuilt);
      true)

(* ------------------------------------------------------------------ *)
(* Range probes against the unindexed twin                             *)

(* A DELETE or UPDATE of t run on [s]'s database: the old rows its
   effect records, in handle order, each checked to be the stored row
   itself (physically) of the state the operation started from, and the
   (seq scans, index or range probes) of t it noted. *)
let victim_rows s sql =
  let db = Engine.database (System.engine s) in
  let scans = ref 0 and probes = ref 0 in
  let note decision table =
    if String.equal table "t" then
      match decision with
      | `Seq_scan -> incr scans
      | `Index_probe | `Range_probe -> incr probes
      | `Hash_join_build | `Hash_join_probe -> ()
  in
  let op =
    match Parser.parse_statement_string sql with
    | Ast.Stmt_op op -> op
    | _ -> Alcotest.failf "not an operation: %s" sql
  in
  let r = Sqlf.Dml.exec_cop ~note Eval.no_transitions db (Sqlf.Dml.compile_op db op) in
  let old =
    match Effect.find (Effect.of_affected r.Sqlf.Dml.affected) "t" with
    | None -> []
    | Some p ->
      Handle.Map.bindings p.Effect.del
      @ List.map (fun (h, u) -> (h, u.Effect.old_row)) (Handle.Map.bindings p.Effect.upd)
  in
  List.iter
    (fun (h, row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: the old row of #%d is the stored row" sql (Handle.id h))
        true
        (match Database.find_row db h with Some stored -> stored == row | None -> false))
    old;
  (List.map snd old, (!scans, !probes))

(* A DELETE and an UPDATE whose WHERE is [pred], a conjunct tested on
   t's stored rows, and [residual], one tested on the bound frame: the
   indexed system's victims are the twin's, read by the path [probed]
   names. *)
let check_victims s_plain s_ix pred residual ~probed =
  List.iter
    (fun op ->
      let sql = Printf.sprintf "%s where %s and %s" op pred residual in
      let plain, _ = victim_rows s_plain sql and ix, path = victim_rows s_ix sql in
      Alcotest.check rows_testable sql plain ix;
      Alcotest.(check (pair int int)) (sql ^ ": seq scans, probes of t")
        (if probed then (0, 1) else (1, 0))
        path)
    [ "delete from t"; "update t set a = a" ]

(* What an index read of [n] rows may spend, [Eval.probe_budget]:
   max 1 (n / max 4 (log2 n)), each handle gathered costing one and each
   key probed at least one. *)
let probe_budget n =
  let rec log2 n = if n < 2 then 0 else 1 + log2 (n / 2) in
  max 1 (n / max 4 (log2 n))

(* Tables of 0 to 200 rows and ranges of every selectivity, in every
   form the planner probes — comparisons either way round, BETWEEN,
   two-sided pairs, LIKE prefixes and NULL bounds.  Whether the range
   probe runs or is abandoned past its budget, the indexed system
   returns the unindexed twin's rows in the same order, and its
   counters name the path that ran: one range probe when the range
   holds at most the budget's rows, one seq scan otherwise. *)
let gen_range_case st =
  let open QCheck.Gen in
  let n = int_bound 200 st in
  let key () = if int_bound 9 st = 0 then None else Some (int_bound 99 st) in
  let str () =
    if int_bound 9 st = 0 then None
    else Some (String.init (1 + int_bound 2 st) (fun _ -> oneofl [ 'a'; 'b'; 'c' ] st))
  in
  let rows = List.init n (fun _ -> (key (), str ())) in
  let bound () = string_of_int (int_range (-5) 105 st) in
  let op () = oneofl [ "<"; "<="; ">"; ">=" ] st in
  let pred =
    match int_bound 9 st with
    | 0 | 1 -> Printf.sprintf "a %s %s" (op ()) (bound ())
    | 2 -> Printf.sprintf "%s %s a" (bound ()) (op ())
    | 3 -> Printf.sprintf "a between %s and %s" (bound ()) (bound ())
    | 4 -> Printf.sprintf "a >= %s and a < %s" (bound ()) (bound ())
    | 5 -> Printf.sprintf "a < %s and %s < a" (bound ()) (bound ())
    | 6 | 7 ->
      Printf.sprintf "s like '%s%%'"
        (String.init (1 + int_bound 1 st) (fun _ -> oneofl [ 'a'; 'b'; 'c' ] st))
    | 8 -> oneofl [ "a > null"; "a between null and 50"; "null <= a" ] st
    | _ -> "s like null"
  in
  (rows, pred)

let print_range_case (rows, pred) =
  Printf.sprintf "%d rows, where %s" (List.length rows) pred

let range_system ~indexed keys =
  let s = system "create table t (a int, s string)" in
  if indexed then begin
    run s "create index t_a on t (a) using ordered";
    run s "create index t_s on t (s) using ordered"
  end;
  if keys <> [] then
    run s
      ("insert into t values "
      ^ String.concat ", "
          (List.map
             (fun (a, str) ->
               Printf.sprintf "(%s, %s)"
                 (match a with Some n -> string_of_int n | None -> "null")
                 (match str with Some x -> "'" ^ x ^ "'" | None -> "null"))
             keys));
  s

let prop_range_probe_budget =
  QCheck.Test.make ~name:"range probe or abandoned: the twin's rows, the path counted"
    ~count:200
    (QCheck.make ~print:print_range_case gen_range_case)
    (fun (keys, pred) ->
      let s_ix = range_system ~indexed:true keys in
      let s_plain = range_system ~indexed:false keys in
      let budget = probe_budget (List.length keys) in
      let st = Engine.stats (System.engine s_ix) in
      let hits = List.length (rows s_plain ("select a from t where " ^ pred)) in
      List.iter
        (fun q ->
          let sql = q ^ " where " ^ pred in
          let scans0 = st.Engine.seq_scans and ranges0 = st.Engine.range_probes in
          Alcotest.check rows_testable sql (rows s_plain sql) (rows s_ix sql);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: %d hits, budget %d: seq scans, range probes" sql hits budget)
            (if hits <= budget then (0, 1) else (1, 0))
            (st.Engine.seq_scans - scans0, st.Engine.range_probes - ranges0))
        [ "select a, s from t"; "select count(*), min(a), max(s) from t" ];
      check_victims s_plain s_ix ("(" ^ pred ^ ")") "a + 0 <> 7" ~probed:(hits <= budget);
      true)

(* Equality, IN-list, IN-subquery and index-join reads of tables of 0
   to 200 rows whose keys are skewed from one key for every row to all
   rows distinct, with NULL keys, probed by Int and Float keys over an
   int column under a hash index and a float column under an ordered
   one.  Whatever the path, the indexed system returns the unindexed
   twin's rows in the same order, and its counters name the path the
   budget says: a probe while its keys cost at most the budget, each
   key the rows it holds and at least one, else a scan; an index
   nested-loop join while its partial frames and their estimated rows
   [frames * n / distinct] are within the budget, else a hash join. *)
type eq_key = K_int of int | K_float of int | K_half of int | K_null

let key_sql = function
  | K_int k -> string_of_int k
  | K_float k -> string_of_int k ^ ".0"
  | K_half k -> string_of_int k ^ ".5"
  | K_null -> "null"

type eq_read = Eq of eq_key | In_list of eq_key list | In_select of eq_key list | Join of eq_key list

let gen_eq_case st =
  let open QCheck.Gen in
  let n = int_bound 200 st in
  let distinct =
    match int_bound 3 st with
    | 0 -> 1
    | 1 -> 1 + int_bound 9 st
    | 2 -> 1 + int_bound n st
    | _ -> max 1 n
  in
  let nulls = oneofl [ 0; 0; 10; 50 ] st in
  let skewed = bool st in
  let draw () =
    let k = int_bound (distinct - 1) st in
    if skewed then min k (int_bound (distinct - 1) st) else k
  in
  let rows = List.init n (fun _ -> if int_bound 99 st < nulls then None else Some (draw ())) in
  let key () =
    match int_bound 9 st with
    | 0 -> K_null
    | 1 -> K_half (draw ())
    | 2 -> K_int (distinct + int_bound 3 st)
    | 3 | 4 -> K_float (draw ())
    | _ -> K_int (draw ())
  in
  (* key counts around the budget, where one more key or hit flips the
     path *)
  let count () =
    match int_bound 2 st with
    | 0 -> 1 + int_bound 3 st
    | _ -> max 1 (probe_budget n + int_range (-2) 2 st)
  in
  let keys () = List.init (count ()) (fun _ -> key ()) in
  let read =
    match int_bound 3 st with
    | 0 -> Eq (key ())
    | 1 -> In_list (keys ())
    | 2 -> In_select (if int_bound 9 st = 0 then [] else keys ())
    | _ -> Join (if int_bound 9 st = 0 then [] else keys ())
  in
  (rows, bool st, read)

let print_eq_case (rows, float_col, read) =
  let keys ks = String.concat ", " (List.map key_sql ks) in
  Printf.sprintf "%d rows [%s] on %s: %s" (List.length rows)
    (String.concat "; "
       (List.map (function Some k -> string_of_int k | None -> "null") rows))
    (if float_col then "f" else "a")
    (match read with
    | Eq k -> "= " ^ key_sql k
    | In_list ks -> "in (" ^ keys ks ^ ")"
    | In_select ks -> "in (select k from s) with s = " ^ keys ks
    | Join ks -> "join with s = " ^ keys ks)

let eq_system ~indexed rows s_keys =
  let s = system "create table t (id int, a int, f float); create table s (k float)" in
  if indexed then begin
    run s "create index t_a on t (a)";
    run s "create index t_f on t (f) using ordered"
  end;
  if rows <> [] then
    run s
      ("insert into t values "
      ^ String.concat ", "
          (List.mapi
             (fun i r ->
               match r with
               | Some k -> Printf.sprintf "(%d, %d, %d.0)" i k k
               | None -> Printf.sprintf "(%d, null, null)" i)
             rows));
  if s_keys <> [] then
    run s
      ("insert into s values "
      ^ String.concat ", " (List.map (fun k -> "(" ^ key_sql k ^ ")") s_keys));
  s

let prop_eq_probe_budget =
  QCheck.Test.make
    ~name:"equality, IN and join probes or abandoned: the twin's rows, the path counted"
    ~count:300
    (QCheck.make ~print:print_eq_case gen_eq_case)
    (fun (keys, float_col, read) ->
      let s_keys = match read with In_select ks | Join ks -> ks | Eq _ | In_list _ -> [] in
      let s_ix = eq_system ~indexed:true keys s_keys in
      let s_plain = eq_system ~indexed:false keys s_keys in
      let n = List.length keys in
      let budget = probe_budget n in
      let col = if float_col then "f" else "a" in
      (* the rows holding a key, by SQL equality *)
      let hits = function
        | K_int k | K_float k -> List.length (List.filter (( = ) (Some k)) keys)
        | K_half _ | K_null -> 0
      in
      let cost ks = List.fold_left (fun c k -> c + max 1 (hits k)) 0 ks in
      let st = Engine.stats (System.engine s_ix) in
      let check sql expected =
        let scans0 = st.Engine.seq_scans
        and probes0 = st.Engine.index_probes
        and builds0 = st.Engine.hash_join_builds in
        Alcotest.check rows_testable sql (rows s_plain sql) (rows s_ix sql);
        Alcotest.(check (triple int int int))
          (Printf.sprintf "%s: budget %d: seq scans, index probes, hash join builds" sql budget)
          expected
          ( st.Engine.seq_scans - scans0,
            st.Engine.index_probes - probes0,
            st.Engine.hash_join_builds - builds0 )
      in
      let filtered pred ks ~subquery_scans =
        let path = if cost ks <= budget then (subquery_scans, 1, 0) else (subquery_scans + 1, 0, 0) in
        List.iter
          (fun q -> check (q ^ " where " ^ pred) path)
          [ "select id, a, f from t"; "select count(*), min(id) from t" ];
        check_victims s_plain s_ix pred "id + 0 <> 3" ~probed:(cost ks <= budget)
      in
      (match read with
      | Eq k ->
        filtered (Printf.sprintf "%s = %s" col (key_sql k)) [ k ] ~subquery_scans:0;
        filtered (Printf.sprintf "%s = %s" (key_sql k) col) [ k ] ~subquery_scans:0
      | In_list ks ->
        filtered
          (Printf.sprintf "%s in (%s)" col (String.concat ", " (List.map key_sql ks)))
          ks ~subquery_scans:0
      | In_select ks ->
        (* the subquery runs once, over s *)
        filtered (Printf.sprintf "%s in (select k from s)" col) ks ~subquery_scans:1
      | Join ks ->
        let frames = List.length ks in
        let distinct =
          List.length (List.sort_uniq compare (List.filter_map Fun.id keys))
        in
        let est = frames * n / max 1 distinct in
        check
          (Printf.sprintf "select s.k, t.id from s, t where s.k = t.%s" col)
          (if max frames est <= budget then (1, frames, 0)
           else (2, 0, if frames > 0 then 1 else 0)));
      true)

(* Under select tracking, the rows a select reads are its [selected t]
   rows, and its table is among the transaction's reads: a probed
   select must log the same rows and claim the same tables as the scan,
   at every selectivity. *)
let test_probe_selected_rows () =
  let config = { Engine.default_config with track_selects = true } in
  let make ~indexed =
    let s = system ~config "create table t (a int, b int); create table seen (a int, b int)" in
    if indexed then run s "create index t_a on t (a) using ordered";
    run s
      ("insert into t values "
      ^ String.concat ", " (List.init 40 (fun i -> Printf.sprintf "(%d, %d)" (i * 7 mod 40) i)));
    run s "create rule log when selected t then insert into seen select a, b from selected t";
    s
  in
  let s_ix = make ~indexed:true and s_plain = make ~indexed:false in
  let st = Engine.stats (System.engine s_ix) in
  List.iter
    (fun pred ->
      let sql = "select b from t where " ^ pred in
      let ranges0 = st.Engine.range_probes in
      let tables s =
        run s "begin";
        let r = rows s sql in
        let read = Effect.Col_set.elements (Engine.tables_read (System.engine s)) in
        run s "commit";
        (r, read)
      in
      let r_plain, read_plain = tables s_plain in
      let r_ix, read_ix = tables s_ix in
      Alcotest.check rows_testable (sql ^ ": rows") r_plain r_ix;
      Alcotest.(check (list string)) (sql ^ ": tables read") read_plain read_ix;
      Alcotest.check rows_testable (sql ^ ": selected t rows")
        (rows s_plain "select a, b from seen")
        (rows s_ix "select a, b from seen");
      Alcotest.(check int)
        (sql ^ ": range probes")
        (if List.length r_ix <= probe_budget 40 then 1 else 0)
        (st.Engine.range_probes - ranges0))
    [ "a > 35"; "a < 3 and b > 1"; "a between 10 and 12"; "a >= 5"; "a > 100" ]

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)

(* Total index/range probes observed across all property executions;
   follow-up tests assert the optimized side actually probed, so the
   property cannot pass vacuously. *)
let probes_seen = ref 0
let ranges_seen = ref 0

let schema_sql =
  "create table t (a int, b int);\n\
   create table u (a int, c int);\n\
   create table w (a int, b int)"

(* A terminating rule set exercising every trigger kind and action
   shape.  Rules triggered by t act only on u; the u-triggered r4
   quiesces by making its own condition false, and r6 only logs into
   w, joining the inserted u rows against t — by index nested-loop or
   hash join, as the batch size and t's size decide; r5 rolls the
   transaction back when updates push b past 100. *)
let rules_sql =
  [
    "create rule r1 when inserted into t if exists (select * from inserted t \
     where a = 3) then insert into u values (3, 0)";
    "create rule r2 when deleted from t then delete from u where a in \
     (select a from deleted t)";
    "create rule r3 when updated t.a if (select count(*) from new updated \
     t.a where a = 5) > 0 then update u set c = c + 1 where a = 5";
    "create rule r4 when inserted into u or deleted from u or updated u.c \
     if (select count(*) from u where a = 99) > 3 then delete from u where \
     a = 99";
    "create rule r5 when updated t.b if (select count(*) from new updated \
     t.b where b > 100) > 0 then rollback";
    "create rule r6 when inserted into u then insert into w select x.a, y.b \
     from inserted u x, t y where x.a = y.a";
  ]

let gen_small st = QCheck.Gen.int_bound 12 st

let gen_term st =
  let open QCheck.Gen in
  if int_bound 9 st = 0 then "null" else string_of_int (gen_small st)

(* One operation as SQL.  Predicates are deliberately heavy on the
   sargable shapes the planner recognizes — equality, IN lists, IN
   subqueries, range comparisons and BETWEEN — over indexed columns
   (hash on a, ordered on b) and unindexed ones (c), and updates
   rewrite the indexed columns themselves.  Joins link on the indexed
   a columns, and u receives batches from one row to all of t, so the
   joins (and r6's action) fall on both sides of the index nested-loop
   cost threshold. *)
let gen_op st =
  let open QCheck.Gen in
  match int_bound 18 st with
  | 0 | 1 ->
    Printf.sprintf "insert into t values (%s, %s)" (gen_term st) (gen_term st)
  | 2 | 3 ->
    Printf.sprintf "insert into u values (%s, %s)" (gen_term st) (gen_term st)
  | 4 -> Printf.sprintf "delete from t where a = %s" (gen_term st)
  | 5 ->
    Printf.sprintf "delete from u where a in (%d, %d)" (gen_small st)
      (gen_small st)
  | 6 ->
    Printf.sprintf "update t set b = b + 1 where a = %d" (gen_small st)
  | 7 ->
    (* rewrite the indexed column *)
    Printf.sprintf "update t set a = %d where a = %d" (gen_small st)
      (gen_small st)
  | 8 ->
    Printf.sprintf
      "update u set c = c + 1 where a in (select a from t where b = %d)"
      (gen_small st)
  | 9 -> Printf.sprintf "select a, b from t where a = %s" (gen_term st)
  | 10 ->
    (* occasionally large enough to trip the rollback rule r5 *)
    Printf.sprintf "update t set b = %d where a = %d"
      (if int_bound 3 st = 0 then 200 else gen_small st)
      (gen_small st)
  | 11 -> Printf.sprintf "select a, b from t where b < %s" (gen_term st)
  | 12 ->
    Printf.sprintf "select a, b from t where b between %d and %d"
      (gen_small st) (gen_small st)
  | 13 ->
    (* a range over the ordered column combined with an equality over
       the hash column: the cost model must pick one, the oracle the
       other shape *)
    Printf.sprintf "delete from t where b >= %d and a = %d" (gen_small st)
      (gen_small st)
  | 14 ->
    Printf.sprintf "insert into u values (99, %d); insert into u values \
                    (99, %d)" (gen_small st) (gen_small st)
  | 15 -> Printf.sprintf "insert into u select a, b from t where b < %d" (gen_small st)
  | 16 ->
    Printf.sprintf "select u.c, t.b from u, t where u.a = t.a and t.b > %s"
      (gen_term st)
  | 17 ->
    Printf.sprintf "select t.b, u.c from t, u where t.a = u.a and t.b < %d"
      (gen_small st)
  | _ ->
    Printf.sprintf
      "select x.c, y.b, z.b from u x, t y, t z where x.a = y.a and y.a = z.a \
       and x.c > %d"
      (gen_small st)

let gen_block st =
  let open QCheck.Gen in
  let n = 1 + int_bound 3 st in
  String.concat "; " (List.init n (fun _ -> gen_op st))

let gen_txns st =
  let open QCheck.Gen in
  let n = 3 + int_bound 5 st in
  List.init n (fun _ -> gen_block st)

let arb_txns =
  QCheck.make ~print:(fun blocks -> String.concat ";\n-- block --\n" blocks)
    gen_txns

let config = { Engine.default_config with max_steps = 300 }

let make_system ~indexed =
  let s = system ~config schema_sql in
  if indexed then begin
    run s "create index t_a on t (a)";
    run s "create index t_b on t (b) using ordered";
    run s "create index u_a on u (a)"
  end;
  List.iter (run s) rules_sql;
  Engine.set_tracing (System.engine s) true;
  s

(* Execute one block and normalize everything observable about it:
   outcome or error string, and the produced select results. *)
let run_block s sql =
  match System.exec_block s sql with
  | outcome, rels ->
    Ok
      ( outcome,
        List.map (fun r -> (Array.to_list r.Eval.cols, r.Eval.rows)) rels )
  | exception Errors.Error e -> Error (Errors.to_string e)

let check_same_relation label (cols_a, rows_a) (cols_b, rows_b) =
  Alcotest.(check (list string)) (label ^ " cols") cols_a cols_b;
  Alcotest.check rows_testable (label ^ " rows") rows_a rows_b

let check_same_result label a b =
  match a, b with
  | Error ea, Error eb -> Alcotest.(check string) (label ^ " error") ea eb
  | Ok (oa, ra), Ok (ob, rb) ->
    Alcotest.(check bool)
      (label ^ " outcome") true
      (oa = ob && List.length ra = List.length rb);
    List.iter2 (fun x y -> check_same_relation label x y) ra rb
  | _ ->
    Alcotest.failf "%s: one side errored and the other did not" label

(* The optimized side ranks equality/range/prefix probes by the cost
   model; the plain side has no index, so it always scans. *)
let prop_index_equivalence =
  QCheck.Test.make ~name:"indexes on = indexes off" ~count:80 arb_txns
    (fun blocks ->
      let s_ix = make_system ~indexed:true in
      let s_plain = make_system ~indexed:false in
      List.iter
        (fun block ->
          let r_ix = run_block s_ix block in
          let r_plain = run_block s_plain block in
          check_same_result "block" r_ix r_plain;
          (* the trace of each transaction must match event for event;
             events carry only rule names, sizes and booleans, so
             structural equality is handle-free *)
          let tr_ix = Engine.trace (System.engine s_ix) in
          let tr_plain = Engine.trace (System.engine s_plain) in
          Alcotest.(check bool) "identical traces" true (tr_ix = tr_plain))
        blocks;
      (* final states: same rows in the same order, table by table *)
      List.iter
        (fun tbl ->
          let final s = Table.rows (Database.table (System.database s) tbl) in
          Alcotest.check rows_testable
            (Printf.sprintf "final state of %s" tbl)
            (final s_plain) (final s_ix))
        [ "t"; "u"; "w" ];
      let st_ix = Engine.stats (System.engine s_ix) in
      let st_plain = Engine.stats (System.engine s_plain) in
      Alcotest.(check int)
        "same rule firings" st_plain.Engine.rule_firings
        st_ix.Engine.rule_firings;
      probes_seen := !probes_seen + st_ix.Engine.index_probes;
      ranges_seen := !ranges_seen + st_ix.Engine.range_probes;
      true)

(* Runs after the properties (Alcotest executes a suite in order): the
   equivalence above is meaningless if the optimized side never took
   the probe paths. *)
let test_probes_actually_happened () =
  Alcotest.(check bool)
    (Printf.sprintf "probes were exercised (%d seen)" !probes_seen)
    true (!probes_seen > 0);
  Alcotest.(check bool)
    (Printf.sprintf "range probes were exercised (%d seen)" !ranges_seen)
    true (!ranges_seen > 0)

let suite =
  [
    Alcotest.test_case "index maintenance" `Quick test_maintenance;
    Alcotest.test_case "ordered range maintenance" `Quick
      test_ordered_range_maintenance;
    Alcotest.test_case "like prefix bounds" `Quick test_like_prefix_bounds;
    Alcotest.test_case "snapshot consistency" `Quick test_snapshot_consistency;
    Alcotest.test_case "incompatible probes refused" `Quick
      test_probe_incompatible_type;
    Alcotest.test_case "create/drop index statements" `Quick test_ddl_statements;
    Alcotest.test_case "index DDL rejected in transaction" `Quick
      test_ddl_rejected_in_transaction;
    Alcotest.test_case "stats count probes and scans" `Quick
      test_stats_count_probes;
    Alcotest.test_case "probe = filtered scan" `Quick
      test_probe_equals_filtered_scan;
    qtest prop_update_maintenance;
    qtest prop_range_probe_budget;
    qtest prop_eq_probe_budget;
    Alcotest.test_case "probed selects log the scan's selected rows" `Quick
      test_probe_selected_rows;
    qtest prop_index_equivalence;
    Alcotest.test_case "differential run exercised probes" `Quick
      test_probes_actually_happened;
  ]
