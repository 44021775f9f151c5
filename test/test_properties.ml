(* Cross-cutting property-based tests: random workloads against
   system-level invariants. *)

open Core
open Helpers

module Compile = Sqlf.Compile
module Dml = Sqlf.Dml

(* ------------------------------------------------------------------ *)
(* Random DML workloads over t(a int, b int)                           *)

let t_schema () =
  Schema.table "t"
    [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_int ]

let gen_value st =
  let open QCheck.Gen in
  if int_bound 9 st = 0 then Value.Null else Value.Int (int_bound 50 st)

let gen_op st =
  let open QCheck.Gen in
  match int_bound 5 st with
  | 0 | 1 | 2 ->
    let k = 1 + int_bound 4 st in
    let rows =
      List.init k (fun _ -> [ Ast.Lit (gen_value st); Ast.Lit (gen_value st) ])
    in
    Ast.Insert { table = "t"; columns = None; source = `Values rows }
  | 3 ->
    let r = int_bound 50 st in
    Ast.Delete
      {
        table = "t";
        where =
          Some
            (Ast.Cmp
               ( Ast.Lt,
                 Ast.Col { qualifier = None; column = "a" },
                 Ast.Lit (Value.Int r) ));
      }
  | _ ->
    let r = int_bound 50 st in
    Ast.Update
      {
        table = "t";
        sets =
          [ ("b", Ast.Binop (Ast.Add, Ast.Col { qualifier = None; column = "b" },
                             Ast.Lit (Value.Int 1))) ];
        where =
          Some
            (Ast.Cmp
               ( Ast.Ge,
                 Ast.Col { qualifier = None; column = "a" },
                 Ast.Lit (Value.Int r) ));
      }

let gen_block st =
  let open QCheck.Gen in
  let n = 1 + int_bound 5 st in
  List.init n (fun _ -> gen_op st)

let arb_block =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map Pretty.op_str ops))
    gen_block

(* With no rules defined, the engine's transaction machinery must be
   exactly the fold of plain operation execution. *)
let prop_engine_is_dml_without_rules =
  QCheck.Test.make ~name:"engine without rules = plain DML fold" ~count:200
    arb_block (fun ops ->
      let eng = Engine.create (Database.create_table Database.empty (t_schema ())) in
      let outcome, _ = Engine.execute_block eng ops in
      let via_engine = Table.rows (Database.table (Engine.database eng) "t") in
      let db = Database.create_table Database.empty (t_schema ()) in
      let db =
        List.fold_left
          (fun db op -> (Dml.exec_cop Eval.no_transitions db (Dml.compile_op db op)).Dml.db)
          db ops
      in
      let via_dml = Table.rows (Database.table db "t") in
      outcome = Engine.Committed
      && List.length via_engine = List.length via_dml
      && List.for_all2 Row.equal via_engine via_dml)

(* A rule that always rolls back leaves every committed state
   untouched, whatever the block did. *)
let prop_rollback_restores_state =
  QCheck.Test.make ~name:"unconditional rollback rule restores the state"
    ~count:200 arb_block (fun ops ->
      let eng = Engine.create (Database.create_table Database.empty (t_schema ())) in
      (* seed some data without the guard *)
      ignore
        (Engine.execute_block eng
           [
             Ast.Insert
               {
                 table = "t";
                 columns = None;
                 source =
                   `Values
                     [
                       [ Ast.Lit (Value.Int 1); Ast.Lit (Value.Int 1) ];
                       [ Ast.Lit (Value.Int 2); Ast.Lit (Value.Int 2) ];
                     ];
               };
           ]);
      let before = Table.rows (Database.table (Engine.database eng) "t") in
      ignore
        (Engine.create_rule eng
           (match
              Parser.parse_statement_string
                "create rule guard when inserted into t or deleted from t or \
                 updated t then rollback"
            with
           | Ast.Stmt_create_rule def -> def
           | _ -> assert false));
      let outcome, _ = Engine.execute_block eng ops in
      let after = Table.rows (Database.table (Engine.database eng) "t") in
      (* blocks whose net effect is empty commit; others roll back;
         either way the state is unchanged *)
      ignore outcome;
      List.length before = List.length after
      && List.for_all2 Row.equal before after)

(* The divergence guard never leaves a half-done transaction behind. *)
let prop_limit_guard_restores_state =
  QCheck.Test.make ~name:"step-limit guard rolls back cleanly" ~count:50
    QCheck.(int_range 1 30)
    (fun limit ->
      let config = { Engine.default_config with max_steps = limit } in
      let eng =
        Engine.create ~config
          (Database.create_table Database.empty (t_schema ()))
      in
      ignore
        (Engine.create_rule eng
           (match
              Parser.parse_statement_string
                "create rule forever when inserted into t or updated t.b then \
                 update t set b = b + 1"
            with
           | Ast.Stmt_create_rule def -> def
           | _ -> assert false));
      match
        Engine.execute_block eng
          [
            Ast.Insert
              {
                table = "t";
                columns = None;
                source = `Values [ [ Ast.Lit (Value.Int 1); Ast.Lit (Value.Int 0) ] ];
              };
          ]
      with
      | _ -> false (* must diverge *)
      | exception Errors.Error (Errors.Rule_limit_exceeded _) ->
        Table.is_empty (Database.table (Engine.database eng) "t")
        && not (Engine.in_transaction eng))

(* ------------------------------------------------------------------ *)
(* Constraint rules maintain their invariants under random workloads.  *)

let gen_fk_statement st =
  let open QCheck.Gen in
  match int_bound 6 st with
  | 0 ->
    Printf.sprintf "insert into parent values (%d)" (int_bound 8 st)
  | 1 | 2 ->
    Printf.sprintf "insert into child values (%d, %d)" (int_bound 50 st)
      (int_bound 8 st)
  | 3 ->
    Printf.sprintf "delete from parent where id = %d" (int_bound 8 st)
  | 4 ->
    Printf.sprintf "delete from child where fk = %d" (int_bound 8 st)
  | _ ->
    Printf.sprintf "update child set fk = %d where id = %d" (int_bound 8 st)
      (int_bound 50 st)

let arb_fk_workload =
  QCheck.make
    ~print:(fun stmts -> String.concat ";\n" stmts)
    QCheck.Gen.(list_size (int_range 1 25) gen_fk_statement)

let prop_constraints_hold =
  QCheck.Test.make
    ~name:"PK and FK invariants hold after any committed workload" ~count:100
    arb_fk_workload
    (fun stmts ->
      let s = System.create () in
      run s "create table parent (id int primary key)";
      run s
        "create table child (id int primary key, fk int, foreign key (fk) \
         references parent (id) on delete cascade)";
      List.iter
        (fun stmt -> try ignore (System.exec s stmt) with Errors.Error _ -> ())
        stmts;
      (* uniqueness of both keys *)
      let dup table col =
        int_cell s
          (Printf.sprintf
             "select count(*) from (select %s from %s group by %s having \
              count(*) > 1) d"
             col table col)
      in
      (* no orphans *)
      let orphans =
        int_cell s
          "select count(*) from child where fk is not null and fk not in \
           (select id from parent)"
      in
      dup "parent" "id" = 0 && dup "child" "id" = 0 && orphans = 0)

(* ------------------------------------------------------------------ *)
(* The uncorrelated-subquery cache never changes results.              *)

let gen_pred st =
  let open QCheck.Gen in
  let col name = Ast.Col { qualifier = None; column = name } in
  let qcol q name = Ast.Col { qualifier = Some q; column = name } in
  let lit st = Ast.Lit (gen_value st) in
  let rec go depth st =
    match if depth = 0 then int_bound 2 st else int_bound 6 st with
    | 0 -> Ast.Cmp (Ast.Lt, col "a", lit st)
    | 1 -> Ast.Cmp (Ast.Eq, col "b", lit st)
    | 2 -> Ast.Is_null (col "a")
    | 3 -> Ast.And (go (depth - 1) st, go (depth - 1) st)
    | 4 -> Ast.Or (go (depth - 1) st, go (depth - 1) st)
    | 5 ->
      (* uncorrelated IN subquery *)
      Ast.In_select
        ( col "a",
          {
            Ast.distinct = false;
            projections = [ Ast.Proj (col "a", None) ];
            from = [ { Ast.source = Ast.Base "u"; alias = None } ];
            where = Some (Ast.Cmp (Ast.Gt, col "b", lit st));
            group_by = [];
            having = None;
            compounds = [];
            order_by = [];
            limit = None;
          } )
    | _ ->
      (* correlated EXISTS subquery *)
      Ast.Exists
        {
          Ast.distinct = false;
          projections = [ Ast.Star ];
          from = [ { Ast.source = Ast.Base "u"; alias = Some "uu" } ];
          where = Some (Ast.Cmp (Ast.Eq, qcol "uu" "a", qcol "tt" "a"));
          group_by = [];
          having = None;
          compounds = [];
          order_by = [];
          limit = None;
        }
  in
  go 3 st

let arb_query =
  QCheck.make
    ~print:(fun (pred, _) -> Pretty.expr_str pred)
    QCheck.Gen.(
      fun st ->
        let pred = gen_pred st in
        let rows table_seed =
          List.init (5 + int_bound 10 st) (fun i ->
              [| Value.Int ((i * table_seed) mod 13); gen_value st |])
        in
        (pred, (rows 3, rows 5)))

let prop_cache_equivalence =
  QCheck.Test.make
    ~name:"uncorrelated-subquery caching never changes query results"
    ~count:300 arb_query
    (fun (pred, (t_rows, u_rows)) ->
      let db =
        Database.create_table Database.empty (t_schema ())
      in
      let db =
        Database.create_table db
          (Schema.table "u"
             [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_int ])
      in
      let db =
        List.fold_left (fun db row -> fst (Database.insert db "t" row)) db t_rows
      in
      let db =
        List.fold_left (fun db row -> fst (Database.insert db "u" row)) db u_rows
      in
      let query =
        {
          Ast.distinct = false;
          projections = [ Ast.Star ];
          from = [ { Ast.source = Ast.Base "t"; alias = Some "tt" } ];
          where = Some pred;
          group_by = [];
          having = None;
          compounds = [];
          order_by = [];
          limit = None;
        }
      in
      let plain = (Reference_eval.select db query).Reference_eval.rows in
      let cached =
        (Compile.eval_select Eval.no_transitions db query).Eval.rows
      in
      List.length plain = List.length cached && List.for_all2 Row.equal plain cached)

(* ------------------------------------------------------------------ *)
(* The hash equi-join never changes results or row order.              *)

let prop_hash_join_equivalence =
  let gen st =
    let open QCheck.Gen in
    let rows n seed =
      List.init n (fun i -> [| Value.Int ((i * seed) mod 7); gen_value st |])
    in
    (rows (3 + int_bound 12 st) 3, rows (3 + int_bound 12 st) 5, int_bound 2 st)
  in
  let arb = QCheck.make ~print:(fun _ -> "<join instance>") gen in
  QCheck.Test.make ~name:"hash equi-join = nested loop (rows and order)"
    ~count:300 arb
    (fun (t_rows, u_rows, variant) ->
      let db =
        Database.create_table Database.empty
          (Schema.table "t"
             [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_int ])
      in
      let db =
        Database.create_table db
          (Schema.table "u"
             [ Schema.column "a" Schema.T_int; Schema.column "c" Schema.T_int ])
      in
      let db =
        List.fold_left (fun db row -> fst (Database.insert db "t" row)) db t_rows
      in
      let db =
        List.fold_left (fun db row -> fst (Database.insert db "u" row)) db u_rows
      in
      let query =
        Parser.parse_select_string
          (match variant with
          | 0 -> "select t.b, u.c from t, u where t.a = u.a"
          | 1 -> "select t.b, u.c from t, u where t.a = u.a and t.b > u.c"
          | _ ->
            (* three-way chain join *)
            "select t.b from t, u, t t2 where t.a = u.a and u.a = t2.a")
      in
      let builds = ref 0 in
      let note d _ = match d with `Hash_join_build -> incr builds | _ -> () in
      let fast = (Compile.eval_select ~note Eval.no_transitions db query).Eval.rows in
      (* the reference joins by nested loops *)
      let slow = (Reference_eval.select db query).Reference_eval.rows in
      !builds >= 1 && List.length fast = List.length slow && List.for_all2 Row.equal fast slow)

(* ------------------------------------------------------------------ *)
(* Trace consistency.                                                  *)

let prop_trace_matches_stats =
  QCheck.Test.make ~name:"trace firings match engine statistics" ~count:100
    arb_block (fun ops ->
      let eng = Engine.create (Database.create_table Database.empty (t_schema ())) in
      ignore
        (Engine.create_rule eng
           (match
              Parser.parse_statement_string
                "create rule note when deleted from t then insert into t \
                 values (99, 99)"
            with
           | Ast.Stmt_create_rule def -> def
           | _ -> assert false));
      Engine.set_tracing eng true;
      let fired_before = (Engine.stats eng).Engine.rule_firings in
      (match Engine.execute_block eng ops with
      | _ -> ()
      | exception Errors.Error _ -> ());
      let fired = (Engine.stats eng).Engine.rule_firings - fired_before in
      let trace_fired =
        List.length
          (List.filter
             (function Engine.Ev_fired _ -> true | _ -> false)
             (Engine.trace eng))
      in
      fired = trace_fired)

let suite =
  [
    qtest prop_engine_is_dml_without_rules;
    qtest prop_rollback_restores_state;
    qtest prop_limit_guard_restores_state;
    qtest prop_constraints_hold;
    qtest prop_cache_equivalence;
    qtest prop_hash_join_equivalence;
    qtest prop_trace_matches_stats;
  ]
