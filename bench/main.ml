(* Benchmark harness.

   The paper (SIGMOD 1990) is a semantics/design paper and publishes no
   experimental tables or figures; its one figure is the rule-execution
   algorithm itself.  Each experiment here regenerates a measurable
   artifact or claim of the paper — see DESIGN.md's experiment index
   and EXPERIMENTS.md for the recorded shapes:

     E1 (Figure 1 / Ex 4.1)  cascade depth scaling of the algorithm
     E2 (Section 1 claim)    set-oriented vs instance-oriented rules
     E3 (Definition 2.1)     transition-effect composition cost
     E4 (Section 4.3)        per-rule trans-info maintenance vs #rules
     E5 (Section 3)          transition-table materialization
     E6 (Section 4.4)        rule-selection strategies
     E7 (Section 5.1 ext)    select-tracking overhead
     E8 (Section 6 / CW90)   compiled constraints vs hand-written rules
     E9, E10 (retired)       subquery-memo and trans-info-pruning
                             ablations (both always on; EXPERIMENTS.md)
     E11 (ablation)          hash equi-joins inside rule actions
     E12 (ablation)           secondary hash indexes on point queries
     E13 (robustness)        abort/retry overhead under fault injection
     E14 (observability)     instrumentation overhead when off/on
     E15 (retired)           compiled closures vs the interpreter
                             (the interpreter is gone; EXPERIMENTS.md)
     E16 (durability)        WAL overhead, recovery time, checkpoints
     E17 (workload corpus)   per-scenario txn/s under the generator
     E18 (discrimination)    rule-count sweep: indexed vs instance engine
     E19 (concurrency)       server commit throughput vs client count
     E20 (cost planner)      join methods and range probes at 10^4..10^6 rows
     E21 (prepared stmts)    PREPARE/EXECUTE vs re-parse + re-compile
     E25 (scan pipeline)     single-table filter with row tests vs the Table.iter floor
     E27 (commit validation) server commit cost as commits accumulate
     E28 (access paths)      range and equality probes vs scan by selectivity

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- E2 E3   (a subset)            *)

open Core
open Bechamel
open Bench_support
module Dml = Sqlf.Dml

let vi n = Value.Int n
let vs s = Value.Str s

let insert_op table rows =
  Ast.Insert
    {
      table;
      columns = None;
      source = `Values (List.map (List.map (fun v -> Ast.Lit v)) rows);
    }

let parse_ops sql =
  List.map
    (function Ast.Stmt_op op -> op | _ -> failwith "expected DML")
    (Parser.parse_script sql)

let ignore_exec s sql = ignore (System.exec s sql)

(* ------------------------------------------------------------------ *)
(* E1: cascade depth — the paper's Example 4.1 recursive delete over a
   binary management tree of a given depth.                            *)

let rule_41 =
  "create rule ex41 when deleted from emp then delete from emp where dept_no \
   in (select dept_no from dept where mgr_no in (select emp_no from deleted \
   emp)); delete from dept where mgr_no in (select emp_no from deleted emp)"

(* Heap-numbered binary tree: employee [e] at depth < [d] manages
   department [e] containing employees [2e] and [2e+1]. *)
let org_system depth =
  let s = System.create () in
  ignore_exec s
    "create table emp (name string, emp_no int, salary float, dept_no int);\n\
     create table dept (dept_no int, mgr_no int)";
  ignore_exec s rule_41;
  let emps = ref [] and depts = ref [] in
  let rec build e level =
    let parent_dept = if e = 1 then 0 else e / 2 in
    emps :=
      [ vs (Printf.sprintf "e%d" e); vi e; Value.Float 1000.0; vi parent_dept ]
      :: !emps;
    if level < depth then begin
      depts := [ vi e; vi e ] :: !depts;
      build (2 * e) (level + 1);
      build ((2 * e) + 1) (level + 1)
    end
  in
  build 1 1;
  ignore (Engine.execute_block (System.engine s) [ insert_op "dept" !depts ]);
  ignore (Engine.execute_block (System.engine s) [ insert_op "emp" !emps ]);
  s

let e1_test =
  Test.make_indexed_with_resource ~name:"e1-cascade" ~fmt:"%s:depth=%d"
    ~args:[ 2; 4; 6; 8 ] Test.multiple
    ~allocate:(fun depth -> org_system depth)
    ~free:(fun _ -> ())
    (fun _depth ->
      Staged.stage (fun s ->
          ignore
            (Engine.execute_block (System.engine s)
               (parse_ops "delete from emp where emp_no = 1"))))

let e1 () =
  print_header "E1" "Figure 1 cascade: recursive delete over org tree depth"
    "rule processing cost grows with cascade depth; firings = depth";
  let rows =
    List.map
      (fun (name, ns) ->
        let depth = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        let nodes = (1 lsl depth) - 1 in
        [ string_of_int depth; string_of_int nodes; pretty_ns ns ])
      (run_test e1_test)
  in
  print_table [ "depth"; "employees"; "time/txn" ] rows

(* ------------------------------------------------------------------ *)
(* E2: set-oriented vs instance-oriented — the audit-rule workload.    *)

(* The rule's condition consults a reference table (a realistic
   policy-lookup pattern).  A set-oriented engine evaluates it ONCE per
   transition; an instance-oriented engine evaluates it once per
   affected tuple — this is precisely the amortization Section 1
   claims for set-oriented rules. *)
let audit_rule =
  "create rule audit when inserted into t if (select min(threshold) from \
   policy) <= (select max(a) from inserted t) then insert into log (select a \
   from inserted t)"

let policy_rows = 200

let fill_policy exec_block =
  exec_block
    [ insert_op "policy" (List.init policy_rows (fun i -> [ vi (-i) ])) ]

let set_system () =
  let s = System.create () in
  ignore_exec s
    "create table t (a int);\ncreate table log (a int);\ncreate table policy \
     (threshold int)";
  ignore_exec s audit_rule;
  fill_policy (fun ops -> ignore (Engine.execute_block (System.engine s) ops));
  s

let instance_system () =
  let ie = Instance_engine.create Database.empty in
  Instance_engine.create_table ie
    (Schema.table "t" [ Schema.column "a" Schema.T_int ]);
  Instance_engine.create_table ie
    (Schema.table "log" [ Schema.column "a" Schema.T_int ]);
  Instance_engine.create_table ie
    (Schema.table "policy" [ Schema.column "threshold" Schema.T_int ]);
  (match Parser.parse_statement_string audit_rule with
  | Ast.Stmt_create_rule def -> ignore (Instance_engine.create_rule ie def)
  | _ -> assert false);
  fill_policy (fun ops -> ignore (Instance_engine.execute_block ie ops));
  ie

let batch n = [ insert_op "t" (List.init n (fun i -> [ vi i ])) ]
let e2_args = [ 1; 16; 128; 512 ]

let e2_set_test =
  Test.make_indexed_with_resource ~name:"e2-set" ~fmt:"%s:n=%d" ~args:e2_args
    Test.multiple
    ~allocate:(fun _ -> set_system ())
    ~free:(fun _ -> ())
    (fun n ->
      let ops = batch n in
      Staged.stage (fun s -> ignore (Engine.execute_block (System.engine s) ops)))

let e2_instance_test =
  Test.make_indexed_with_resource ~name:"e2-instance" ~fmt:"%s:n=%d"
    ~args:e2_args Test.multiple
    ~allocate:(fun _ -> instance_system ())
    ~free:(fun _ -> ())
    (fun n ->
      let ops = batch n in
      Staged.stage (fun ie -> ignore (Instance_engine.execute_block ie ops)))

let e2 () =
  print_header "E2" "set-oriented vs instance-oriented rule execution"
    "one set-oriented firing beats n per-tuple firings; gap grows with batch \
     size";
  let set_rows = run_test e2_set_test in
  let inst_rows = run_test e2_instance_test in
  let rows =
    List.map2
      (fun (sname, sns) (_, ins) ->
        let n = int_of_string (List.nth (String.split_on_char '=' sname) 1) in
        [
          string_of_int n;
          pretty_ns sns;
          pretty_ns ins;
          ratio ins sns;
          pretty_ns (sns /. float_of_int n);
          pretty_ns (ins /. float_of_int n);
        ])
      set_rows inst_rows
  in
  print_table
    [
      "batch"; "set-oriented"; "instance"; "inst/set"; "set per-tuple";
      "inst per-tuple";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: transition-effect composition (Definition 2.1).                 *)

(* Effects carry old rows, as the engine's do: one row per step. *)
let effect_history k =
  (* alternating inserts/updates/deletes over a pool of handles *)
  let handles = Array.init ((k / 2) + 1) (fun _ -> Handle.fresh "t") in
  List.init k (fun i ->
      let h = handles.(i mod Array.length handles) in
      Effect.of_affected
        (match i mod 3 with
        | 0 -> Dml.A_insert [ h ]
        | 1 -> Dml.A_update [ (h, [ "a" ], [| vi i |]) ]
        | _ -> Dml.A_delete [ (h, [| vi i |]) ]))

(* a single effect touching k distinct tuples *)
let bulk_effect kind k =
  let handles = List.init k (fun _ -> Handle.fresh "t") in
  Effect.of_affected
    (match kind with
    | `Ins -> Dml.A_insert handles
    | `Upd ->
      Dml.A_update (List.map (fun h -> (h, [ "a" ], [| vi 0 |])) handles))

let e3_args = [ 16; 64; 256; 1024 ]

let e3_pair_test =
  Test.make_indexed ~name:"e3-one-compose" ~fmt:"%s:k=%d" ~args:e3_args
    (fun k ->
      let a = bulk_effect `Ins k and b = bulk_effect `Upd k in
      Staged.stage (fun () -> Effect.compose a b))

let e3_fold_test =
  Test.make_indexed ~name:"e3-fold" ~fmt:"%s:k=%d" ~args:e3_args (fun k ->
      let effects = effect_history k in
      Staged.stage (fun () -> List.fold_left Effect.compose Effect.empty effects))

let e3 () =
  print_header "E3" "transition-effect composition (Definition 2.1)"
    "one composition is near-linear in the sizes of the two effects; \
     incrementally folding k single-tuple transitions tests only the new \
     entries against the running composite, so a step costs O(log of its \
     size) and the fold total is near-linear";
  let pair = run_test e3_pair_test in
  let fold = run_test e3_fold_test in
  let rows =
    List.map2
      (fun (name, pns) (_, fns) ->
        let k = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        [
          string_of_int k;
          pretty_ns pns;
          pretty_ns (pns /. float_of_int k);
          pretty_ns fns;
          pretty_ns (fns /. float_of_int k);
        ])
      pair fold
  in
  print_table
    [
      "k"; "compose two k-effects"; "  per tuple"; "fold k singletons";
      "  per step";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: per-rule transition-information maintenance (Figure 1's
   modify-trans-info runs for EVERY rule on every transition).         *)

let counter_system extra_rules =
  let s = System.create () in
  ignore_exec s "create table c (n int);\ncreate table unrelated (x int)";
  ignore_exec s
    "create rule dec when updated c.n or inserted into c if exists (select * \
     from c where n > 0) then update c set n = n - 1 where n > 0";
  for i = 1 to extra_rules do
    ignore_exec s
      (Printf.sprintf
         "create rule dormant_%d when inserted into unrelated then delete \
          from unrelated where x < 0"
         i)
  done;
  s

let e4_test =
  Test.make_indexed_with_resource ~name:"e4-rules" ~fmt:"%s:r=%d"
    ~args:[ 0; 16; 64; 256 ] Test.multiple
    ~allocate:(fun r -> counter_system r)
    ~free:(fun _ -> ())
    (fun _ ->
      let ops = [ insert_op "c" [ [ vi 20 ] ] ] in
      Staged.stage (fun s -> ignore (Engine.execute_block (System.engine s) ops)))

let e4 () =
  print_header "E4"
    "trans-info maintenance: 20-step cascade with r dormant rules"
    "Figure 1 maintains composite info per rule; the rule index wakes, and \
     the Section 4.3 pruning keeps information for, only the rules a \
     transition concerns, so dormant rules should add little; the \
     workload itself is constant";
  let rows =
    List.map
      (fun (name, ns) ->
        let r = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        [ string_of_int r; pretty_ns ns ])
      (run_test e4_test)
  in
  print_table [ "dormant rules"; "time/txn (20 firings)" ] rows

(* ------------------------------------------------------------------ *)
(* E5: transition-table materialization.                               *)

let updated_info n =
  (* a database with n rows, all updated once *)
  let db =
    Database.create_table Database.empty
      (Schema.table "t"
         [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ])
  in
  let db, handles =
    List.fold_left
      (fun (db, hs) i ->
        let db, h = Database.insert db "t" [| vi i; vs "x" |] in
        (db, h :: hs))
      (db, [])
      (List.init n (fun i -> i))
  in
  let db, updated =
    List.fold_left
      (fun (db, updated) h ->
        let row = Database.get_row db h in
        ( Database.update db h [| Value.add row.(0) (vi 1); row.(1) |],
          (h, [ "a" ], row) :: updated ))
      (db, []) handles
  in
  (Effect.of_affected (Dml.A_update updated), db)

let e5_args = [ 16; 128; 1024 ]

let e5_test_of tt_name tt =
  Test.make_indexed ~name:tt_name ~fmt:"%s:n=%d" ~args:e5_args (fun n ->
      let eff, db = updated_info n in
      Staged.stage (fun () ->
          ignore
            (Rules.Transition_tables.materialize eff ~current_db:db (tt n))))

let e5 () =
  print_header "E5" "transition-table materialization"
    "materialization is linear in the number of changed tuples; NEW values \
     cost a current-state lookup, OLD values are pre-recorded";
  let old_rows =
    run_test (e5_test_of "old" (fun _ -> Ast.Tt_old_updated ("t", Some "a")))
  in
  let new_rows =
    run_test (e5_test_of "new" (fun _ -> Ast.Tt_new_updated ("t", Some "a")))
  in
  let rows =
    List.map2
      (fun (name, ons) (_, nns) ->
        let n = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        [ string_of_int n; pretty_ns ons; pretty_ns nns ])
      old_rows new_rows
  in
  print_table [ "updated tuples"; "old updated t.a"; "new updated t.a" ] rows

(* ------------------------------------------------------------------ *)
(* E6: rule-selection strategies over mutually-triggering rules.       *)

let strategy_system strategy k =
  let config = { Engine.default_config with strategy } in
  let s = System.create ~config () in
  ignore_exec s "create table t (x int);\ncreate table trace (who string)";
  for i = 1 to k do
    ignore_exec s
      (Printf.sprintf
         "create rule sr_%d when inserted into t or inserted into trace if \
          (select count(*) from trace where who = 'sr_%d') < 3 then insert \
          into trace values ('sr_%d')"
         i i i)
  done;
  s

let e6_test_of name strategy =
  Test.make_with_resource ~name Test.multiple
    ~allocate:(fun () -> strategy_system strategy 8)
    ~free:(fun _ -> ())
    (Staged.stage (fun s ->
         ignore
           (Engine.execute_block (System.engine s)
              [ insert_op "t" [ [ vi 1 ] ] ])))

let e6 () =
  print_header "E6" "rule-selection strategies (8 mutually-triggering rules)"
    "all strategies reach quiescence with the same number of firings; \
     selection policy changes order, not totals";
  let results =
    List.concat_map run_test
      [
        e6_test_of "creation-order" Selection.Creation_order;
        e6_test_of "least-recently-considered"
          Selection.Least_recently_considered;
        e6_test_of "most-recently-considered" Selection.Most_recently_considered;
      ]
  in
  let firings strategy =
    let s = strategy_system strategy 8 in
    ignore (Engine.execute_block (System.engine s) [ insert_op "t" [ [ vi 1 ] ] ]);
    (Engine.stats (System.engine s)).Engine.rule_firings
  in
  let counts =
    [
      firings Selection.Creation_order;
      firings Selection.Least_recently_considered;
      firings Selection.Most_recently_considered;
    ]
  in
  let rows =
    List.map2
      (fun (name, ns) c -> [ name; pretty_ns ns; string_of_int c ])
      results counts
  in
  print_table [ "strategy"; "time/txn"; "firings" ] rows

(* ------------------------------------------------------------------ *)
(* E7: select-tracking overhead (Section 5.1 extension).               *)

(* Each transaction runs 20 selects over a table of [20 * n] rows, each
   reading its own group of [n] rows through a hash-index probe, so a
   select costs its [n] rows with tracking off too; the axis is the
   read-set size per select. *)
let e7_reads = if tiny then [ 25 ] else [ 25; 250; 2_500 ]
let e7_selects = 20

let readonly_system track n =
  let config = { Engine.default_config with track_selects = track } in
  let s = System.create ~config () in
  ignore_exec s "create table t (a int, b int, g int)";
  ignore_exec s "create index t_g on t (g)";
  ignore
    (Engine.execute_block (System.engine s)
       [
         insert_op "t"
           (List.init (e7_selects * n) (fun i -> [ vi i; vi (i * 2); vi (i / n) ]));
       ]);
  s

let e7_queries =
  parse_ops
    (String.concat ";\n"
       (List.init e7_selects (Printf.sprintf "select b from t where g = %d")))

let e7_test_of name track =
  Test.make_indexed_with_resource ~name ~fmt:"%s:n=%d" ~args:e7_reads
    Test.multiple
    ~allocate:(readonly_system track)
    ~free:(fun _ -> ())
    (fun _ ->
      Staged.stage (fun s ->
          let eng = System.engine s in
          Engine.begin_txn eng;
          ignore (Engine.submit_ops eng e7_queries);
          ignore (Engine.commit eng)))

let e7 () =
  print_header "E7" "retrieval tracking overhead (Section 5.1)"
    "maintaining the S component costs a per-read overhead that does not \
     grow with the rows a select reads beyond collecting their handles; \
     with tracking off, reads carry no rule bookkeeping";
  let off = run_test (e7_test_of "tracking-off" false) in
  let on = run_test (e7_test_of "tracking-on" true) in
  let rows =
    List.map2
      (fun (name, off_ns) (_, on_ns) ->
        let n = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        [
          string_of_int n;
          pretty_ns off_ns;
          pretty_ns on_ns;
          ratio on_ns off_ns;
          pretty_ns ((on_ns -. off_ns) /. float_of_int e7_selects);
          pretty_ns ((on_ns -. off_ns) /. float_of_int (e7_selects * n));
        ])
      off on
  in
  print_table
    [
      "rows per select"; "tracking off"; "tracking on"; "overhead";
      "  per select"; "  per row read";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: compiled constraints vs the hand-written Example 3.1 rule.      *)

let fk_children = 100

let handwritten_fk_system () =
  let s = System.create () in
  ignore_exec s
    "create table dept (dept_no int, mgr_no int);\n\
     create table emp (name string, emp_no int, salary float, dept_no int)";
  ignore_exec s
    "create rule cascade_hand when deleted from dept then delete from emp \
     where dept_no in (select dept_no from deleted dept)";
  ignore
    (Engine.execute_block (System.engine s) [ insert_op "dept" [ [ vi 1; vi 1 ] ] ]);
  ignore
    (Engine.execute_block (System.engine s)
       [
         insert_op "emp"
           (List.init fk_children (fun i ->
                [ vs "e"; vi i; Value.Float 1.0; vi 1 ]));
       ]);
  s

let compiled_fk_system () =
  let s = System.create () in
  ignore_exec s "create table dept (dept_no int primary key, mgr_no int)";
  ignore_exec s
    "create table emp (name string, emp_no int, salary float, dept_no int, \
     foreign key (dept_no) references dept (dept_no) on delete cascade)";
  ignore
    (Engine.execute_block (System.engine s) [ insert_op "dept" [ [ vi 1; vi 1 ] ] ]);
  ignore
    (Engine.execute_block (System.engine s)
       [
         insert_op "emp"
           (List.init fk_children (fun i ->
                [ vs "e"; vi i; Value.Float 1.0; vi 1 ]));
       ]);
  s

let e8_test_of name make =
  Test.make_with_resource ~name Test.multiple
    ~allocate:(fun () -> make ())
    ~free:(fun _ -> ())
    (Staged.stage (fun s ->
         ignore
           (Engine.execute_block (System.engine s)
              (parse_ops "delete from dept where dept_no = 1"))))

let e8 () =
  print_header "E8" "constraint compiler vs hand-written rule (CW90 direction)"
    "the compiled cascade behaves like the hand-written Example 3.1 rule; \
     the compiled version adds a bounded checking-rule overhead";
  let hand = run_test (e8_test_of "hand-written" handwritten_fk_system) in
  let compiled = run_test (e8_test_of "compiled" compiled_fk_system) in
  let rows =
    List.map2
      (fun (_, h) (_, c) -> [ pretty_ns h; pretty_ns c; ratio c h ])
      hand compiled
  in
  print_table [ "hand-written rule"; "compiled constraints"; "compiled/hand" ] rows

(* ------------------------------------------------------------------ *)
(* E11: ablation — hash equi-joins vs nested loops, on the rule
   workloads themselves (Section 1: optimization "directly applicable
   to the rules themselves").                                           *)

(* The nested-loop arm writes its join conjunct as [not (a <> b)]: same
   NULL and type semantics as [a = b], but no hash-join link. *)
let join_conjunct ~hash a b =
  if hash then Printf.sprintf "%s = %s" a b else Printf.sprintf "not (%s <> %s)" a b

let join_system ~hash n =
  let s = System.create () in
  ignore_exec s
    "create table emp (emp_no int, dept_no int);\n\
     create table dept (dept_no int, budget float);\n\
     create table report (emp_no int)";
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "dept" (List.init (n / 4) (fun i -> [ vi i; vi 100 ])) ]);
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "emp" (List.init n (fun i -> [ vi i; vi (i mod (n / 4)) ])) ]);
  (* the rule's action joins emp with dept *)
  ignore_exec s
    (Printf.sprintf
       "create rule flag_rich when updated dept.budget then insert into report \
        (select e.emp_no from emp e, dept d where %s and d.budget > 1000)"
       (join_conjunct ~hash "e.dept_no" "d.dept_no"));
  s

let e11_args = [ 64; 256; 1024 ]

let e11_test_of name hash =
  Test.make_indexed_with_resource ~name ~fmt:"%s:n=%d" ~args:e11_args
    Test.multiple
    ~allocate:(fun n -> join_system ~hash n)
    ~free:(fun _ -> ())
    (fun _ ->
      let ops = parse_ops "update dept set budget = budget * 20" in
      Staged.stage (fun s -> ignore (Engine.execute_block (System.engine s) ops)))

let e11 () =
  print_header "E11" "ablation: hash equi-join inside rule actions"
    "a rule action joining n employees with n/4 departments is quadratic \
     under nested loops and near-linear with the hash join";
  let fast = run_test (e11_test_of "hash-join" true) in
  let slow = run_test (e11_test_of "nested-loop" false) in
  let rows =
    List.map2
      (fun (name, f) (_, sl) ->
        let n = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        [ string_of_int n; pretty_ns f; pretty_ns sl; ratio sl f ])
      fast slow
  in
  print_table [ "employees"; "hash join"; "nested loop"; "speedup" ] rows

(* ------------------------------------------------------------------ *)
(* E12: ablation — secondary hash indexes on selective point queries.
   The access-path planner answers sargable equality predicates with an
   index probe instead of a sequential scan; a batch of point queries
   over a table of n rows is O(batch * n) under scans and O(batch)
   under probes.                                                        *)

let point_queries = 100

let e12_ops n =
  parse_ops
    (String.concat ";\n"
       (List.init point_queries (fun i ->
            Printf.sprintf "select v from big where k = %d" (i * 37 mod n))))

let big_system ~indexed n =
  let s = System.create () in
  ignore_exec s "create table big (k int, v int)";
  if indexed then ignore_exec s "create index big_k on big (k)";
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "big" (List.init n (fun i -> [ vi i; vi (i * 3) ])) ]);
  s

let e12_args = [ 256; 1024; 4096 ]

let e12_test_of name indexed =
  Test.make_indexed_with_resource ~name ~fmt:"%s:n=%d" ~args:e12_args
    Test.multiple
    ~allocate:(fun n -> big_system ~indexed n)
    ~free:(fun _ -> ())
    (fun n ->
      let ops = e12_ops n in
      Staged.stage (fun s ->
          let eng = System.engine s in
          Engine.begin_txn eng;
          ignore (Engine.submit_ops eng ops);
          ignore (Engine.commit eng)))

let e12 () =
  print_header "E12" "ablation: secondary hash indexes on point queries"
    "100 equality point queries per transaction: a scan touches all n rows \
     per query, a probe touches the matches; the gap grows linearly with \
     table size";
  let probe = run_test (e12_test_of "indexed" true) in
  let scan = run_test (e12_test_of "scan" false) in
  let access_counts indexed n =
    let s = big_system ~indexed n in
    let eng = System.engine s in
    Engine.begin_txn eng;
    ignore (Engine.submit_ops eng (e12_ops n));
    ignore (Engine.commit eng);
    let st = Engine.stats eng in
    (st.Engine.seq_scans, st.Engine.index_probes)
  in
  let rows =
    List.map2
      (fun (name, p) (_, sc) ->
        let n = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        let _, probes = access_counts true n in
        let scans, _ = access_counts false n in
        [
          string_of_int n; pretty_ns p; pretty_ns sc; ratio sc p;
          string_of_int probes; string_of_int scans;
        ])
      probe scan
  in
  print_table
    [ "rows"; "indexed"; "scan"; "speedup"; "probes"; "scans" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: abort/retry overhead of the exception-safety machinery.  The
   engine snapshots the database at block and transaction start;
   because the store is a persistent structure, taking and restoring a
   snapshot is O(1), so a transaction that faults, aborts and is
   retried should cost about one extra attempt regardless of database
   size.  The faulted arm injects at the first DML hit point of the
   first attempt, observes the abort, and re-runs the block.           *)

let e13_system n =
  let s = System.create () in
  ignore_exec s "create table t (a int, b int)";
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "t" (List.init n (fun i -> [ vi i; vi 0 ])) ]);
  s

(* a net no-op block, so the table size is stable across iterations *)
let e13_ops =
  parse_ops "insert into t values (0 - 1, 0); delete from t where a = 0 - 1"

let e13_test_of name faulted =
  Test.make_indexed_with_resource ~name ~fmt:"%s:n=%d" ~args:[ 256; 4096 ]
    Test.multiple
    ~allocate:(fun n -> e13_system n)
    ~free:(fun _ -> Fault.enable false)
    (fun _n ->
      Staged.stage (fun s ->
          let eng = System.engine s in
          if faulted then begin
            Fault.arm 1;
            (match Engine.execute_block eng e13_ops with
            | _ -> ()
            | exception Fault.Injected _ -> ());
            Fault.disarm ()
          end;
          ignore (Engine.execute_block eng e13_ops)))

let e13 () =
  print_header "E13" "abort/retry overhead (exception-safe transactions)"
    "snapshot restoration is O(1) on the persistent store: a faulted \
     transaction that aborts and retries costs about one extra attempt, \
     independent of database size";
  let clean = run_test (e13_test_of "clean" false) in
  let faulted = run_test (e13_test_of "abort-retry" true) in
  let rows =
    List.map2
      (fun (name, c) (_, f) ->
        let n = int_of_string (List.nth (String.split_on_char '=' name) 1) in
        [ string_of_int n; pretty_ns c; pretty_ns f; ratio f c ])
      clean faulted
  in
  print_table [ "rows"; "clean"; "abort+retry"; "retry/clean" ] rows

(* ------------------------------------------------------------------ *)
(* E14: instrumentation overhead.  The observability layer (execution
   traces, per-rule metrics, wall-clock timing) must be free when off:
   the trace guard is one boolean test, metric counts are two integer
   bumps, and with no clock installed not a single clock read happens.
   Three arms over the same depth-6 Example 4.1 cascade: everything
   off (the default), tracing on, tracing + clock on.                  *)

let e14_depth = 6

(* A steady-state transaction: insert a leaf employee and delete it
   again, so every iteration runs real rule processing (the Example 4.1
   rule is triggered by the delete and its condition subqueries run)
   while the database returns to the same state. *)
let e14_ops =
  parse_ops
    "insert into emp values ('tmp', 9999, 1.0, 2); delete from emp where \
     emp_no = 9999"

let e14_test_of name ~tracing ~clocked =
  Test.make_with_resource ~name Test.multiple
    ~allocate:(fun () ->
      let s = org_system e14_depth in
      let eng = System.engine s in
      Engine.set_tracing eng tracing;
      Engine.set_clock eng (if clocked then Some Unix.gettimeofday else None);
      s)
    ~free:(fun _ -> ())
    (Staged.stage (fun s ->
         ignore (Engine.execute_block (System.engine s) e14_ops)))

let e14 () =
  print_header "E14" "instrumentation overhead (trace + metrics + clock)"
    "the observability layer costs ~nothing when off; tracing adds list \
     conses, the clock adds two time reads per condition/action";
  let off = run_test (e14_test_of "instrumentation-off" ~tracing:false ~clocked:false) in
  let traced = run_test (e14_test_of "tracing-on" ~tracing:true ~clocked:false) in
  let timed = run_test (e14_test_of "tracing+clock" ~tracing:true ~clocked:true) in
  let base = match off with (_, ns) :: _ -> ns | [] -> nan in
  let rows =
    List.map
      (fun (name, ns) -> [ name; pretty_ns ns; ratio ns base ])
      (off @ traced @ timed)
  in
  print_table [ "arm"; "time/txn"; "vs off" ] rows

(* ------------------------------------------------------------------ *)
(* E16: durability — per-transaction WAL overhead, recovery time as a
   function of log length, and the checkpoint ablation.  Three arms
   for the overhead question: the plain in-memory system, the durable
   system with fsync dropped, and the durable system with one fsync
   per commit.  The gap between the first two is the cost of building
   and writing the record; the gap to the third is the disk.  Rule
   firings ride inside the logged net effect (the audit rule fires on
   every measured transaction), so replay never re-runs them.          *)

module Durable = Durability.Durable
module Recovery = Durability.Recovery

let bench_dir_counter = ref 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir label =
  incr bench_dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sopr-bench-%d-%d-%s" (Unix.getpid ())
         !bench_dir_counter label)
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let e16_rows = 20

let e16_setup =
  "create table t (a int, b int);\n\
   create table log (n int);\n\
   create rule audit when updated t.b then insert into log values (1)"

let e16_seed s =
  ignore_exec s e16_setup;
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "t" (List.init e16_rows (fun i -> [ vi i; vi 0 ])) ])

(* the steady-state transaction: ten updated tuples plus one audit-rule
   insert per commit — a non-trivial but constant-size WAL record *)
let e16_txn_ops = parse_ops "update t set b = b + 1 where a < 10"

let e16_mem_test =
  Test.make_with_resource ~name:"e16-memory" Test.multiple
    ~allocate:(fun () ->
      let s = System.create () in
      e16_seed s;
      s)
    ~free:(fun _ -> ())
    (Staged.stage (fun s ->
         ignore (Engine.execute_block (System.engine s) e16_txn_ops)))

let e16_durable_test name sync =
  Test.make_with_resource ~name Test.multiple
    ~allocate:(fun () ->
      let dir = fresh_dir name in
      let d, _ = Durable.open_dir ~sync dir in
      e16_seed (Durable.system d);
      (d, dir))
    ~free:(fun (d, dir) ->
      Durable.close d;
      rm_rf dir)
    (Staged.stage (fun (d, _) ->
         ignore
           (Engine.execute_block (System.engine (Durable.system d)) e16_txn_ops)))

let e16_log_args = if tiny then [ 64; 256 ] else [ 256; 1024; 4096 ]

(* Build a data directory whose WAL holds [n] single-insert commits.
   Written with [sync:false] — the bytes are identical either way and
   recovery cost does not depend on how they were written.  The
   checkpointed variant publishes a checkpoint 16 commits before the
   end, so restoration loads the snapshot and replays a short suffix. *)
let e16_build_log ?checkpoint_at n =
  let dir = fresh_dir "log" in
  let d, _ = Durable.open_dir ~sync:false dir in
  ignore (Durable.exec d "create table t (a int, b int)");
  let eng = System.engine (Durable.system d) in
  for i = 1 to n do
    ignore (Engine.execute_block eng [ insert_op "t" [ [ vi i; vi 0 ] ] ]);
    if checkpoint_at = Some i then Durable.checkpoint d
  done;
  Durable.close d;
  dir

let e16_restore_test name ~checkpoint =
  Test.make_indexed_with_resource ~name ~fmt:"%s:n=%d" ~args:e16_log_args
    Test.multiple
    ~allocate:(fun n ->
      e16_build_log
        ?checkpoint_at:(if checkpoint then Some (n - 16) else None)
        n)
    ~free:rm_rf
    (fun _ -> Staged.stage (fun dir -> ignore (Recovery.restore dir)))

let write_e16_json path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"E16\",\n  \"description\": \"durability: \
        per-transaction WAL overhead, recovery time vs log length, \
        checkpoint ablation\",\n  \"unit\": \"ns\",\n  \"tiny\": %b,\n  \
        \"results\": [\n"
       tiny);
  List.iteri
    (fun i (arm, n, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"arm\": \"%s\", \"n\": %d, \"ns\": %.1f}%s\n"
           arm n ns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nresults written to %s\n" path

let e16 () =
  print_header "E16" "durability: WAL overhead, recovery time, checkpoints"
    "synchronous logging costs one record build + fsync per transaction; \
     recovery replays the log linearly; a checkpoint collapses replay to \
     snapshot load plus a short suffix";
  let overhead =
    run_test e16_mem_test
    @ run_test (e16_durable_test "e16-wal-nosync" false)
    @ run_test (e16_durable_test "e16-wal-sync" true)
  in
  let base = match overhead with (_, ns) :: _ -> ns | [] -> nan in
  print_table [ "arm"; "time/txn"; "vs memory" ]
    (List.map (fun (name, ns) -> [ name; pretty_ns ns; ratio ns base ]) overhead);
  let arg_of name =
    match String.split_on_char '=' name with
    | [ _; n ] -> int_of_string n
    | _ -> 0
  in
  let wal_only = run_test (e16_restore_test "e16-recover-wal" ~checkpoint:false) in
  let ckpt = run_test (e16_restore_test "e16-recover-ckpt" ~checkpoint:true) in
  print_table
    [ "log records"; "wal-only restore"; "checkpointed restore"; "speedup" ]
    (List.map2
       (fun (name, w) (_, c) ->
         [ string_of_int (arg_of name); pretty_ns w; pretty_ns c; ratio w c ])
       wal_only ckpt);
  let rows =
    List.map (fun (name, ns) -> (name, 1, ns)) overhead
    @ List.map (fun (name, ns) -> ("recover-wal-only", arg_of name, ns)) wal_only
    @ List.map
        (fun (name, ns) -> ("recover-checkpointed", arg_of name, ns))
        ckpt
  in
  write_e16_json "BENCH_PR5.json" rows

(* ------------------------------------------------------------------ *)
(* E17: the scenario corpus under the YCSB-style generator — sustained
   transactions/second per scenario, and the cost of a dense rule set
   (the rule-density knob installs never-firing rules the engine must
   still consider every transition).  Unlike E1–E16 this measures
   whole mixed transactions (reads and writes, rule processing, index
   maintenance) over the same workloads the soak harness verifies.    *)

let e17_profile =
  {
    Workload.Profile.default with
    Workload.Profile.txns = (if tiny then 40 else 200);
    theta = 0.75;
  }

let e17_duration = if tiny then 0.05 else 1.0

let write_e17_json path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"E17\",\n  \"description\": \"scenario corpus \
        under the YCSB-style workload generator: sustained transaction \
        throughput per scenario, with and without a dense rule set\",\n  \
        \"unit\": \"txn_per_s\",\n  \"tiny\": %b,\n  \"results\": [\n"
       tiny);
  List.iteri
    (fun i (arm, density, txn_s, txns) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"arm\": \"%s\", \"rule_density\": %d, \"txn_per_s\": %.1f, \
            \"txns\": %d}%s\n"
           arm density txn_s txns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nresults written to %s\n" path

let e17 () =
  print_header "E17" "scenario corpus throughput (workload generator)"
    "mixed read/write transactions with Zipfian key skew, rules firing on \
     every write path; padding the rule set with never-firing rules prices \
     rule-set consideration per transition";
  Workload.Scenarios.register_all ();
  let densities = [ 0; 32 ] in
  let rows =
    List.concat_map
      (fun sc ->
        List.map
          (fun density ->
            let profile =
              { e17_profile with Workload.Profile.rule_density = density }
            in
            let txn_s, txns =
              Workload.Runner.throughput ~duration:e17_duration sc profile
            in
            (sc.Workload.Scenario.sc_name, density, txn_s, txns))
          densities)
      (Workload.Scenario.all ())
  in
  print_table
    [ "scenario"; "extra rules"; "txn/s"; "txns measured" ]
    (List.map
       (fun (arm, density, txn_s, txns) ->
         [
           arm;
           string_of_int density;
           Printf.sprintf "%10.0f" txn_s;
           string_of_int txns;
         ])
       rows);
  write_e17_json "BENCH_PR6.json" rows

(* ------------------------------------------------------------------ *)
(* E18: rule discrimination — per-transaction cost as the rule catalog
   grows from 10 to 10k while the set of rules the transaction can
   trigger stays constant (one firing audit rule; every padding rule
   is registered on a table the transaction never touches).  Two arms:
   the discrimination index and the instance-oriented engine as the
   non-set-oriented baseline.  The claim: indexed cost is flat in the
   catalog size, the instance engine's scan degrades linearly.        *)

let e18_args = if tiny then [ 10; 100 ] else [ 10; 100; 1_000; 10_000 ]

let e18_audit_rule =
  "create rule audit when inserted into hot then insert into log values (1)"

(* Padding rules never woken by the measured transaction: they watch a
   table the workload never touches.  Built as ASTs directly so the
   10k-rule setup does not price the SQL parser. *)
let e18_pad_def i =
  {
    Ast.rule_name = Printf.sprintf "pad%05d" i;
    trans_preds = [ Ast.Tp_inserted "cold" ];
    condition = None;
    action = Ast.Act_rollback;
  }

let e18_system n =
  let s = System.create () in
  ignore_exec s
    "create table hot (a int);\ncreate table log (n int);\n\
     create table cold (a int)";
  ignore_exec s e18_audit_rule;
  for i = 1 to n - 1 do
    ignore (Engine.create_rule (System.engine s) (e18_pad_def i))
  done;
  s

let e18_instance_system n =
  let ie = Instance_engine.create Database.empty in
  Instance_engine.create_table ie
    (Schema.table "hot" [ Schema.column "a" Schema.T_int ]);
  Instance_engine.create_table ie
    (Schema.table "log" [ Schema.column "n" Schema.T_int ]);
  Instance_engine.create_table ie
    (Schema.table "cold" [ Schema.column "a" Schema.T_int ]);
  (match Parser.parse_statement_string e18_audit_rule with
  | Ast.Stmt_create_rule def -> ignore (Instance_engine.create_rule ie def)
  | _ -> assert false);
  for i = 1 to n - 1 do
    ignore (Instance_engine.create_rule ie (e18_pad_def i))
  done;
  ie

let e18_txn_ops = parse_ops "insert into hot values (0)"

let e18_engine_test =
  Test.make_indexed_with_resource ~name:"e18-indexed" ~fmt:"%s:n=%d" ~args:e18_args
    Test.multiple
    ~allocate:(fun n -> e18_system n)
    ~free:(fun _ -> ())
    (fun _ ->
      Staged.stage (fun s ->
          ignore (Engine.execute_block (System.engine s) e18_txn_ops)))

let e18_instance_test =
  Test.make_indexed_with_resource ~name:"e18-instance" ~fmt:"%s:n=%d"
    ~args:e18_args Test.multiple
    ~allocate:(fun n -> e18_instance_system n)
    ~free:(fun _ -> ())
    (fun _ ->
      Staged.stage (fun ie -> ignore (Instance_engine.execute_block ie e18_txn_ops)))

let write_e18_json path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"E18\",\n  \"description\": \"rule \
        discrimination index: per-transaction cost vs rule-catalog size at \
        a constant fired fraction — indexed vs instance-oriented \
        baseline\",\n  \"unit\": \"ns_per_txn\",\n  \
        \"tiny\": %b,\n  \"results\": [\n"
       tiny);
  List.iteri
    (fun i (arm, n, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"arm\": \"%s\", \"rules\": %d, \"ns\": %.1f}%s\n"
           arm n ns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nresults written to %s\n" path

let e18 () =
  print_header "E18" "rule discrimination: cost vs rule-catalog size"
    "with (table, op, column) discrimination the per-transition cost tracks \
     the rules the transition can wake, not the catalog; the instance \
     engine degrades with every rule defined";
  let arg_of name =
    match String.split_on_char '=' name with
    | [ _; n ] -> int_of_string n
    | _ -> 0
  in
  let indexed = run_test e18_engine_test in
  let instance = run_test e18_instance_test in
  print_table
    [ "rules"; "indexed"; "instance"; "instance/indexed" ]
    (List.map2
       (fun (name, ins) (_, bns) ->
         [ string_of_int (arg_of name); pretty_ns ins; pretty_ns bns; ratio bns ins ])
       indexed instance);
  let rows =
    List.map (fun (name, ns) -> ("indexed", arg_of name, ns)) indexed
    @ List.map (fun (name, ns) -> ("instance", arg_of name, ns)) instance
  in
  write_e18_json "BENCH_PR7.json" rows

(* ------------------------------------------------------------------ *)
(* E19: server commit throughput — txn/s vs concurrent client count
   over real loopback TCP, one arm per WAL mode.  Every client commits
   single-row transactions against its own key (no conflicts), so the
   experiment prices the commit path itself.  Both arms group-commit:
   nosync is the wire-plus-validation ceiling, and sync pays one fsync
   per round, amortized across whatever commits pile up while the
   previous round's flush is in flight.                                *)

module Server = Sopr_server.Server
module Client = Sopr_server.Client

let e19_clients = if tiny then [ 1; 2 ] else [ 1; 2; 4; 8; 16 ]
let e19_duration = if tiny then 0.05 else 2.0

let e19_arms = [ ("nosync", Server.Wal_nosync); ("sync", Server.Wal_sync) ]

let e19_run mode clients =
  let dir = fresh_dir "e19" in
  let srv = Server.create ~data_dir:dir mode in
  let listener = Server.start srv in
  let port = Server.port listener in
  let setup = Client.connect ~port () in
  let seed = Buffer.create 256 in
  Buffer.add_string seed "create table kv (id int, v int)";
  for i = 0 to clients - 1 do
    Buffer.add_string seed (Printf.sprintf "; insert into kv values (%d, 0)" i)
  done;
  (match Client.request setup (Buffer.contents seed) with
  | Ok _ -> ()
  | Error e -> failwith e);
  Client.close setup;
  let counts = Array.make clients 0 in
  let deadline = Unix.gettimeofday () +. e19_duration in
  let worker i =
    let c = Client.connect ~port () in
    let txn =
      Printf.sprintf "begin; update kv set v = v + 1 where id = %d; commit" i
    in
    while Unix.gettimeofday () < deadline do
      match Client.request c txn with
      | Ok _ -> counts.(i) <- counts.(i) + 1
      | Error e -> failwith e
    done;
    Client.close c
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Server.stop listener;
  Server.close srv;
  rm_rf dir;
  let txns = Array.fold_left ( + ) 0 counts in
  (float_of_int txns /. elapsed, txns)

let write_e19_json path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"E19\",\n  \"description\": \
        \"concurrent-session server over loopback TCP: sustained commit \
        throughput vs client count for group commit with and without \
        fsync\",\n  \"unit\": \"txn_per_s\",\n  \"tiny\": %b,\n  \
        \"results\": [\n"
       tiny);
  List.iteri
    (fun i (arm, clients, txn_s, txns) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"arm\": \"%s\", \"clients\": %d, \"txn_per_s\": %.1f, \
            \"txns\": %d}%s\n"
           arm clients txn_s txns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nresults written to %s\n" path

let e19 () =
  print_header "E19" "server commit throughput vs concurrent clients"
    "group commit amortizes the fsync over whatever commits pile up during \
     the previous round's flush, so sync-durable throughput scales with \
     writer count instead of being pinned at one fsync per transaction";
  let rows =
    List.concat_map
      (fun (arm, mode) ->
        List.map
          (fun clients ->
            let txn_s, txns = e19_run mode clients in
            (arm, clients, txn_s, txns))
          e19_clients)
      e19_arms
  in
  print_table
    [ "arm"; "clients"; "txn/s"; "txns measured" ]
    (List.map
       (fun (arm, clients, txn_s, txns) ->
         [
           arm;
           string_of_int clients;
           Printf.sprintf "%10.0f" txn_s;
           string_of_int txns;
         ])
       rows);
  write_e19_json "BENCH_PR8.json" rows

(* ------------------------------------------------------------------ *)
(* E20: the cost-based access-path planner on a join-heavy rule
   cascade.  A transaction inserts a batch of lineitems; one rule
   prices the batch by joining the transition table against the item
   base table, a second consumes the priced rows through a range
   predicate over an ordered index.  Two ablations, each measured at
   10^4..10^6 item rows: the pricing join under an index nested-loop
   join (one probe of item_iid per batch row, what the planner picks
   with the index in place), under a hash join (the same rule after
   [drop index item_iid]) and under nested loops (the same rule with
   its join conjunct in the unlinkable form of [join_conjunct]), and a
   1%-selective range retrieval by ordered-index range probe vs seq
   scan (the same query after the index is dropped).  Sizes this large
   make bechamel's repetition pointless, so arms are timed directly
   over a fixed iteration count, as in E19.                            *)

let e20_sizes = if tiny then [ 1_000 ] else [ 10_000; 100_000; 1_000_000 ]
let e20_batch = 64
let e20_join_iters = if tiny then 2 else 5
let e20_range_iters = if tiny then 3 else 20

(* The cascade: pricing joins the transition table against item; the
   flush range-deletes what pricing inserted, so the priced table stays
   empty between transactions and every measured iteration does
   identical work. *)
let e20_rules ~hash =
  Printf.sprintf
    "create rule e20_price when inserted into lineitem then insert into \
     priced select l.lid, l.qty * i.price from inserted lineitem l, item i \
     where %s;\n\
     create rule e20_flush when inserted into priced then delete from \
     priced where cost >= 0"
    (join_conjunct ~hash "l.iid" "i.iid")

let e20_system n =
  let s = System.create () in
  ignore_exec s
    "create table item (iid int, price int);\n\
     create table lineitem (lid int, iid int, qty int);\n\
     create table priced (lid int, cost int);\n\
     create index item_iid on item (iid);\n\
     create index item_price on item (price) using ordered;\n\
     create index priced_cost on priced (cost) using ordered";
  let eng = System.engine s in
  let chunk = 100_000 in
  let rec seed i =
    if i < n then begin
      let m = min chunk (n - i) in
      let rows =
        List.init m (fun j -> [ vi (i + j); vi ((i + j) mod 1000) ])
      in
      ignore (Engine.execute_block eng [ insert_op "item" rows ]);
      seed (i + m)
    end
  in
  seed 0;
  ignore_exec s (e20_rules ~hash:true);
  s

let e20_join_txn n iter =
  let rows =
    List.init e20_batch (fun j ->
        let k = ((iter * 7919) + (j * 104729)) mod n in
        Printf.sprintf "(%d, %d, %d)" ((iter * e20_batch) + j) k (1 + (j mod 9)))
  in
  Printf.sprintf "insert into lineitem values %s" (String.concat ", " rows)

let e20_timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The three join arms, each with its own lineitem ids. *)
let e20_arm_base = function `Index_nl -> 0 | `Hash -> 2000 | `Nested -> 4000

let e20_join_ms s n ~arm =
  (* one warm-up transaction keeps rule compilation off the clock;
     nested loops at the largest size are quadratic enough that a
     single measured pass is already seconds of work *)
  let iters = if arm = `Nested && n >= 1_000_000 then 1 else e20_join_iters in
  let base = e20_arm_base arm in
  ignore_exec s (e20_join_txn n (1000 + (base / 2000)));
  let dt =
    e20_timed (fun () ->
        for iter = 0 to iters - 1 do
          ignore_exec s (e20_join_txn n (base + iter))
        done)
  in
  (dt *. 1e3 /. float_of_int iters, iters)

let e20_range_sql = "select count(*) from item where price between 100 and 109"

let e20_range_ms s =
  ignore (System.query s e20_range_sql);
  let dt =
    e20_timed (fun () ->
        for _ = 1 to e20_range_iters do
          ignore (System.query s e20_range_sql)
        done)
  in
  dt *. 1e3 /. float_of_int e20_range_iters

let write_e20_json path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"E20\",\n  \"description\": \"cost-based \
        access paths on a join-heavy rule cascade: batch pricing via a \
        transition-table join under index nested-loop join vs hash join \
        vs nested loops, and a 1%%-selective retrieval under \
        ordered-index range probes vs seq scans\",\n  \"unit\": \
        \"ms_per_op\",\n  \"tiny\": %b,\n  \
        \"results\": [\n"
       tiny);
  List.iteri
    (fun i (section, arm, n, ms, iters) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"section\": \"%s\", \"arm\": \"%s\", \"rows\": %d, \
            \"ms_per_op\": %.3f, \"iters\": %d}%s\n"
           section arm n ms iters
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nresults written to %s\n" path

let e20 () =
  print_header "E20" "cost-based planner: join methods and range probes at scale"
    "pricing a 64-row batch against n items costs 64 index probes under \
     the index nested-loop join, O(n + batch) under the hash join and \
     O(batch * n) under nested loops; a 1%-selective range retrieval \
     touches n rows by scan and ~n/100 by ordered-index probe";
  let results = ref [] in
  let table_rows =
    List.map
      (fun n ->
        let s = e20_system n in
        let inl_ms, inl_iters = e20_join_ms s n ~arm:`Index_nl in
        ignore_exec s "drop index item_iid";
        let hash_ms, hash_iters = e20_join_ms s n ~arm:`Hash in
        ignore_exec s "drop rule e20_price;\ndrop rule e20_flush";
        ignore_exec s (e20_rules ~hash:false);
        let nl_ms, nl_iters = e20_join_ms s n ~arm:`Nested in
        let probe_ms = e20_range_ms s in
        ignore_exec s "drop index item_price";
        let scan_ms = e20_range_ms s in
        results :=
          !results
          @ [
              ("rule_join", "index_nested_loop", n, inl_ms, inl_iters);
              ("rule_join", "hash_join", n, hash_ms, hash_iters);
              ("rule_join", "nested_loop", n, nl_ms, nl_iters);
              ("range_select", "range_probe", n, probe_ms, e20_range_iters);
              ("range_select", "seq_scan", n, scan_ms, e20_range_iters);
            ];
        [
          string_of_int n;
          Printf.sprintf "%8.2f ms" inl_ms;
          Printf.sprintf "%8.2f ms" hash_ms;
          Printf.sprintf "%8.2f ms" nl_ms;
          ratio hash_ms inl_ms;
          ratio nl_ms hash_ms;
          Printf.sprintf "%8.3f ms" probe_ms;
          Printf.sprintf "%8.3f ms" scan_ms;
          ratio scan_ms probe_ms;
        ])
      e20_sizes
  in
  print_table
    [
      "items"; "join: index NL"; "join: hash"; "join: nested"; "hash/index NL";
      "nested/hash"; "range: probe"; "range: scan"; "speedup";
    ]
    table_rows;
  write_e20_json "BENCH_PR9.json" !results

(* ------------------------------------------------------------------ *)
(* E21: the prepared-statement pipeline.  Five arms over two statement
   sizes (a ~30-byte point select and a ~1 KB select whose predicate
   carries a large IN list): the lexer's shape scan alone, parse-only,
   parse+compile against the fixture catalog, end-to-end EXECUTE of the
   prepared form — the EXECUTE text stays tiny regardless of the
   prepared body's size, and the compiled plan is served from the
   generation-keyed cache, so its cost is bind + run rather than
   re-parse + re-compile — and the unprepared text end to end through
   [System.exec], whose shape memo binds the text's literals into the
   cached parameterized plan (the literals vary per call, the shape
   does not).  Parsing is microseconds, so arms are timed directly over
   a fixed iteration count, as in E19/E20.                             *)

let e21_iters = if tiny then 500 else 20_000

(* pad the body with an IN list until the statement is ~1 KB; the
   [param] variant swaps the trailing range for `?` placeholders so
   the prepared form has the same shape and length *)
let e21_big_stmt ?(lo = 10) ~param () =
  let buf = Buffer.create 1200 in
  Buffer.add_string buf
    "select a, b, (a + b) s1, (a * b) s2, (b - a) s3 from t where a in (";
  let i = ref 0 in
  while Buffer.length buf < 980 do
    if !i > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (string_of_int (100000 + !i));
    incr i
  done;
  Buffer.add_string buf
    (if param then ") and b between ? and ?"
     else Printf.sprintf ") and b between %d and %d" lo (lo + 10));
  Buffer.contents buf

(* (size, literal text, prepared body, EXECUTE text, literal variants) *)
let e21_cases =
  [
    ( "small",
      "select a from t where a = 42",
      "select a from t where a = ?",
      "execute p21_small (42)",
      Array.init 64 (Printf.sprintf "select a from t where a = %d") );
    ( "1kb",
      e21_big_stmt ~param:false (),
      e21_big_stmt ~param:true (),
      "execute p21_1kb (10, 20)",
      Array.init 64 (fun lo -> e21_big_stmt ~lo ~param:false ()) );
  ]

let e21_system () =
  let s = System.create () in
  ignore_exec s "create table t (a int, b int)";
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "t" (List.init 4 (fun i -> [ vi i; vi (10 + i) ])) ]);
  List.iter
    (fun (name, _, prep, _, _) ->
      ignore_exec s (Printf.sprintf "prepare p21_%s as %s" name prep))
    e21_cases;
  s

let e21_timed_ns f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to e21_iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int e21_iters

let write_e21_json path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"E21\",\n  \"description\": \"prepared \
        statements: lex-only vs parse-only vs parse+compile vs EXECUTE \
        against the generation-keyed statement cache vs unprepared text \
        through the shape memo, at ~30 B and ~1 KB statement sizes\",\n  \"unit\": \"ns_per_op\",\n  \"tiny\": %b,\n  \
        \"results\": [\n"
       tiny);
  List.iteri
    (fun i (size, bytes, arm, ns) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"size\": \"%s\", \"bytes\": %d, \"arm\": \"%s\", \
            \"ns_per_op\": %.1f, \"iters\": %d}%s\n"
           size bytes arm ns e21_iters
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nresults written to %s\n" path

let e21 () =
  print_header "E21" "prepared statements: PREPARE/EXECUTE vs re-parse"
    "EXECUTE of a prepared 1 KB statement costs bind + cached plan, \
     independent of body size; unprepared execution that re-parsed and \
     recompiled on every call now pays the lexer's shape scan and binds \
     its literals into the cached parameterized plan";
  let s = e21_system () in
  let db = Engine.database (System.engine s) in
  let results = ref [] in
  let table_rows =
    List.map
      (fun (size, literal, _, exec_sql, variants) ->
        let bytes = String.length literal in
        (* warm the execute path so the cached-plan arm measures hits,
           and the shape memo with every variant *)
        ignore (System.exec_one s exec_sql);
        Array.iter (fun v -> ignore (System.exec s v)) variants;
        let lex_ns = e21_timed_ns (fun () -> ignore (Sqlf.Lexer.shape literal)) in
        let parse_ns =
          e21_timed_ns (fun () ->
              ignore (Parser.parse_statement_string literal))
        in
        let compile_ns =
          e21_timed_ns (fun () ->
              match Parser.parse_statement_string literal with
              | Ast.Stmt_op op -> ignore (Sqlf.Dml.compile_op db op)
              | _ -> failwith "expected DML")
        in
        let exec_ns =
          e21_timed_ns (fun () -> ignore (System.exec_one s exec_sql))
        in
        let k = ref 0 in
        let memo_ns =
          e21_timed_ns (fun () ->
              incr k;
              ignore (System.exec s variants.(!k land 63)))
        in
        results :=
          !results
          @ [
              (size, bytes, "lex_only", lex_ns);
              (size, bytes, "parse_only", parse_ns);
              (size, bytes, "parse_compile", compile_ns);
              (size, bytes, "execute_cached", exec_ns);
              (size, bytes, "exec_shape_memo", memo_ns);
            ];
        [
          size;
          string_of_int bytes ^ " B";
          Printf.sprintf "%.1f ns/B" (lex_ns /. float_of_int bytes);
          pretty_ns parse_ns;
          pretty_ns compile_ns;
          pretty_ns exec_ns;
          pretty_ns memo_ns;
          ratio compile_ns exec_ns;
        ])
      e21_cases
  in
  print_table
    [
      "stmt"; "bytes"; "lex"; "parse only"; "parse+compile"; "execute (cached)";
      "text (shape memo)"; "speedup";
    ]
    table_rows;
  write_e21_json "BENCH_PR10.json" !results

(* ------------------------------------------------------------------ *)
(* E25: scans at storage speed.  A filter-count (rules-keyed's read
   [select count( * ) from audit_log where kind = 'U']) and a
   filter-project of the same rows, through [System.exec] (the shape
   memo and its cached plan, as the workloads run them) over 10^3..10^5
   rows of which a quarter pass, against the floor of [Table.iter]
   applying the same test to the stored row.  Each arm is timed over a
   fixed number of rows read; allocation is [Gc.minor_words] over the
   same loop ([Gc.counters] under-reports short spans).  Both are
   reported per row read.  Tiny mode fails when the filter-count
   allocates more than one word per row.                               *)

let e25_sizes = if tiny then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ]
let e25_rows_read = if tiny then 2_000_000 else 40_000_000
let e25_count_sql = "select count(*) from audit_log where kind = 'U'"
let e25_project_sql = "select id, version from audit_log where kind = 'U'"

let e25_system n =
  let s = System.create () in
  ignore_exec s "create table audit_log (kind string, id int, version int)";
  let kinds = [| "I"; "U"; "D"; "R" |] in
  ignore
    (Engine.execute_block (System.engine s)
       [
         insert_op "audit_log"
           (List.init n (fun i -> [ vs kinds.(i land 3); vi i; vi (i / 4) ]));
       ]);
  s

(* ns and minor words per row read of [f], one pass over [n] rows *)
let e25_per_row n f =
  let iters = max 3 (e25_rows_read / n) in
  f ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let rows = float_of_int (iters * n) in
  (dt *. 1e9 /. rows, words /. rows)

let e25 () =
  print_header "E25" "scans at storage speed: a single-table filter tested on the stored row"
    "a single-table WHERE that cannot raise is tested on the stored row \
     and count(*) folds straight into its accumulator: the filter-count \
     costs at most 2x the Table.iter floor and allocates nothing per row";
  let gate_failed = ref false and gate_line = ref "" in
  let table_rows =
    List.map
      (fun n ->
        let s = e25_system n in
        let table = Database.table (Engine.database (System.engine s)) "audit_log" in
        let passed = ref 0 in
        let floor_ns, floor_w =
          e25_per_row n (fun () ->
              Table.iter
                (fun _ row ->
                  match row.(0) with
                  | Value.Str k when String.equal k "U" -> incr passed
                  | _ -> ())
                table)
        in
        let count_ns, count_w = e25_per_row n (fun () -> ignore_exec s e25_count_sql) in
        let proj_ns, proj_w = e25_per_row n (fun () -> ignore_exec s e25_project_sql) in
        if tiny && count_w > 1.0 then gate_failed := true;
        if n = 10_000 then
          gate_line :=
            Printf.sprintf
              "at 10^4 rows the filter-count runs at %.2fx the floor (target <= 2x) and \
               allocates %.2f words per row (target <= 0.5)"
              (count_ns /. floor_ns) count_w;
        [
          string_of_int n;
          Printf.sprintf "%.1f ns" floor_ns;
          Printf.sprintf "%.2f" floor_w;
          Printf.sprintf "%.1f ns" count_ns;
          Printf.sprintf "%.2f" count_w;
          ratio count_ns floor_ns;
          Printf.sprintf "%.1f ns" proj_ns;
          Printf.sprintf "%.2f" proj_w;
        ])
      e25_sizes
  in
  print_table
    [
      "rows"; "floor/row"; "floor w/row"; "count/row"; "count w/row"; "count/floor";
      "project/row"; "project w/row";
    ]
    table_rows;
  print_endline !gate_line;
  if !gate_failed then begin
    print_endline "E25 gate failed: the filter-count allocates more than 1 word per row";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E27: commit validation does not grow with the committed past.  One
   in-process [Memory] server session commits [begin; update kv set v =
   v + 1 where id = k; commit] over a 64-row table, k cycling, in four
   chunks, alone and while a second session holds an idle transaction
   open ([begin; select ...]).  Validation looks at the committed state
   itself, so every chunk costs about what the first did in both arms;
   the tiny run fails when an arm's last chunk costs more than twice its
   first.  A chunk's cost is the median of its ten slices, so one
   stall of the host does not decide the gate.                        *)

let e27_chunks = 4
let e27_chunk = if tiny then 1_500 else 5_000
let e27_slices = 10

(* µs per commit of each chunk *)
let e27_run ~idle =
  let srv = Server.create Server.Memory in
  let w = Server.open_session srv and reader = Server.open_session srv in
  let exec sess sql =
    match Server.exec_script srv sess sql with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  exec w "create table kv (id int, v int)";
  for k = 0 to 63 do
    exec w (Printf.sprintf "insert into kv values (%d, 0)" k)
  done;
  if idle then exec reader "begin; select v from kv where id = 0";
  let txns =
    Array.init 64 (Printf.sprintf "begin; update kv set v = v + 1 where id = %d; commit")
  in
  let slice = e27_chunk / e27_slices in
  let chunks =
    Array.init e27_chunks (fun c ->
        let times =
          Array.init e27_slices (fun sl ->
              let t0 = Unix.gettimeofday () in
              for i = 0 to slice - 1 do
                exec w txns.(((c * e27_chunk) + (sl * slice) + i) mod 64)
              done;
              (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int slice)
        in
        Array.sort compare times;
        times.(e27_slices / 2))
  in
  Server.close_session srv reader;
  Server.close_session srv w;
  chunks

let e27 () =
  print_header "E27" "server commit validation as commits accumulate"
    "a commit is validated against the committed state, not a history of \
     write sets, so an idle open transaction does not make later commits \
     slower: every chunk costs about what the first did";
  let arms = [ ("alone", false); ("idle txn open", true) ] in
  let rows = List.map (fun (arm, idle) -> (arm, e27_run ~idle)) arms in
  let first_last chunks = (chunks.(0), chunks.(e27_chunks - 1)) in
  print_table
    ("arm" :: List.init e27_chunks (fun c -> Printf.sprintf "chunk %d (us/commit)" (c + 1))
    @ [ "last/first" ])
    (List.map
       (fun (arm, chunks) ->
         let first, last = first_last chunks in
         (arm :: Array.to_list (Array.map (Printf.sprintf "%.1f") chunks))
         @ [ ratio last first ])
       rows);
  let failed =
    List.filter
      (fun (_, chunks) ->
        let first, last = first_last chunks in
        last > 2.0 *. first)
      rows
  in
  if tiny && failed <> [] then begin
    List.iter
      (fun (arm, _) ->
        Printf.printf "E27 gate failed: %s: the last chunk costs more than twice the first\n" arm)
      failed;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E28: index probes at storage speed.  A range count and a range
   projection ([select count( * ) from t where k > x], [select id from t
   where k > x]) through [System.exec], over 10^3 and 10^4 rows whose
   keys are a permutation of 0..n-1, at selectivities 0.1% to 90%: with
   an ordered index on k, a range probe that gathers at most
   max 1 (n / max 4 (log2 n)) handles and otherwise gives up for the
   scan, against the unindexed twin, which scans.  The equality arm
   counts and projects [where grp = x] over the same sizes with a hash
   index on grp, every key held by 1, 10, 100, 1,000 or 5,000 rows: the
   probe spends the same budget, one per row held.  Each arm is timed
   over a fixed number of rows, best of five passes interleaved with
   the other arm's.  Tiny mode fails when the indexed statement costs
   more than 1.5x the scan at any selectivity or multiplicity, or when
   a range does not beat the scan at 1%.                               *)

let e28_sizes = [ 1_000; 10_000 ]
let e28_selectivities = [ 0.001; 0.01; 0.10; 0.33; 0.90 ]
let e28_multiplicities = [ 1; 10; 100; 1_000; 5_000 ]
let e28_rows_read = if tiny then 1_000_000 else 10_000_000

(* a table [t (id, col)] of [n] rows whose [col] is [key id], indexed
   by [index] (the DDL's tail after [on t (col)]) when given *)
let e28_system ?index ~col n key =
  let s = System.create () in
  ignore_exec s (Printf.sprintf "create table t (id int, %s int)" col);
  Option.iter
    (fun using -> ignore_exec s (Printf.sprintf "create index t_%s on t (%s)%s" col col using))
    index;
  ignore
    (Engine.execute_block (System.engine s)
       [ insert_op "t" (List.init n (fun i -> [ vi i; vi (key i) ])) ]);
  s

(* ns per statement of [sql] over [n] rows on each system: best of
   five passes, the two systems' passes interleaved so that both see
   the host in the same state *)
let e28_ns s_ix s_scan n sql =
  let iters = max 3 (e28_rows_read / n) in
  let pass s =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore_exec s sql
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  ignore_exec s_ix sql;
  ignore_exec s_scan sql;
  let best = ref (infinity, infinity) in
  for _ = 1 to 5 do
    let ix = pass s_ix in
    let scan = pass s_scan in
    best := (min ix (fst !best), min scan (snd !best))
  done;
  !best

(* the read decision the statement takes on [s]: "probe" or "scan" *)
let e28_path s sql =
  let st = Engine.stats (System.engine s) in
  let scans = st.Engine.seq_scans in
  ignore_exec s sql;
  if st.Engine.seq_scans > scans then "scan" else "probe"

(* one row of an arm's table per statement, timed on both systems; a
   statement whose indexed/scan ratio [fails] joins the gate's
   failures *)
let e28_rows gate s_ix s_scan n ~what ~at ~fails statements =
  List.map
    (fun (stmt, sql) ->
      let ix_ns, scan_ns = e28_ns s_ix s_scan n sql in
      let r = ix_ns /. scan_ns in
      if fails r then
        gate := Printf.sprintf "%s at %s of %d rows: %.2fx the scan" stmt what n r :: !gate;
      [
        string_of_int n; at; stmt; e28_path s_ix sql;
        Printf.sprintf "%.0f ns" ix_ns; Printf.sprintf "%.0f ns" scan_ns; ratio ix_ns scan_ns;
      ])
    statements

let e28 () =
  print_header "E28" "index probes at storage speed: range and equality probes vs scan"
    "a probe spends at most max 1 (n / max 4 (log2 n)) and otherwise scans: it \
     never costs more than 1.5x the scan, and a range beats it at 1%";
  let gate = ref [] in
  let range_rows =
    List.concat_map
      (fun n ->
        let range index = e28_system ?index ~col:"k" n (fun i -> i * 7919 mod n) in
        let s_ix = range (Some " using ordered") and s_scan = range None in
        List.concat_map
          (fun sel ->
            let x = n - 1 - int_of_float (sel *. float_of_int n) in
            let what = Printf.sprintf "%g%%" (sel *. 100.) in
            e28_rows gate s_ix s_scan n ~what ~at:what
              ~fails:(fun r -> r > 1.5 || (sel = 0.01 && r >= 1.0))
              [
                ("count", Printf.sprintf "select count(*) from t where k > %d" x);
                ("ids", Printf.sprintf "select id from t where k > %d" x);
              ])
          e28_selectivities)
      e28_sizes
  in
  print_table [ "rows"; "selected"; "statement"; "path"; "indexed"; "scan"; "indexed/scan" ] range_rows;
  let eq_rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun m ->
            if m > n then []
            else
              let eq index = e28_system ?index ~col:"grp" n (fun i -> i mod (n / m)) in
              let s_ix = eq (Some "") and s_scan = eq None in
              e28_rows gate s_ix s_scan n
                ~what:(Printf.sprintf "%d hits per key" m)
                ~at:(string_of_int m) ~fails:(fun r -> r > 1.5)
                [
                  ("count", "select count(*) from t where grp = 0");
                  ("ids", "select id from t where grp = 0");
                ])
          e28_multiplicities)
      e28_sizes
  in
  print_table [ "rows"; "hits per key"; "statement"; "path"; "indexed"; "scan"; "indexed/scan" ] eq_rows;
  if tiny && !gate <> [] then begin
    List.iter (fun line -> print_endline ("E28 gate failed: " ^ line)) (List.rev !gate);
    exit 1
  end

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21); ("E25", e25);
    ("E27", e27); ("E28", e28);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> List.map String.uppercase_ascii names
    | _ -> List.map fst experiments
  in
  print_endline
    "sopr benchmark harness — experiments derived from the paper's claims\n\
     (the paper has no experimental tables; see EXPERIMENTS.md)";
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None -> Printf.printf "unknown experiment %s\n" id)
    requested
