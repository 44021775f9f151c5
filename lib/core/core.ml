(* The public facade of the system.

   [System] executes SQL text — DDL, data manipulation, rule
   definition, transaction control — against a set-oriented production
   rule engine, following the paper's model: every externally-generated
   operation block is a transaction, and rules are processed just
   before commit (or at explicit PROCESS RULES triggering points).

   The lower layers are re-exported for programmatic use:
   {!Relational} types, the {!Sqlf} front-end and the {!Rules}
   engine. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Handle = Relational.Handle
module Row = Relational.Row
module Table = Relational.Table
module Database = Relational.Database
module Index = Relational.Index
module Errors = Relational.Errors
module Fault = Relational.Fault
module Ast = Sqlf.Ast
module Parser = Sqlf.Parser
module Pretty = Sqlf.Pretty
module Eval = Sqlf.Eval
module Effect = Rules.Effect
module Engine = Rules.Engine
module Instance_engine = Rules.Instance_engine
module Analysis = Rules.Analysis
module Constraints = Rules.Constraints
module Procedures = Rules.Procedures
module Selection = Rules.Selection
module Priority = Rules.Priority

module System = struct
  type t = {
    engine : Engine.t;
    mutable on_ddl : (string -> unit) option;
        (* durability seam: called with a catalog statement's concrete
           syntax before the statement is applied (write-ahead), so a
           WAL can replay the catalog by re-executing the text *)
  }

  type exec_result =
    | Msg of string
    | Relation of Eval.relation
    | Outcome of Engine.outcome

  let create ?config () =
    { engine = Engine.create ?config Database.empty; on_ddl = None }

  let of_engine engine = { engine; on_ddl = None }
  let engine t = t.engine
  let database t = Engine.database t.engine
  let set_ddl_hook t hook = t.on_ddl <- hook

  (* Catalog statements are logged write-ahead: the hook sees the text
     before the statement runs, so a statement that then fails
     validation leaves a record whose replay deterministically fails
     the same way (recovery skips it).  The alternative — logging after
     success — would lose a statement that succeeded just before a
     crash between apply and append. *)
  let is_ddl (stmt : Ast.statement) =
    match stmt with
    | Ast.Stmt_create_table _ | Ast.Stmt_drop_table _ | Ast.Stmt_create_rule _
    | Ast.Stmt_drop_rule _ | Ast.Stmt_priority _ | Ast.Stmt_activate _
    | Ast.Stmt_deactivate _ | Ast.Stmt_create_assertion _
    | Ast.Stmt_drop_assertion _ | Ast.Stmt_create_index _
    | Ast.Stmt_drop_index _ ->
      true
    | Ast.Stmt_begin | Ast.Stmt_commit | Ast.Stmt_rollback
    | Ast.Stmt_process_rules | Ast.Stmt_op _ | Ast.Stmt_show_tables
    | Ast.Stmt_show_rules | Ast.Stmt_explain _ | Ast.Stmt_describe _
    (* prepared-statement management is session state, not catalog
       state: never logged, never replayed *)
    | Ast.Stmt_prepare _ | Ast.Stmt_execute _ | Ast.Stmt_deallocate _ ->
      false

  (* Replay of a logged statement always happens outside a transaction,
     so only statements whose outcome is independent of transaction
     state may be logged.  Catalog-state-dependent failures (duplicate
     table, unknown rule) replay deterministically; the
     rejected-inside-a-transaction failure of table/index DDL does not —
     replay would succeed where the original failed — so those
     statements are not logged while a transaction is open (the engine
     is about to reject them anyway). *)
  let txn_sensitive_ddl (stmt : Ast.statement) =
    match stmt with
    | Ast.Stmt_create_table _ | Ast.Stmt_drop_table _ | Ast.Stmt_create_index _
    | Ast.Stmt_drop_index _ ->
      true
    | _ -> false

  let register_procedure t name fn =
    Engine.register_procedure t.engine name fn

  (* ---- DDL ---- *)

  let schema_of_create_table (ct : Ast.create_table) =
    let columns =
      List.map
        (fun cd ->
          let not_null =
            List.exists
              (fun c ->
                match c with
                | Ast.C_not_null | Ast.C_primary_key -> true
                | Ast.C_unique | Ast.C_default _ | Ast.C_references _
                | Ast.C_check _ -> false)
              cd.Ast.cd_constraints
          in
          let default =
            List.find_map
              (function Ast.C_default v -> Some v | _ -> None)
              cd.Ast.cd_constraints
          in
          Schema.column ~not_null ?default cd.Ast.cd_name cd.Ast.cd_type)
        ct.Ast.ct_columns
    in
    Schema.table ct.Ast.ct_name columns

  let install_constraints t (ct : Ast.create_table) =
    let constraints = Constraints.of_create_table ct in
    List.concat_map
      (fun c ->
        let defs = Constraints.compile c in
        List.iter (fun def -> ignore (Engine.create_rule t.engine def)) defs;
        List.iter
          (fun (high, low) -> Engine.declare_priority t.engine ~high ~low)
          (Constraints.priority_pairs c);
        List.map (fun d -> d.Ast.rule_name) defs)
      constraints

  (* A UNIQUE / PRIMARY KEY rule checks only the rows that share a key
     value with its transition's changes, which is exact only while the
     rule has been active since its table was created: duplicates let
     in while it was inactive would go unseen once it is back on. *)
  let refuse_unique_rule eng name =
    let db = Engine.database eng in
    let not_null table column =
      let schema = Database.schema db table in
      schema.Schema.columns.(Schema.column_index schema column).Schema.not_null
    in
    match Engine.find_rule eng name with
    | Some r when Constraints.is_unique_rule ~not_null r.Rules.Rule.def ->
      Errors.semantic
        "rule %s enforces a UNIQUE / PRIMARY KEY constraint and cannot be deactivated"
        name
    | Some _ | None -> ()

  let create_table t ct =
    Engine.create_table t.engine (schema_of_create_table ct);
    let rules = install_constraints t ct in
    if rules = [] then Msg (Printf.sprintf "table %s created" ct.Ast.ct_name)
    else
      Msg
        (Printf.sprintf "table %s created (constraint rules: %s)" ct.Ast.ct_name
           (String.concat ", " rules))

  (* ---- statement dispatch ---- *)

  (* Run a DML plan through the standard routing: a bare
     select outside a transaction is pure retrieval; anything inside a
     transaction extends it; anything else is its own transaction with
     rule processing.  [op] is inspected only for its shape — execution
     enters [cop]. *)
  let run_cop eng ?params (op : Ast.op) cop : exec_result =
    match op with
    | Ast.Select_op _ when not (Engine.in_transaction eng) ->
      Relation (Engine.query_cop eng ?params cop)
    | _ ->
      if Engine.in_transaction eng then begin
        match Engine.submit_cops eng ?params [ cop ] with
        | [ rel ] -> Relation rel
        | _ -> Msg "ok"
      end
      else begin
        let outcome, results = Engine.execute_block_cops eng ?params [ cop ] in
        match outcome, results with
        | Engine.Committed, [ rel ] -> Relation rel
        | outcome, _ -> Outcome outcome
      end

  let exec_statement t (stmt : Ast.statement) : exec_result =
    let eng = t.engine in
    (match t.on_ddl with
    | Some hook
      when is_ddl stmt
           && not (Engine.in_transaction eng && txn_sensitive_ddl stmt) ->
      hook (Pretty.statement_str stmt)
    | _ -> ());
    match stmt with
    | Ast.Stmt_create_table ct -> create_table t ct
    | Ast.Stmt_drop_table name ->
      Engine.drop_table eng name;
      Msg (Printf.sprintf "table %s dropped" name)
    | Ast.Stmt_create_rule def ->
      ignore (Engine.create_rule eng def);
      Msg (Printf.sprintf "rule %s created" def.Ast.rule_name)
    | Ast.Stmt_drop_rule name ->
      Engine.drop_rule eng name;
      Msg (Printf.sprintf "rule %s dropped" name)
    | Ast.Stmt_priority (high, low) ->
      Engine.declare_priority eng ~high ~low;
      Msg (Printf.sprintf "priority %s before %s" high low)
    | Ast.Stmt_activate name ->
      Engine.set_rule_active eng name true;
      Msg (Printf.sprintf "rule %s activated" name)
    | Ast.Stmt_deactivate name ->
      refuse_unique_rule eng name;
      Engine.set_rule_active eng name false;
      Msg (Printf.sprintf "rule %s deactivated" name)
    | Ast.Stmt_begin ->
      Engine.begin_txn eng;
      Msg "transaction started"
    | Ast.Stmt_commit -> Outcome (Engine.commit eng)
    | Ast.Stmt_rollback ->
      Engine.rollback_txn eng;
      Outcome Engine.Rolled_back
    | Ast.Stmt_process_rules -> Outcome (Engine.process_rules eng)
    | Ast.Stmt_create_assertion (name, predicate) ->
      let c = Constraints.Assertion { assertion_name = name; predicate } in
      List.iter
        (fun def -> ignore (Engine.create_rule eng def))
        (Constraints.compile c);
      Msg (Printf.sprintf "assertion %s created (rule %s)" name (Constraints.name_of c))
    | Ast.Stmt_drop_assertion name ->
      Engine.drop_rule eng (Constraints.assertion_rule_name name);
      Msg (Printf.sprintf "assertion %s dropped" name)
    | Ast.Stmt_create_index { ix_name; ix_table; ix_column; ix_kind } ->
      Engine.create_index eng ~ix_name ~table:ix_table ~column:ix_column
        ~kind:ix_kind;
      Msg
        (Printf.sprintf "%s index %s created on %s (%s)"
           (Index.kind_name ix_kind) ix_name ix_table ix_column)
    | Ast.Stmt_drop_index name ->
      Engine.drop_index eng name;
      Msg (Printf.sprintf "index %s dropped" name)
    | Ast.Stmt_op op ->
      (* the plan comes from the statement cache, so a repeated
         statement re-runs its plan without recompiling *)
      run_cop eng op (Engine.cached_cop eng op)
    | Ast.Stmt_prepare (name, op) ->
      Engine.prepare (Engine.statements eng) ~name op;
      Msg (Printf.sprintf "prepared %s" name)
    | Ast.Stmt_execute (name, args) ->
      let p = Engine.find_prepared (Engine.statements eng) name in
      let params = Engine.bind_params p args in
      run_cop eng ~params (Engine.prepared_op p) (Engine.prepared_cop eng p)
    | Ast.Stmt_deallocate target ->
      Engine.deallocate (Engine.statements eng) target;
      Msg
        (match target with
        | Some name -> Printf.sprintf "deallocated %s" name
        | None -> "deallocated all")
    | Ast.Stmt_show_tables ->
      let names = Database.table_names (Engine.database eng) in
      Relation
        {
          Eval.rel_name = "tables";
          cols = [| "table_name" |];
          rows = List.map (fun n -> [| Value.Str n |]) names;
        }
    | Ast.Stmt_show_rules ->
      let text =
        String.concat "\n\n"
          (List.map (fun r -> Fmt.str "%a" Rules.Rule.pp r) (Engine.rules eng))
      in
      Msg (if text = "" then "(no rules)" else text)
    | Ast.Stmt_explain (Ast.Explain_op op) ->
      let plans = Engine.explain_op eng op in
      let header = Printf.sprintf "explain %s" (Pretty.op_str op) in
      let body =
        match plans with
        | [] -> [ "  (no table access)" ]
        | plans ->
          List.map (fun p -> "  " ^ Eval.describe_source_plan p) plans
      in
      (* what executing this statement would find in the statement
         cache right now — a non-mutating probe *)
      let cache_line =
        Printf.sprintf "  statement cache: %s"
          (match Engine.stmt_cache_lookup eng op with
          | `Hit -> "hit"
          | `Stale -> "stale"
          | `Miss -> "miss")
      in
      Msg (String.concat "\n" ((header :: body) @ [ cache_line ]))
    | Ast.Stmt_explain (Ast.Explain_rule name) ->
      let plans = Engine.explain_rule eng name in
      let keys = Engine.rule_index_keys eng name in
      let header =
        Printf.sprintf "explain rule %s (condition under empty transition tables)"
          name
      in
      let keys_line =
        Printf.sprintf "  index keys: %s" (String.concat ", " keys)
      in
      let body =
        match plans with
        | [] -> [ "  (no condition)" ]
        | plans ->
          List.concat_map
            (fun (sql, sources) ->
              Printf.sprintf "  condition select: %s" sql
              :: List.map
                   (fun p -> "    " ^ Eval.describe_source_plan p)
                   sources)
            plans
      in
      Msg (String.concat "\n" (header :: keys_line :: body))
    | Ast.Stmt_describe name ->
      let schema = Database.schema (Engine.database eng) name in
      Relation
        {
          Eval.rel_name = name;
          cols = [| "column"; "type"; "not_null" |];
          rows =
            Array.to_list
              (Array.map
                 (fun c ->
                   [|
                     Value.Str c.Schema.col_name;
                     Value.Str (Schema.col_type_name c.Schema.col_type);
                     Value.Bool c.Schema.not_null;
                   |])
                 schema.Schema.columns);
        }

  (* Run a script of ';'-separated statements through [route], one at
     a time, with [stmts]' shape memo.  When the memo knows every
     statement's shape, each is routed as its memoized operation with
     the script's literals bound, without parsing.  Otherwise the script
     is parsed whole before anything runs (a syntax error anywhere runs
     nothing; a lexical error is left to the parser, which reports the
     first error, lexical or not) and each statement memoized as it runs. *)
  let exec_with route stmts sql =
    let parsed () = List.map (fun s -> route (`Statement s)) (Parser.parse_script sql) in
    match Sqlf.Lexer.shape sql with
    | exception Errors.Error _ -> parsed ()
    | { Sqlf.Lexer.segments; literals } ->
      let run seg shaped = route (Engine.bind_shape shaped seg literals) in
      let found = List.map (fun seg -> Engine.find_shape stmts seg literals) segments in
      if List.for_all Option.is_some found then
        List.map2 (fun seg shaped -> run seg (Option.get shaped)) segments found
      else
        let traced = Parser.parse_script_traced sql in
        if List.compare_lengths traced segments <> 0 then
          (* a statement spans several segments (a rule action block) *)
          List.map (fun (stmt, _) -> route (`Statement stmt)) traced
        else
          List.map2
            (fun seg (stmt, lits) ->
              match Engine.record_shape stmts seg literals stmt lits with
              | Some shaped -> run seg shaped
              | None -> route (`Statement stmt))
            segments traced

  let exec_bound t (b : Engine.bound) =
    run_cop t.engine ~params:b.bd_params b.bd_op (Engine.bound_cop t.engine b)

  let exec t sql =
    exec_with
      (function `Statement stmt -> exec_statement t stmt | `Op b -> exec_bound t b)
      (Engine.statements t.engine) sql

  let exec_one t sql = exec_statement t (Parser.parse_statement_string sql)

  (* Run a query and return headers and rows. *)
  let query t sql =
    let s = Parser.parse_select_string sql in
    let rel = Engine.query t.engine s in
    (Array.to_list rel.Eval.cols, rel.Eval.rows)

  (* Convenience: a single-column, single-row query result as a value. *)
  let query_value t sql =
    match query t sql with
    | _, [ [| v |] ] -> v
    | _, [] -> Value.Null
    | _ -> Errors.semantic "query_value expects a single-cell result"

  (* Execute one externally-generated operation block (one transaction)
     given as SQL text. *)
  let exec_block t sql =
    let stmts = Parser.parse_script sql in
    let ops =
      List.map
        (function
          | Ast.Stmt_op op -> op
          | _ -> Errors.semantic "exec_block accepts data manipulation only")
        stmts
    in
    Engine.execute_block t.engine ops

  let analyze t =
    Analysis.analyze
      ~priorities:(Engine.priorities t.engine)
      (Engine.rules t.engine)

  (* ---- result rendering ---- *)

  let render_relation (rel : Eval.relation) =
    let cols = Array.to_list rel.Eval.cols in
    let rows =
      List.map
        (fun r -> Array.to_list (Array.map Value.to_display r))
        rel.Eval.rows
    in
    let widths =
      List.fold_left
        (fun widths row ->
          List.map2 (fun w cell -> max w (String.length cell)) widths row)
        (List.map String.length cols)
        rows
    in
    let pad s w = s ^ String.make (w - String.length s) ' ' in
    let line cells = String.concat " | " (List.map2 pad cells widths) in
    let sep = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
    let body = List.map line rows in
    String.concat "\n"
      ((line cols :: sep :: body)
      @ [
          Printf.sprintf "(%d row%s)" (List.length rows)
            (if List.length rows = 1 then "" else "s");
        ])

  let render_result = function
    | Msg m -> m
    | Outcome Engine.Committed -> "committed"
    | Outcome Engine.Rolled_back -> "rolled back"
    | Relation rel -> render_relation rel
end
