(* Execution of data manipulation operations with their affected sets
   (paper Section 2.1):

   - insert: the affected set contains the handles of inserted tuples;
   - delete: the handles of the tuples removed (which after execution
     identify tuples of a previous database state);
   - update: one (handle, column) pair for every column assigned by the
     SET list of every selected tuple, whether or not the stored value
     changed;
   - select (Section 5.1 extension): the handles and columns read.

   Each operation runs against a snapshot of the state at its start:
   tuples are identified first, then changed, so a subquery in a
   predicate or SET expression never observes the operation's own
   partial effects. *)

open Relational

type affected =
  | A_insert of Handle.t list
  | A_delete of (Handle.t * Row.t) list
  | A_update of (Handle.t * string list * Row.t) list (* old rows *)
  | A_select of (string list * Handle.t list) list
      (* per base table read: the columns referenced, the tuples read *)

type op_result = {
  db : Database.t;
  affected : affected;
  result : Eval.relation option; (* rows produced, for select operations *)
}

(* Build the single-row environment binding a table's row under its
   table name, used to evaluate per-tuple predicates and SET
   expressions. *)
let row_env tbl row =
  [
    [
      {
        Eval.bind_name = Table.name tbl;
        bind_cols = Table.col_names tbl;
        bind_row = row;
      };
    ];
  ]

(* Victim selection: the rows of [tbl] satisfying [where], in handle
   order.  With access-path hooks installed, a sargable conjunct over
   an indexed column narrows the candidates by an index probe first;
   the full predicate is still applied to each candidate, so the
   victims are identical to the scan's. *)
let selected_handles ?cache ?access resolve tbl where =
  let keep row =
    match where with
    | None -> true
    | Some pred ->
      Eval.eval_predicate ?cache ?access resolve (row_env tbl row) pred
  in
  let scan () =
    Table.fold (fun h row acc -> if keep row then (h, row) :: acc else acc) tbl []
    |> List.rev
  in
  match access with
  | None -> scan ()
  | Some access -> (
    let name = Table.name tbl in
    let cols = Table.col_names tbl in
    match
      Eval.probe_table ?cache ~access resolve ~table:name ~bind_name:name ~cols
        where
    with
    | Some hit ->
      access.Eval.acc_note ~table:name
        (match hit.Eval.ph_kind with
        | `Eq -> `Index_probe
        | `Range -> `Range_probe);
      List.filter (fun (_, row) -> keep row) hit.Eval.ph_pairs
    | None ->
      access.Eval.acc_note ~table:name `Seq_scan;
      scan ())

let exec_insert ?cache ?access resolve db table columns source =
  let tbl = Database.table db table in
  let schema = Table.schema tbl in
  let position_row values =
    (* With an explicit column list, scatter values into schema
       positions; unspecified columns get their default or NULL. *)
    match columns with
    | None ->
      if List.length values <> Schema.arity schema then
        Errors.raise_error
          (Errors.Arity_error
             {
               table;
               expected = Schema.arity schema;
               got = List.length values;
             });
      Array.of_list values
    | Some cols ->
      if List.length cols <> List.length values then
        Errors.semantic "column list and value list have different lengths";
      let row =
        Array.map
          (fun c -> match c.Schema.default with Some v -> v | None -> Value.Null)
          schema.Schema.columns
      in
      List.iter2
        (fun col v -> row.(Schema.column_index schema col) <- v)
        cols values;
      row
  in
  let rows =
    match source with
    | `Values exprss ->
      List.map
        (fun exprs ->
          position_row
            (List.map (Eval.eval_expr_in ?cache ?access resolve []) exprs))
        exprss
    | `Select s ->
      let rel = Eval.eval_select ?cache ?access resolve s in
      List.map (fun row -> position_row (Array.to_list row)) rel.Eval.rows
  in
  let db, handles =
    List.fold_left
      (fun (db, hs) row ->
        let db, h = Database.insert db table row in
        (db, h :: hs))
      (db, []) rows
  in
  { db; affected = A_insert (List.rev handles); result = None }

let exec_delete ?cache ?access resolve db table where =
  let tbl = Database.table db table in
  let victims = selected_handles ?cache ?access resolve tbl where in
  let db =
    List.fold_left (fun db (h, _) -> Database.delete db h) db victims
  in
  { db; affected = A_delete victims; result = None }

let exec_update ?cache ?access resolve db table sets where =
  let tbl = Database.table db table in
  let schema = Table.schema tbl in
  let set_cols = List.map fst sets in
  List.iter (fun c -> ignore (Schema.column_index schema c)) set_cols;
  let victims = selected_handles ?cache ?access resolve tbl where in
  let updates =
    List.map
      (fun (h, old_row) ->
        let env = row_env tbl old_row in
        let new_row = Array.copy old_row in
        List.iter
          (fun (col, e) ->
            new_row.(Schema.column_index schema col) <-
              Eval.eval_expr_in ?cache ?access resolve env e)
          sets;
        (h, old_row, new_row))
      victims
  in
  let db =
    List.fold_left (fun db (h, _, new_row) -> Database.update db h new_row) db
      updates
  in
  {
    db;
    affected = A_update (List.map (fun (h, old, _) -> (h, set_cols, old)) updates);
    result = None;
  }

(* Which columns of base table [binding_name] a select references, for
   the column granularity of the Section 5.1 read set: those named under
   the binding or unqualified (an unqualified name is credited to every
   table that has the column), and all of them for a star, a star of
   the binding, or a select naming none of its columns
   ([select count( * ) from t]). *)
let referenced_columns (s : Ast.select) schema binding_name =
  let all = Schema.column_names schema in
  let cols = ref [] in
  let add c = if not (List.exists (String.equal c) !cols) then cols := c :: !cols in
  let rec walk_expr = function
    | Ast.Lit _ | Ast.Param _ -> ()
    | Ast.Col { qualifier = Some q; column } ->
      if String.equal q binding_name && Schema.has_column schema column then
        add column
    | Ast.Col { qualifier = None; column } ->
      if Schema.has_column schema column then add column
    | Ast.Binop (_, a, b)
    | Ast.Cmp (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Like (a, b) ->
      walk_expr a;
      walk_expr b
    | Ast.Neg a | Ast.Not a | Ast.Is_null a | Ast.Is_not_null a -> walk_expr a
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      walk_expr a;
      List.iter walk_expr es
    | Ast.In_select (a, sub) | Ast.Not_in_select (a, sub) ->
      walk_expr a;
      walk_select sub
    | Ast.Exists sub | Ast.Scalar_select sub -> walk_select sub
    | Ast.Between (a, b, c) ->
      walk_expr a;
      walk_expr b;
      walk_expr c
    | Ast.Agg (_, Some a) -> walk_expr a
    | Ast.Agg (_, None) -> ()
    | Ast.Fn (_, args) -> List.iter walk_expr args
    | Ast.Case (branches, else_) ->
      List.iter
        (fun (c, v) ->
          walk_expr c;
          walk_expr v)
        branches;
      Option.iter walk_expr else_
  and walk_select (sub : Ast.select) =
    List.iter
      (function
        | Ast.Star -> cols := List.rev all
        | Ast.Table_star t -> if String.equal t binding_name then cols := List.rev all
        | Ast.Proj (e, _) -> walk_expr e)
      sub.Ast.projections;
    Option.iter walk_expr sub.Ast.where;
    List.iter walk_expr sub.Ast.group_by;
    Option.iter walk_expr sub.Ast.having;
    List.iter (fun (e, _) -> walk_expr e) sub.Ast.order_by
  in
  walk_select s;
  if !cols = [] then all else List.rev !cols

(* The Section 5.1 read set of a select, one entry per base table read.
   [precise] is the executor's report of the tuples it retrieved: the
   rows of a single-base-table select that passed WHERE (see
   [Eval.eval_select_read]).  Without it, every tuple of each base table
   in a top-level from-list counts as read (documented substitution —
   the paper leaves this granularity open). *)
let select_read_set db (s : Ast.select) precise =
  let entry t alias handles_of =
    let tbl = Database.table db t in
    let binding = Option.value alias ~default:t in
    (referenced_columns s (Table.schema tbl) binding, handles_of tbl)
  in
  match precise, s.Ast.from with
  | Some handles, [ { Ast.source = Ast.Base t; alias } ] ->
    [ entry t alias (fun _ -> handles) ]
  | _ ->
    let every tbl = List.rev (Table.fold (fun h _ acc -> h :: acc) tbl []) in
    List.filter_map
      (fun item ->
        match item.Ast.source with
        | Ast.Base t -> Some (entry t item.Ast.alias every)
        | Ast.Transition _ | Ast.Derived _ -> None)
      s.Ast.from

(* The read set comes from the executor's own probes and scans, which
   need access hooks to read base tables in place: without the caller's,
   a tracked select reads through [db]'s. *)
let tracking_access access db =
  match access with Some a -> a | None -> Eval.db_access db

let exec_select ~track_selects ?cache ?access resolve db s =
  if not track_selects then
    let rel = Eval.eval_select ?cache ?access resolve s in
    { db; affected = A_select []; result = Some rel }
  else
    let rel, precise =
      Eval.eval_select_read ?cache ~access:(tracking_access access db) resolve s
    in
    { db; affected = A_select (select_read_set db s precise); result = Some rel }

(* ------------------------------------------------------------------ *)
(* Compiled operations.

   When [Compile.enabled] is set, an operation is lowered once — the
   WHERE predicate, SET expressions and embedded selects become
   positional closures, and the victim-selection probe decision is
   made statically — and then run.  The rules engine caches the
   compiled form of each rule's action block across firings (keyed on
   a DDL generation counter), so cascades re-enter closures instead of
   re-walking the AST.

   Compilation is total: an operation the compiler cannot resolve
   against the catalog (unknown victim table, unknown SET column)
   compiles to a fallback that runs the interpreted body, reproducing
   the interpreter's error at the interpreter's point of raising. *)

type cop =
  | C_insert of {
      table : string;
      columns : string list option;
      csource :
        [ `Values of Compile.cexpr list list | `Select of Compile.cselect ];
      nslots : int;
    }
  | C_delete of {
      table : string;
      cwhere : Compile.cexpr option;
      cprobe : Compile.cprobe option;
      nslots : int;
    }
  | C_update of {
      table : string;
      csets : (int * Compile.cexpr) list; (* schema position, value *)
      set_cols : string list;
      cwhere : Compile.cexpr option;
      cprobe : Compile.cprobe option;
      nslots : int;
    }
  | C_select of { s : Ast.select; csel : Compile.cselect; nslots : int }
  | C_fallback of Ast.op

let compile_op db (op : Ast.op) : cop =
  match op with
  | Ast.Insert { table; columns; source } ->
    (* the interpreter resolves the target table before evaluating the
       source; compilation of the source needs no catalog knowledge
       (VALUES expressions see an empty environment), so the unknown-
       table error stays a run-time one *)
    let ctx = Compile.make db in
    let csource =
      match source with
      | `Values exprss ->
        `Values
          (List.map
             (List.map (fun e -> Compile.compile_expr ctx ~shape:[] e))
             exprss)
      | `Select s -> `Select (Compile.compile_select ctx s)
    in
    C_insert { table; columns; csource; nslots = Compile.slot_count ctx }
  | Ast.Delete { table; where } ->
    if not (Database.has_table db table) then C_fallback op
    else begin
      let ctx = Compile.make db in
      let cols = Table.col_names (Database.table db table) in
      let frame = [ (table, cols) ] in
      let cwhere =
        Option.map (Compile.compile_expr ctx ~shape:[ frame ]) where
      in
      let cprobe = Compile.compile_probe ctx ~frame ~target:table ~table where in
      C_delete { table; cwhere; cprobe; nslots = Compile.slot_count ctx }
    end
  | Ast.Update { table; sets; where } ->
    if not (Database.has_table db table) then C_fallback op
    else begin
      let schema = Database.schema db table in
      if
        not
          (List.for_all (fun (c, _) -> Schema.has_column schema c) sets)
      then
        (* unknown SET column: the interpreted body raises the exact
           error at the exact point (after resolving the table, before
           victim selection) *)
        C_fallback op
      else begin
        let ctx = Compile.make db in
        let cols = Table.col_names (Database.table db table) in
        let frame = [ (table, cols) ] in
        let csets =
          List.map
            (fun (c, e) ->
              ( Schema.column_index schema c,
                Compile.compile_expr ctx ~shape:[ frame ] e ))
            sets
        in
        let cwhere =
          Option.map (Compile.compile_expr ctx ~shape:[ frame ]) where
        in
        let cprobe =
          Compile.compile_probe ctx ~frame ~target:table ~table where
        in
        C_update
          {
            table;
            csets;
            set_cols = List.map fst sets;
            cwhere;
            cprobe;
            nslots = Compile.slot_count ctx;
          }
      end
    end
  | Ast.Select_op s ->
    let ctx = Compile.make db in
    let csel = Compile.compile_select ctx s in
    C_select { s; csel; nslots = Compile.slot_count ctx }

(* Compiled victim selection: same shape as [selected_handles], with
   the probe decision already made. *)
let selected_handles_c rt ?access tbl cwhere cprobe =
  let keep row =
    match cwhere with
    | None -> true
    | Some ce -> Compile.cexpr_holds rt ce [| [| row |] |]
  in
  let scan () =
    Table.fold (fun h row acc -> if keep row then (h, row) :: acc else acc) tbl []
    |> List.rev
  in
  match access with
  | None -> scan ()
  | Some access -> (
    let name = Table.name tbl in
    match
      match cprobe with
      | None -> None
      | Some cp -> Compile.run_probe rt access cp
    with
    | Some hit ->
      access.Eval.acc_note ~table:name
        (match hit.Eval.ph_kind with
        | `Eq -> `Index_probe
        | `Range -> `Range_probe);
      List.filter (fun (_, row) -> keep row) hit.Eval.ph_pairs
    | None ->
      access.Eval.acc_note ~table:name `Seq_scan;
      scan ())

let run_cop ~track_selects ~optimize ?access ?params resolve db (cop : cop) :
    op_result =
  let rt nslots =
    Compile.make_rt ?access ?params ~use_cache:optimize ~slots:nslots resolve
  in
  match cop with
  | C_fallback op -> begin
    (* the interpreter binds EXECUTE arguments by substitution, so a
       parameterized operation that fell back still runs *)
    let op =
      match params with
      | None | Some [||] -> op
      | Some args -> Ast.subst_params_op args op
    in
    let cache = if optimize then Some (Eval.make_cache ()) else None in
    match op with
    | Ast.Insert { table; columns; source } ->
      exec_insert ?cache ?access resolve db table columns source
    | Ast.Delete { table; where } ->
      exec_delete ?cache ?access resolve db table where
    | Ast.Update { table; sets; where } ->
      exec_update ?cache ?access resolve db table sets where
    | Ast.Select_op s ->
      exec_select ~track_selects ?cache ?access resolve db s
  end
  | C_insert { table; columns; csource; nslots } ->
    let tbl = Database.table db table in
    let schema = Table.schema tbl in
    let position_row values =
      match columns with
      | None ->
        if List.length values <> Schema.arity schema then
          Errors.raise_error
            (Errors.Arity_error
               {
                 table;
                 expected = Schema.arity schema;
                 got = List.length values;
               });
        Array.of_list values
      | Some cols ->
        if List.length cols <> List.length values then
          Errors.semantic "column list and value list have different lengths";
        let row =
          Array.map
            (fun c ->
              match c.Schema.default with Some v -> v | None -> Value.Null)
            schema.Schema.columns
        in
        List.iter2
          (fun col v -> row.(Schema.column_index schema col) <- v)
          cols values;
        row
    in
    let rt = rt nslots in
    let rows =
      match csource with
      | `Values cexprss ->
        List.map
          (fun cexprs ->
            position_row
              (List.map (fun ce -> Compile.eval_cexpr rt ce [||]) cexprs))
          cexprss
      | `Select cs ->
        (* same fault site as the interpreter's embedded eval_select *)
        Fault.hit Fault.Query_eval;
        let rel = Compile.run_select rt cs in
        List.map (fun row -> position_row (Array.to_list row)) rel.Eval.rows
    in
    let db, handles =
      List.fold_left
        (fun (db, hs) row ->
          let db, h = Database.insert db table row in
          (db, h :: hs))
        (db, []) rows
    in
    { db; affected = A_insert (List.rev handles); result = None }
  | C_delete { table; cwhere; cprobe; nslots } ->
    let tbl = Database.table db table in
    let victims = selected_handles_c (rt nslots) ?access tbl cwhere cprobe in
    let db =
      List.fold_left (fun db (h, _) -> Database.delete db h) db victims
    in
    { db; affected = A_delete victims; result = None }
  | C_update { table; csets; set_cols; cwhere; cprobe; nslots } ->
    let tbl = Database.table db table in
    let rt = rt nslots in
    let victims = selected_handles_c rt ?access tbl cwhere cprobe in
    let updates =
      List.map
        (fun (h, old_row) ->
          let env = [| [| old_row |] |] in
          let new_row = Array.copy old_row in
          List.iter
            (fun (ix, ce) -> new_row.(ix) <- Compile.eval_cexpr rt ce env)
            csets;
          (h, old_row, new_row))
        victims
    in
    let db =
      List.fold_left (fun db (h, _, new_row) -> Database.update db h new_row)
        db updates
    in
    {
      db;
      affected =
        A_update (List.map (fun (h, old, _) -> (h, set_cols, old)) updates);
      result = None;
    }
  | C_select { s; csel; nslots } ->
    Fault.hit Fault.Query_eval;
    if not track_selects then
      let rel = Compile.run_select (rt nslots) csel in
      { db; affected = A_select []; result = Some rel }
    else
      let rt =
        Compile.make_rt ~access:(tracking_access access db) ?params
          ~use_cache:optimize ~slots:nslots resolve
      in
      let rel, precise = Compile.run_select_read rt csel in
      { db; affected = A_select (select_read_set db s precise); result = Some rel }

let exec_cop ?(track_selects = false) ?(optimize = true) ?access ?params
    resolve db cop : op_result =
  Fault.hit Fault.Dml_op;
  run_cop ~track_selects ~optimize ?access ?params resolve db cop

let exec_op ?(track_selects = false) ?(optimize = true) ?access resolve db
    (op : Ast.op) : op_result =
  (* exception-safety injection site: an operation may fail before
     touching the database, and the caller must treat the containing
     block as indivisible either way *)
  Fault.hit Fault.Dml_op;
  if !Compile.enabled then
    run_cop ~track_selects ~optimize ?access resolve db (compile_op db op)
  else begin
    (* one uncorrelated-subquery cache per operation: the database
       state is fixed while the operation identifies its tuples *)
    let cache = if optimize then Some (Eval.make_cache ()) else None in
    match op with
    | Ast.Insert { table; columns; source } ->
      exec_insert ?cache ?access resolve db table columns source
    | Ast.Delete { table; where } ->
      exec_delete ?cache ?access resolve db table where
    | Ast.Update { table; sets; where } ->
      exec_update ?cache ?access resolve db table sets where
    | Ast.Select_op s -> exec_select ~track_selects ?cache ?access resolve db s
  end
