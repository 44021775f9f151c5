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

(* Which columns of base table [binding_name] a select references, for
   the column granularity of the Section 5.1 read set: those named under
   the binding or unqualified (an unqualified name is credited to every
   table that has the column), and all of them for a star, a star of
   the binding, or a select naming none of its columns
   ([select count( * ) from t]).  Nested subqueries count in full; the
   select's own derived FROM items and compound arms do not, since each
   arm is a read of its own. *)
let referenced_columns (s : Ast.select) schema binding_name =
  let all = Schema.column_names schema in
  let cols = ref [] in
  let add c = if not (List.exists (String.equal c) !cols) then cols := c :: !cols in
  let stars (sub : Ast.select) =
    List.iter
      (function
        | Ast.Star -> cols := List.rev all
        | Ast.Table_star t -> if String.equal t binding_name then cols := List.rev all
        | Ast.Proj _ -> ())
      sub.Ast.projections
  in
  let rec expr () = function
    | Ast.Col { qualifier = Some q; column } ->
      if String.equal q binding_name && Schema.has_column schema column then
        add column
    | Ast.Col { qualifier = None; column } ->
      if Schema.has_column schema column then add column
    | e -> Ast.fold_expr ~expr ~select () e
  and select () sub =
    stars sub;
    Ast.fold_select ~expr ~select () sub
  in
  stars s;
  Ast.fold_select ~expr ~select:(fun () _ -> ()) () s;
  if !cols = [] then all else List.rev !cols

(* The Section 5.1 read set of a select, one entry per base table read.
   [precise] is the executor's report of the tuples it retrieved: the
   rows of a single-base-table select that passed WHERE (see
   [Compile.run_select_read]).  Without it, every tuple of each base table
   in a top-level from-list of any compound arm counts as read, with
   the columns that arm references (documented substitution — the paper
   leaves this granularity open). *)
let select_read_set db (s : Ast.select) precise =
  let entry arm t alias handles_of =
    let tbl = Database.table db t in
    let binding = Option.value alias ~default:t in
    (referenced_columns arm (Table.schema tbl) binding, handles_of tbl)
  in
  match precise, s.Ast.from with
  | Some read, [ { Ast.source = Ast.Base t; alias } ] ->
    [ entry s t alias (fun _ -> List.map fst read) ]
  | _ ->
    let every tbl = List.rev (Table.fold (fun h _ acc -> h :: acc) tbl []) in
    List.concat_map
      (fun (arm : Ast.select) ->
        List.filter_map
          (fun item ->
            match item.Ast.source with
            | Ast.Base t -> Some (entry arm t item.Ast.alias every)
            | Ast.Transition _ | Ast.Derived _ -> None)
          arm.Ast.from)
      (s :: List.map snd s.Ast.compounds)

(* ------------------------------------------------------------------ *)
(* Compiled operations.

   An operation is lowered once — the SET expressions and embedded
   selects become positional closures, and a DELETE's or UPDATE's
   victims a select core over the victim table ([Compile.compile_victims]),
   read by probe or scan as any select is — and then run.
   The rules engine caches the compiled form of each rule's action
   block across firings (keyed on a DDL generation counter), so
   cascades re-enter closures instead of re-walking the AST.

   Compilation is total: an operation naming an unknown victim table
   compiles to a plan raising that error when run, and an unknown SET
   column to an UPDATE raising it after the table is resolved and
   before any victim is selected. *)

type cop =
  | C_insert of {
      table : string;
      columns : string list option;
      csource :
        [ `Values of Compile.cexpr list list | `Select of Compile.cselect ];
      nslots : int;
    }
  | C_delete of { victims : Compile.cselect; nslots : int }
  | C_update of {
      table : string;
      csets : (int * Compile.cexpr) list; (* schema position, value *)
      set_cols : string list;
      set_err : Errors.t option; (* an unknown SET column *)
      victims : Compile.cselect;
      nslots : int;
    }
  | C_select of { s : Ast.select; csel : Compile.cselect; nslots : int }
  | C_error of Errors.t (* an unknown victim table *)
  | C_bound of cop * Value.t array

let bind cop args = C_bound (cop, args)

let compile_op ?param_kinds db (op : Ast.op) : cop =
  match op with
  | Ast.Insert { table; columns; source } ->
    (* the target table is resolved when the plan runs, before the
       source is evaluated; compiling the source needs no catalog
       knowledge (VALUES expressions see an empty environment) *)
    let ctx = Compile.make ?param_kinds db in
    let csource =
      match source with
      | `Values exprss ->
        `Values
          (List.map
             (List.map (Compile.compile_expr ctx))
             exprss)
      | `Select s -> `Select (Compile.compile_select ctx s)
    in
    C_insert { table; columns; csource; nslots = Compile.slot_count ctx }
  | Ast.Delete { table; where } ->
    if not (Database.has_table db table) then C_error (Errors.Unknown_table table)
    else begin
      let ctx = Compile.make ?param_kinds db in
      let victims = Compile.compile_victims ctx ~table where in
      C_delete { victims; nslots = Compile.slot_count ctx }
    end
  | Ast.Update { table; sets; where } ->
    if not (Database.has_table db table) then C_error (Errors.Unknown_table table)
    else begin
      let schema = Database.schema db table in
      let set_err =
        List.find_map
          (fun (c, _) ->
            if Schema.has_column schema c then None
            else Some (Errors.Unknown_column { table = Some table; column = c }))
          sets
      in
      let ctx = Compile.make ?param_kinds db in
      let csets =
        List.filter_map
          (fun (c, e) ->
            Option.map
              (fun ix -> (ix, Compile.compile_expr ~table ctx e))
              (Schema.find_column schema c))
          sets
      in
      let victims = Compile.compile_victims ctx ~table where in
      C_update
        {
          table;
          csets;
          set_cols = List.map fst sets;
          set_err;
          victims;
          nslots = Compile.slot_count ctx;
        }
    end
  | Ast.Select_op s ->
    let ctx = Compile.make ?param_kinds db in
    let csel = Compile.compile_select ctx s in
    C_select { s; csel; nslots = Compile.slot_count ctx }

(* The victims of a DELETE or UPDATE, the rows of its victim select. *)
let victims_of rt cv = Option.value (snd (Compile.run_select_read rt cv)) ~default:[]

let rec run_cop ~track_selects ~note ?params resolve db (cop : cop) : op_result =
  let rt nslots = Compile.make_rt ~db ~note ?params ~slots:nslots resolve in
  match cop with
  | C_bound (cop, args) -> run_cop ~track_selects ~note ~params:args resolve db cop
  | C_error e -> Errors.raise_error e
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
        (* the query fault site, as for a top-level select *)
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
  | C_delete { victims; nslots; _ } ->
    let victims = victims_of (rt nslots) victims in
    let db =
      List.fold_left (fun db (h, _) -> Database.delete db h) db victims
    in
    { db; affected = A_delete victims; result = None }
  | C_update { table; csets; set_cols; set_err; victims; nslots } ->
    (* the table is resolved before an unknown SET column is reported *)
    ignore (Database.table db table);
    Option.iter Errors.raise_error set_err;
    let rt = rt nslots in
    let victims = victims_of rt victims in
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
      let rel, precise = Compile.run_select_read (rt nslots) csel in
      { db; affected = A_select (select_read_set db s precise); result = Some rel }

(* EXPLAIN: the access decisions running [cop] over [db] would take — a
   select's plan-only run (INSERT ... SELECT plans its select; INSERT
   ... VALUES reads no table; a DELETE's or UPDATE's victims are a
   select over the victim table, bound under its own name).  No read
   decision is noted. *)
let rec explain ?params resolve db cop : Eval.source_plan list =
  let rt nslots = Compile.make_rt ~db ?params ~slots:nslots resolve in
  match cop with
  | C_bound (cop, args) -> explain ~params:args resolve db cop
  | C_error e -> Errors.raise_error e
  | C_insert { csource = `Values _; _ } -> []
  | C_insert { csource = `Select cs; nslots; _ }
  | C_select { csel = cs; nslots; _ }
  | C_delete { victims = cs; nslots; _ }
  | C_update { victims = cs; nslots; _ } ->
    Compile.plan_select (rt nslots) cs

(* An exception-safety injection site: an operation may fail before
   touching the database, and the caller must treat the containing
   block as indivisible either way. *)
let exec_cop ?(track_selects = false) ?(note = Eval.no_note) ?params resolve db cop :
    op_result =
  Fault.hit Fault.Dml_op;
  run_cop ~track_selects ~note ?params resolve db cop
