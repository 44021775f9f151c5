(* Materialization of the paper's logical transition tables (Section 3)
   from a rule's composite transition information:

   - [inserted t]:        current values of tuples of t inserted by the
                          (composite) transition;
   - [deleted t]:         previous-state values of deleted tuples of t;
   - [old updated t[.c]]: previous-state values of updated tuples of t
                          (restricted to those where column c was
                          updated, for the ".c" form);
   - [new updated t[.c]]: current values of the same tuples;
   - [selected t[.c]]:    current values of retrieved tuples (Section
                          5.1 extension).

   "Previous state" means the state at the start of the rule's
   composite transition; Figure 1 records those values incrementally in
   the trans-info, so materialization needs only the trans-info and the
   current database state. *)

open Relational
module Ast = Sqlf.Ast
module Eval = Sqlf.Eval

(* Deterministic row order: by handle id, i.e. insertion order. *)
let sorted_bindings bindings =
  List.sort (fun (h1, _) (h2, _) -> Handle.compare h1 h2) bindings

(* Transition-table columns are the base table's columns; the names
   array is the one cached in the stored table value. *)
let relation_of name tbl rows =
  { Eval.rel_name = name; cols = Table.col_names tbl; rows }

let materialize (ti : Trans_info.t) ~current_db (tt : Ast.trans_table) :
    Eval.relation =
  match tt with
  | Ast.Tt_inserted t ->
    let tbl = Database.table current_db t in
    let rows =
      Handle.Set.fold
        (fun h acc ->
          if String.equal (Handle.table h) t then Table.get tbl h :: acc else acc)
        ti.Trans_info.ins []
      |> List.rev
    in
    relation_of t tbl rows
  | Ast.Tt_deleted t ->
    let tbl = Database.table current_db t in
    let rows =
      Handle.Map.bindings ti.Trans_info.del
      |> List.filter (fun (h, _) -> String.equal (Handle.table h) t)
      |> sorted_bindings
      |> List.map snd
    in
    relation_of t tbl rows
  | Ast.Tt_old_updated (t, col) | Ast.Tt_new_updated (t, col) ->
    let tbl = Database.table current_db t in
    let entries =
      Handle.Map.bindings ti.Trans_info.upd
      |> List.filter (fun (h, entry) ->
             String.equal (Handle.table h) t
             &&
             match col with
             | None -> true
             | Some c -> Effect.Col_set.mem c entry.Trans_info.upd_cols)
      |> List.sort (fun (h1, _) (h2, _) -> Handle.compare h1 h2)
    in
    let rows =
      match tt with
      | Ast.Tt_old_updated _ ->
        List.map (fun (_, entry) -> entry.Trans_info.old_row) entries
      | _ -> List.map (fun (h, _) -> Table.get tbl h) entries
    in
    relation_of t tbl rows
  | Ast.Tt_selected (t, col) ->
    let tbl = Database.table current_db t in
    let rows =
      Handle.Map.bindings ti.Trans_info.sel
      |> List.filter (fun (h, cols) ->
             String.equal (Handle.table h) t
             &&
             match col with
             | None -> true
             | Some c -> Effect.Col_set.mem c cols)
      |> sorted_bindings
      |> List.filter_map (fun (h, _) -> Database.find_row current_db h)
    in
    relation_of t tbl rows

(* A resolver that serves base tables from [db] and transition tables
   from [ti]; this is the evaluation environment for a rule's condition
   and action (Section 4.1: "evaluation of R's condition may depend on
   E1, S1, and S0").

   Both [ti] and [db] are fixed for the life of one resolver (the
   engine builds a fresh resolver per operation and per condition
   evaluation), so materializations are memoized per instance: a
   predicate that joins against the same transition table once per
   candidate row pays for the handle-set traversal only once. *)
let resolver (ti : Trans_info.t) db : Eval.resolver =
  let trans_memo : (Ast.trans_table, Eval.relation) Hashtbl.t =
    Hashtbl.create 4
  in
  let base_memo : (string, Eval.relation) Hashtbl.t = Hashtbl.create 4 in
  function
  | Ast.Base name -> (
    match Hashtbl.find_opt base_memo name with
    | Some rel -> rel
    | None ->
      let rel = Eval.relation_of_table (Database.table db name) in
      Hashtbl.add base_memo name rel;
      rel)
  | Ast.Transition tt -> (
    match Hashtbl.find_opt trans_memo tt with
    | Some rel -> rel
    | None ->
      let rel = materialize ti ~current_db:db tt in
      Hashtbl.add trans_memo tt rel;
      rel)
  | Ast.Derived _ -> assert false
