(* Materialization of the paper's logical transition tables (Section 3)
   from a rule's composite transition effect:

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
   composite transition; the effect carries those values (Figure 1's
   old values, which composition keeps first-recorded), so
   materialization needs only the effect and the current database
   state. *)

open Relational
module Ast = Sqlf.Ast
module Eval = Sqlf.Eval

(* Rows come out in handle order, i.e. insertion order: the order
   [Handle.Set] and [Handle.Map] iterate in.  Only the base table's own
   components are visited.  Transition-table columns are the base
   table's columns; the names array is the one cached in the stored
   table value. *)
let materialize (e : Effect.t) ~current_db (tt : Ast.trans_table) :
    Eval.relation =
  let t = Ast.trans_table_base tt in
  let tbl = Database.table current_db t in
  let on_column col cols =
    match col with None -> true | Some c -> Effect.Col_set.mem c cols
  in
  (* the entries of [m] for which [row_of] gives a row, reversed *)
  let collect m row_of =
    Handle.Map.fold
      (fun h x acc -> match row_of h x with Some row -> row :: acc | None -> acc)
      m []
  in
  let rev_rows (p : Effect.part) =
    let updated col row_of =
      collect p.upd (fun h (u : Effect.upd_entry) ->
          if on_column col u.upd_cols then Some (row_of h u) else None)
    in
    match tt with
    | Ast.Tt_inserted _ ->
      Handle.Set.fold (fun h acc -> Table.get tbl h :: acc) p.ins []
    | Ast.Tt_deleted _ -> collect p.del (fun _ row -> Some row)
    | Ast.Tt_old_updated (_, col) -> updated col (fun _ u -> u.old_row)
    | Ast.Tt_new_updated (_, col) -> updated col (fun h _ -> Table.get tbl h)
    | Ast.Tt_selected (_, col) ->
      collect (Effect.selected p) (fun h cols ->
          if on_column col cols then Database.find_row current_db h else None)
  in
  let rows =
    match Effect.find e t with Some p -> List.rev (rev_rows p) | None -> []
  in
  { Eval.rel_name = t; cols = Table.col_names tbl; rows }

(* A resolver that serves transition tables from [e] over the current
   state [db]; with the base tables a plan reads from [db] itself, this
   is the evaluation environment for a rule's condition and action
   (Section 4.1: "evaluation of R's condition may depend on E1, S1, and
   S0").

   Both [e] and [db] are fixed for the life of one resolver (the
   engine builds a fresh resolver per operation and per condition
   evaluation), so materializations are memoized per instance: a
   predicate that joins against the same transition table once per
   candidate row pays for the handle-set traversal only once. *)
let resolver (e : Effect.t) db : Eval.resolver =
  let memo : (Ast.trans_table, Eval.relation) Hashtbl.t = Hashtbl.create 4 in
  fun tt ->
    match Hashtbl.find_opt memo tt with
    | Some rel -> rel
    | None ->
      let rel = materialize e ~current_db:db tt in
      Hashtbl.add memo tt rel;
      rel
