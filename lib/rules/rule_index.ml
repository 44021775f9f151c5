(* Rule discrimination index.

   The Figure 1 loop conceptually consults every rule at every
   transition; this module gives the engine the discrimination network
   active-database practice assumes, so per-transition work scales with
   the rules *registered on the touched keys*, not with the size of the
   rule catalog.

   Each rule is registered under one key per basic transition
   predicate:

     inserted into T      -> insert(T)
     deleted from T       -> delete(T)
     updated T (col c)    -> update(T.c), column-less form is the
                             wildcard key rendered "update(T.[any])"
     selected T (col c)   -> select(T.c), wildcard likewise

   [matching] takes a transition effect and returns the names of every
   rule with at least one key the effect touches — exactly the rules
   [Effect.satisfies_any] could ever report as triggered by that effect
   (property-tested).  Column-less update/select registrations are
   wildcards: they match an update/select of any column of the table.

   The index is maintained incrementally on rule DDL (create, drop,
   activate/deactivate — only active rules are registered) and carries
   the engine's DDL generation: table or index DDL bumps the engine
   counter, the generations disagree, and the engine rebuilds the index
   from the catalog before its next lookup.  Posting lists are name
   sets, so maintenance is idempotent and [matching] results are
   order-independent. *)

open Relational
module Ast = Sqlf.Ast
module Str_map = Map.Make (String)
module Str_set = Set.Make (String)
module Col_set = Effect.Col_set

type op = Ins | Del | Upd | Sel

type key = { k_table : string; k_op : op; k_col : string option }

let key_of_pred = function
  | Ast.Tp_inserted t -> { k_table = t; k_op = Ins; k_col = None }
  | Ast.Tp_deleted t -> { k_table = t; k_op = Del; k_col = None }
  | Ast.Tp_updated (t, c) -> { k_table = t; k_op = Upd; k_col = c }
  | Ast.Tp_selected (t, c) -> { k_table = t; k_op = Sel; k_col = c }

(* A rule's registration keys, deduplicated, in a stable order (table,
   then op, then column) so EXPLAIN output is deterministic. *)
let keys_of_rule r =
  List.sort_uniq compare (List.map key_of_pred (Rule.trans_preds r))

let key_to_string k =
  let op =
    match k.k_op with
    | Ins -> "insert"
    | Del -> "delete"
    | Upd -> "update"
    | Sel -> "select"
  in
  match (k.k_op, k.k_col) with
  | (Ins | Del), _ -> Printf.sprintf "%s(%s)" op k.k_table
  | _, None -> Printf.sprintf "%s(%s.*)" op k.k_table
  | _, Some c -> Printf.sprintf "%s(%s.%s)" op k.k_table c

(* Per-table posting lists.  Update and select registrations split into
   a wildcard set (column-less predicates) and per-column sets. *)
type entry = {
  mutable e_ins : Str_set.t;
  mutable e_del : Str_set.t;
  mutable e_upd_any : Str_set.t;
  mutable e_upd_col : Str_set.t Str_map.t;
  mutable e_sel_any : Str_set.t;
  mutable e_sel_col : Str_set.t Str_map.t;
}

type t = {
  mutable generation : int;
      (* the engine DDL generation the index was built against *)
  tbl : (string, entry) Hashtbl.t;
  mutable registered : int; (* rules currently registered *)
}

let create ~generation () =
  { generation; tbl = Hashtbl.create 16; registered = 0 }

let generation idx = idx.generation
let registered idx = idx.registered

let entry_for idx table =
  match Hashtbl.find_opt idx.tbl table with
  | Some e -> e
  | None ->
    let e =
      {
        e_ins = Str_set.empty;
        e_del = Str_set.empty;
        e_upd_any = Str_set.empty;
        e_upd_col = Str_map.empty;
        e_sel_any = Str_set.empty;
        e_sel_col = Str_map.empty;
      }
    in
    Hashtbl.add idx.tbl table e;
    e

let col_sets_update name add col sets =
  Str_map.update col
    (fun existing ->
      let s = Option.value existing ~default:Str_set.empty in
      let s = if add then Str_set.add name s else Str_set.remove name s in
      if Str_set.is_empty s then None else Some s)
    sets

let apply idx name add keys =
  List.iter
    (fun k ->
      let e = entry_for idx k.k_table in
      let upd s = if add then Str_set.add name s else Str_set.remove name s in
      match (k.k_op, k.k_col) with
      | Ins, _ -> e.e_ins <- upd e.e_ins
      | Del, _ -> e.e_del <- upd e.e_del
      | Upd, None -> e.e_upd_any <- upd e.e_upd_any
      | Upd, Some c -> e.e_upd_col <- col_sets_update name add c e.e_upd_col
      | Sel, None -> e.e_sel_any <- upd e.e_sel_any
      | Sel, Some c -> e.e_sel_col <- col_sets_update name add c e.e_sel_col)
    keys

let add idx (r : Rule.t) =
  apply idx r.Rule.name true (keys_of_rule r);
  idx.registered <- idx.registered + 1

let remove idx (r : Rule.t) =
  apply idx r.Rule.name false (keys_of_rule r);
  idx.registered <- idx.registered - 1

let rebuild ~generation rules =
  let idx = create ~generation () in
  List.iter (fun r -> add idx r) rules;
  idx

(* One pass over the tables the effect touches: each table's
   components name the keys it touches, and the columns come from the
   part's updated-column counts and its reads. *)
let matching idx (e : Effect.t) =
  let acc = ref Str_set.empty in
  let collect s = if not (Str_set.is_empty s) then acc := Str_set.union s !acc in
  let collect_col by_col c =
    match Str_map.find_opt c by_col with Some s -> collect s | None -> ()
  in
  Effect.fold
    (fun table (p : Effect.part) () ->
      match Hashtbl.find_opt idx.tbl table with
      | None -> ()
      | Some en ->
        if not (Handle.Set.is_empty p.ins) then collect en.e_ins;
        if not (Handle.Map.is_empty p.del) then collect en.e_del;
        if not (Handle.Map.is_empty p.upd) then begin
          collect en.e_upd_any;
          if not (Str_map.is_empty en.e_upd_col) then
            Effect.Col_map.iter
              (fun c _ -> collect_col en.e_upd_col c)
              p.updated
        end;
        if not (List.is_empty p.sel) then begin
          collect en.e_sel_any;
          if not (Str_map.is_empty en.e_sel_col) then
            List.iter
              (fun (cols, _) -> Col_set.iter (collect_col en.e_sel_col) cols)
              p.sel
        end)
    e ();
  !acc
