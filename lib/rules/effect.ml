(* Transition effects (paper Section 2.2).

   The effect of a transition is the triple [I, D, U]: handles of
   inserted tuples, handles of deleted tuples, and (handle, column)
   pairs of updated tuples.  A handle appears in at most one of the
   three components.  The optional [S] component is the Section 5.1
   extension recording retrieved (handle, column) pairs.

   [compose] implements Definition 2.1:
     I = (I1 ∪ I2) − D2
     D = (D1 ∪ D2) − I1
     U = (U1 ∪ U2) − (D2 ∪ I1)   (dropping pairs by handle)
   and is associative, so the effect of an operation block is the
   composition of its operations' effects in order. *)

open Relational
module Ast = Sqlf.Ast
module Dml = Sqlf.Dml
module Col_set = Set.Make (String)

type t = {
  ins : Handle.Set.t;
  del : Handle.Set.t;
  upd : Col_set.t Handle.Map.t;
  sel : Col_set.t Handle.Map.t; (* Section 5.1 extension *)
}

let empty =
  {
    ins = Handle.Set.empty;
    del = Handle.Set.empty;
    upd = Handle.Map.empty;
    sel = Handle.Map.empty;
  }

let is_empty e =
  Handle.Set.is_empty e.ins && Handle.Set.is_empty e.del
  && Handle.Map.is_empty e.upd && Handle.Map.is_empty e.sel

let of_inserted handles =
  { empty with ins = Handle.Set.of_list handles }

let of_deleted handles =
  { empty with del = Handle.Set.of_list handles }

let of_updated pairs =
  let upd =
    List.fold_left
      (fun m (h, cols) ->
        let existing =
          Option.value (Handle.Map.find_opt h m) ~default:Col_set.empty
        in
        Handle.Map.add h
          (List.fold_left (fun s c -> Col_set.add c s) existing cols)
          m)
      Handle.Map.empty pairs
  in
  { empty with upd }

(* One column set per table read, shared by all of its handles. *)
let of_selected reads =
  let sel =
    List.fold_left
      (fun m (cols, handles) ->
        let set = Col_set.of_list cols in
        List.fold_left
          (fun m h ->
            Handle.Map.update h
              (function
                | None -> Some set
                | Some existing -> Some (Col_set.union existing set))
              m)
          m handles)
      Handle.Map.empty reads
  in
  { empty with sel }

let of_affected = function
  | Dml.A_insert hs -> of_inserted hs
  | Dml.A_delete pairs -> of_deleted (List.map fst pairs)
  | Dml.A_update triples ->
    of_updated (List.map (fun (h, cols, _) -> (h, cols)) triples)
  | Dml.A_select reads -> of_selected reads

let union_cols m1 m2 =
  Handle.Map.union (fun _ a b -> Some (Col_set.union a b)) m1 m2

(* Definition 2.1.  The S component composes by union minus handles
   deleted by the second transition or inserted by the first (selected
   tuples that no longer exist, or that did not exist before the
   composite transition, are not reported) — one of the compositions
   the paper leaves open; see DESIGN.md. *)
let compose e1 e2 =
  let ins = Handle.Set.diff (Handle.Set.union e1.ins e2.ins) e2.del in
  let del = Handle.Set.diff (Handle.Set.union e1.del e2.del) e1.ins in
  let drop = Handle.Set.union e2.del e1.ins in
  let prune m = Handle.Map.filter (fun h _ -> not (Handle.Set.mem h drop)) m in
  let upd = prune (union_cols e1.upd e2.upd) in
  let sel = prune (union_cols e1.sel e2.sel) in
  { ins; del; upd; sel }

let of_affected_list affs =
  List.fold_left (fun acc a -> compose acc (of_affected a)) empty affs

(* Triggering test for a basic transition predicate (Section 3). *)
let satisfies_pred e (pred : Ast.basic_trans_pred) =
  let handle_in_table t h = String.equal (Handle.table h) t in
  match pred with
  | Ast.Tp_inserted t -> Handle.Set.exists (handle_in_table t) e.ins
  | Ast.Tp_deleted t -> Handle.Set.exists (handle_in_table t) e.del
  | Ast.Tp_updated (t, None) ->
    Handle.Map.exists (fun h _ -> handle_in_table t h) e.upd
  | Ast.Tp_updated (t, Some c) ->
    Handle.Map.exists
      (fun h cols -> handle_in_table t h && Col_set.mem c cols)
      e.upd
  | Ast.Tp_selected (t, None) ->
    Handle.Map.exists (fun h _ -> handle_in_table t h) e.sel
  | Ast.Tp_selected (t, Some c) ->
    Handle.Map.exists
      (fun h cols -> handle_in_table t h && Col_set.mem c cols)
      e.sel

(* A rule's transition predicate is the disjunction of its basic
   predicates. *)
let satisfies_any e preds = List.exists (satisfies_pred e) preds

(* Restrict an effect to the tables satisfying [keep]: the basis of the
   Section 4.3 optimization that saves, per rule, "only the subset of
   that information relevant to the particular rule". *)
let restrict e keep =
  let keep_h h = keep (Handle.table h) in
  {
    ins = Handle.Set.filter keep_h e.ins;
    del = Handle.Set.filter keep_h e.del;
    upd = Handle.Map.filter (fun h _ -> keep_h h) e.upd;
    sel = Handle.Map.filter (fun h _ -> keep_h h) e.sel;
  }

(* The set of tables an effect touches; computed once per transition so
   the engine can skip rules whose predicates mention none of them. *)
let tables e =
  let add_h h acc = Col_set.add (Handle.table h) acc in
  let acc = Handle.Set.fold add_h e.ins Col_set.empty in
  let acc = Handle.Set.fold add_h e.del acc in
  let acc = Handle.Map.fold (fun h _ acc -> add_h h acc) e.upd acc in
  Handle.Map.fold (fun h _ acc -> add_h h acc) e.sel acc

(* The invariant of Section 2.2: a handle appears in at most one of
   I, D, U.  Exposed for property-based tests. *)
let well_formed e =
  let overlap_id = Handle.Set.inter e.ins e.del in
  Handle.Set.is_empty overlap_id
  && Handle.Map.for_all
       (fun h _ -> not (Handle.Set.mem h e.ins) && not (Handle.Set.mem h e.del))
       e.upd

let equal a b =
  Handle.Set.equal a.ins b.ins
  && Handle.Set.equal a.del b.del
  && Handle.Map.equal Col_set.equal a.upd b.upd
  && Handle.Map.equal Col_set.equal a.sel b.sel

(* Tuples the effect touches, across all four components: with select
   tracking on (Section 5.1) the S component counts too, so trace
   [effect_size]s and statistics reflect retrievals as well as
   writes. *)
let cardinality e =
  Handle.Set.cardinal e.ins + Handle.Set.cardinal e.del
  + Handle.Map.cardinal e.upd + Handle.Map.cardinal e.sel

let pp ppf e =
  let pp_handles ppf s =
    Fmt.list ~sep:Fmt.comma Handle.pp ppf (Handle.Set.elements s)
  in
  let pp_cols ppf m =
    Fmt.list ~sep:Fmt.comma
      (fun ppf (h, cols) ->
        Fmt.pf ppf "%a{%s}" Handle.pp h
          (String.concat "," (Col_set.elements cols)))
      ppf (Handle.Map.bindings m)
  in
  Fmt.pf ppf "[I={%a}; D={%a}; U={%a}]" pp_handles e.ins pp_handles e.del
    pp_cols e.upd
