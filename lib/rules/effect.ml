(* Transition effects (paper Section 2.2) with the old values of
   Figure 1's transition information (Section 4.3).

   The effect of a transition is the triple [I, D, U]: handles of
   inserted tuples, handles of deleted tuples, and (handle, column)
   pairs of updated tuples.  A handle appears in at most one of the
   three components.  The optional [S] component is the Section 5.1
   extension recording retrieved (handle, column) pairs.

   Deleted and updated handles carry the tuple's value at the start of
   the transition.  Figure 1 keeps one (h, c, v) triple per updated
   column with all v equal; we store the columns and the single old
   row.  The values are the ones data manipulation returns in its
   affected set, so no earlier database state is consulted.

   [compose] implements Definition 2.1:
     I = (I1 ∪ I2) − D2
     D = (D1 ∪ D2) − I1
     U = (U1 ∪ U2) − (D2 ∪ I1)   (dropping pairs by handle)
   with modify-trans-info's first-recorded old values, and is
   associative, so the effect of an operation block is the composition
   of its operations' effects in order. *)

open Relational
module Ast = Sqlf.Ast
module Dml = Sqlf.Dml
module Col_set = Set.Make (String)

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

type t = {
  ins : Handle.Set.t;
  del : Row.t Handle.Map.t;
  upd : upd_entry Handle.Map.t;
  sel : Col_set.t Handle.Map.t; (* Section 5.1 extension *)
}

let empty =
  {
    ins = Handle.Set.empty;
    del = Handle.Map.empty;
    upd = Handle.Map.empty;
    sel = Handle.Map.empty;
  }

let is_empty e =
  Handle.Set.is_empty e.ins && Handle.Map.is_empty e.del
  && Handle.Map.is_empty e.upd && Handle.Map.is_empty e.sel

(* One column set per table read, shared by all of its handles. *)
let of_selected reads =
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

let of_affected = function
  | Dml.A_insert hs -> { empty with ins = Handle.Set.of_list hs }
  | Dml.A_delete pairs -> { empty with del = Handle.Map.of_list pairs }
  | Dml.A_update triples ->
    let upd =
      List.fold_left
        (fun m (h, cols, old_row) ->
          Handle.Map.add h { upd_cols = Col_set.of_list cols; old_row } m)
        Handle.Map.empty triples
    in
    { empty with upd }
  | Dml.A_select reads -> { empty with sel = of_selected reads }

let remove_keys keys m =
  Handle.Map.fold (fun h _ m -> Handle.Map.remove h m) keys m

(* Definition 2.1.  A handle updated in [e1] and then updated or
   deleted in [e2] keeps [e1]'s old row, the value at the start of the
   composite (Figure 1's get-old-value).  The S component composes by
   union minus handles deleted by the second transition or inserted by
   the first (selected tuples that no longer exist, or that did not
   exist before the composite transition, are not reported) — one of
   the compositions the paper leaves open; see DESIGN.md.

   Only [e2]'s entries are tested against I1: U1 and S1 never hold a
   handle of I1 (composition drops those), and no effect deletes,
   updates or selects a handle it inserts later.  The empty effect is
   the identity. *)
let compose e1 e2 =
  if is_empty e1 then e2
  else if is_empty e2 then e1
  else
    let fresh h _ = not (Handle.Set.mem h e1.ins) in
    let first_old h row =
      match Handle.Map.find_opt h e1.upd with
      | Some u -> u.old_row
      | None -> row
    in
    let merge_upd _ u1 u2 =
      Some { u1 with upd_cols = Col_set.union u1.upd_cols u2.upd_cols }
    in
    let merge_sel _ c1 c2 = Some (Col_set.union c1 c2) in
    {
      ins =
        Handle.Map.fold
          (fun h _ s -> Handle.Set.remove h s)
          e2.del
          (Handle.Set.union e1.ins e2.ins);
      del =
        Handle.Map.fold
          (fun h row del ->
            if Handle.Set.mem h e1.ins then del
            else Handle.Map.add h (first_old h row) del)
          e2.del e1.del;
      upd =
        Handle.Map.union merge_upd (remove_keys e2.del e1.upd)
          (Handle.Map.filter fresh e2.upd);
      sel =
        Handle.Map.union merge_sel (remove_keys e2.del e1.sel)
          (Handle.Map.filter fresh e2.sel);
    }

let satisfies_pred e (pred : Ast.basic_trans_pred) =
  let in_table t h = String.equal (Handle.table h) t in
  let on_column c cols =
    match c with None -> true | Some c -> Col_set.mem c cols
  in
  match pred with
  | Ast.Tp_inserted t -> Handle.Set.exists (in_table t) e.ins
  | Ast.Tp_deleted t -> Handle.Map.exists (fun h _ -> in_table t h) e.del
  | Ast.Tp_updated (t, c) ->
    Handle.Map.exists (fun h u -> in_table t h && on_column c u.upd_cols) e.upd
  | Ast.Tp_selected (t, c) ->
    Handle.Map.exists (fun h cols -> in_table t h && on_column c cols) e.sel

(* A rule's transition predicate is the disjunction of its basic
   predicates. *)
let satisfies_any e preds = List.exists (satisfies_pred e) preds

(* Restrict an effect to the tables satisfying [keep]: the basis of the
   Section 4.3 optimization that saves, per rule, "only the subset of
   that information relevant to the particular rule".  Every component
   keys on handles and a handle belongs to exactly one table, so
   restriction commutes with [compose] (property-tested): the engine
   gives every rule it wakes the restriction of the transition's
   composite, which is what stepwise composition would have built for
   it. *)
let restrict e keep =
  let keep_h h = keep (Handle.table h) in
  let keep_key h _ = keep_h h in
  {
    ins = Handle.Set.filter keep_h e.ins;
    del = Handle.Map.filter keep_key e.del;
    upd = Handle.Map.filter keep_key e.upd;
    sel = Handle.Map.filter keep_key e.sel;
  }

(* The set of tables an effect touches; computed once per transition so
   the engine can skip rules whose predicates mention none of them. *)
let tables e =
  let add h acc = Col_set.add (Handle.table h) acc in
  let add_key h _ acc = add h acc in
  Handle.Set.fold add e.ins Col_set.empty
  |> Handle.Map.fold add_key e.del
  |> Handle.Map.fold add_key e.upd
  |> Handle.Map.fold add_key e.sel

(* The invariant of Section 2.2: a handle appears in at most one of
   I, D, U.  Exposed for property-based tests. *)
let well_formed e =
  Handle.Set.for_all (fun h -> not (Handle.Map.mem h e.del)) e.ins
  && Handle.Map.for_all
       (fun h _ -> not (Handle.Set.mem h e.ins || Handle.Map.mem h e.del))
       e.upd

let equal a b =
  Handle.Set.equal a.ins b.ins
  && Handle.Map.equal Row.equal a.del b.del
  && Handle.Map.equal
       (fun x y ->
         Col_set.equal x.upd_cols y.upd_cols && Row.equal x.old_row y.old_row)
       a.upd b.upd
  && Handle.Map.equal Col_set.equal a.sel b.sel

(* Tuples the effect touches, across all four components: with select
   tracking on (Section 5.1) the S component counts too, so trace
   [effect_size]s and statistics reflect retrievals as well as
   writes. *)
let cardinality e =
  Handle.Set.cardinal e.ins + Handle.Map.cardinal e.del
  + Handle.Map.cardinal e.upd + Handle.Map.cardinal e.sel

let pp ppf e =
  let pp_handles ppf hs = Fmt.list ~sep:Fmt.comma Handle.pp ppf hs in
  let pp_cols ppf bindings =
    Fmt.list ~sep:Fmt.comma
      (fun ppf (h, cols) ->
        Fmt.pf ppf "%a{%s}" Handle.pp h
          (String.concat "," (Col_set.elements cols)))
      ppf bindings
  in
  let keys m = List.map fst (Handle.Map.bindings m) in
  Fmt.pf ppf "[I={%a}; D={%a}; U={%a}" pp_handles (Handle.Set.elements e.ins)
    pp_handles (keys e.del) pp_cols
    (List.map (fun (h, u) -> (h, u.upd_cols)) (Handle.Map.bindings e.upd));
  if not (Handle.Map.is_empty e.sel) then
    Fmt.pf ppf "; S={%a}" pp_cols (Handle.Map.bindings e.sel);
  Fmt.pf ppf "]"
