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

   The effect is a map from table name to that table's components.  A
   handle belongs to one table, so Definition 2.1 composes table by
   table and restriction, the touched tables and the triggering test
   never visit a handle.  [S] keeps the reads as data manipulation
   reports them — per read, the columns referenced and the handles
   read — and merges them by handle only where it is read tuple by
   tuple ([selected]).

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
module Str_map = Map.Make (String)
module Col_map = Str_map

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

type part = {
  ins : Handle.Set.t;
  del : Row.t Handle.Map.t;
  upd : upd_entry Handle.Map.t;
  updated : int Col_map.t; (* per column, how many [upd] entries name it *)
  sel : (Col_set.t * Handle.t list) list; (* reads, latest first *)
}

(* No part is empty, so the tables bound are the tables touched. *)
type t = part Str_map.t

let empty = Str_map.empty
let is_empty = Str_map.is_empty

let no_part =
  {
    ins = Handle.Set.empty;
    del = Handle.Map.empty;
    upd = Handle.Map.empty;
    updated = Col_map.empty;
    sel = [];
  }

let part_is_empty p =
  Handle.Set.is_empty p.ins && Handle.Map.is_empty p.del
  && Handle.Map.is_empty p.upd && List.is_empty p.sel

(* [updated] counts, per column, the entries of [upd] whose column set
   holds it, so removing an entry keeps the union of the column sets
   exact without a pass over the others. *)
let count delta cols counts =
  Col_set.fold
    (fun c m ->
      Col_map.update c
        (fun n ->
          let n = Option.value n ~default:0 + delta in
          if n = 0 then None else Some n)
        m)
    cols counts

let counts_of upd =
  Handle.Map.fold (fun _ u m -> count 1 u.upd_cols m) upd Col_map.empty

(* [(upd, updated)] without [h]'s entry. *)
let remove_upd h ((upd, updated) as acc) =
  match Handle.Map.find_opt h upd with
  | None -> acc
  | Some u -> (Handle.Map.remove h upd, count (-1) u.upd_cols updated)

(* [xs] split by the table of [handle x], each group in list order.
   A statement writes one table, so that case allocates no groups. *)
let by_table handle xs =
  let table x = Handle.table (handle x) in
  match xs with
  | x :: _ when List.for_all (fun y -> String.equal (table y) (table x)) xs ->
    Str_map.singleton (table x) xs
  | _ ->
    List.fold_left
      (fun m x ->
        Str_map.update (table x)
          (fun g -> Some (x :: Option.value g ~default:[]))
          m)
      Str_map.empty (List.rev xs)

(* A select's reads are filed under their tables as they come: no
   handle is looked at beyond the first of each read. *)
let of_selected reads =
  List.fold_left
    (fun m (cols, handles) ->
      match handles with
      | [] -> m
      | h :: _ ->
        let read = (Col_set.of_list cols, handles) in
        Str_map.update (Handle.table h)
          (fun p ->
            let p = Option.value p ~default:no_part in
            Some { p with sel = read :: p.sel })
          m)
    Str_map.empty reads

let of_affected = function
  | Dml.A_insert hs ->
    Str_map.map
      (fun hs -> { no_part with ins = Handle.Set.of_list hs })
      (by_table Fun.id hs)
  | Dml.A_delete pairs ->
    Str_map.map
      (fun pairs -> { no_part with del = Handle.Map.of_list pairs })
      (by_table fst pairs)
  | Dml.A_update triples ->
    Str_map.map
      (fun triples ->
        let upd =
          List.fold_left
            (fun m (h, cols, old_row) ->
              Handle.Map.add h { upd_cols = Col_set.of_list cols; old_row } m)
            Handle.Map.empty triples
        in
        { no_part with upd; updated = counts_of upd })
      (by_table (fun (h, _, _) -> h) triples)
  | Dml.A_select reads -> of_selected reads

(* The reads of [sel] keeping only the handles [keep] accepts; a read
   left with none is dropped. *)
let filter_reads keep sel =
  List.filter_map
    (fun (cols, hs) ->
      match List.filter keep hs with [] -> None | hs -> Some (cols, hs))
    sel

(* Definition 2.1 on one table.  A handle updated in [p1] and then
   updated or deleted in [p2] keeps [p1]'s old row, the value at the
   start of the composite (Figure 1's get-old-value).  The S component
   composes by union minus handles deleted by the second transition or
   inserted by the first (selected tuples that no longer exist, or that
   did not exist before the composite transition, are not reported) —
   one of the compositions the paper leaves open; see DESIGN.md.

   Only [p2]'s entries are tested against I1: U1 and S1 never hold a
   handle of I1 (composition drops those), and no effect deletes,
   updates or selects a handle it inserts later.  When D2 and I1 are
   empty, as they are for most pairs, nothing is filtered and the
   reads are only appended. *)
let compose_part p1 p2 =
  let d2 = p2.del and i1 = p1.ins in
  let upd1, counts1 =
    if Handle.Map.is_empty d2 then (p1.upd, p1.updated)
    else
      Handle.Map.fold (fun h _ acc -> remove_upd h acc) d2 (p1.upd, p1.updated)
  in
  let upd2, counts2 =
    if Handle.Set.is_empty i1 then (p2.upd, p2.updated)
    else
      Handle.Map.fold
        (fun h _ acc -> if Handle.Set.mem h i1 then remove_upd h acc else acc)
        p2.upd (p2.upd, p2.updated)
  in
  let upd, updated =
    if Handle.Map.is_empty upd2 then (upd1, counts1)
    else if Handle.Map.is_empty upd1 then (upd2, counts2)
    else
      (* a handle updated on both sides is one entry: its shared
         columns were counted twice *)
      let updated =
        ref (Col_map.union (fun _ a b -> Some (a + b)) counts1 counts2)
      in
      let merge_upd _ u1 u2 =
        updated := count (-1) (Col_set.inter u1.upd_cols u2.upd_cols) !updated;
        Some { u1 with upd_cols = Col_set.union u1.upd_cols u2.upd_cols }
      in
      let upd = Handle.Map.union merge_upd upd1 upd2 in
      (upd, !updated)
  in
  let ins, del, sel1 =
    let ins = Handle.Set.union i1 p2.ins in
    if Handle.Map.is_empty d2 then (ins, p1.del, p1.sel)
    else
      let first_old h row =
        match Handle.Map.find_opt h p1.upd with
        | Some u -> u.old_row
        | None -> row
      in
      ( Handle.Map.fold (fun h _ s -> Handle.Set.remove h s) d2 ins,
        Handle.Map.fold
          (fun h row del ->
            if Handle.Set.mem h i1 then del
            else Handle.Map.add h (first_old h row) del)
          d2 p1.del,
        filter_reads (fun h -> not (Handle.Map.mem h d2)) p1.sel )
  in
  let sel2 =
    if Handle.Set.is_empty i1 then p2.sel
    else filter_reads (fun h -> not (Handle.Set.mem h i1)) p2.sel
  in
  { ins; del; upd; updated; sel = sel2 @ sel1 }

(* The empty effect is the identity; a table in one effect only keeps
   its part as it is. *)
let compose e1 e2 =
  if is_empty e1 then e2
  else if is_empty e2 then e1
  else
    Str_map.union
      (fun _ p1 p2 ->
        let p = compose_part p1 p2 in
        if part_is_empty p then None else Some p)
      e1 e2

let find e table = Str_map.find_opt table e
let fold = Str_map.fold

let selected p =
  List.fold_left
    (fun m (cols, hs) ->
      List.fold_left
        (fun m h ->
          Handle.Map.update h
            (function
              | None -> Some cols | Some c -> Some (Col_set.union c cols))
            m)
        m hs)
    Handle.Map.empty p.sel

let satisfies_pred e (pred : Ast.basic_trans_pred) =
  let on_column c cols =
    match c with None -> true | Some c -> Col_set.mem c cols
  in
  let in_table t test =
    match Str_map.find_opt t e with Some p -> test p | None -> false
  in
  match pred with
  | Ast.Tp_inserted t -> in_table t (fun p -> not (Handle.Set.is_empty p.ins))
  | Ast.Tp_deleted t -> in_table t (fun p -> not (Handle.Map.is_empty p.del))
  | Ast.Tp_updated (t, c) ->
    in_table t (fun p ->
        (not (Handle.Map.is_empty p.upd))
        && match c with None -> true | Some c -> Col_map.mem c p.updated)
  | Ast.Tp_selected (t, c) ->
    in_table t (fun p -> List.exists (fun (cols, _) -> on_column c cols) p.sel)

(* A rule's transition predicate is the disjunction of its basic
   predicates. *)
let satisfies_any e preds = List.exists (satisfies_pred e) preds

(* Restrict an effect to the tables satisfying [keep]: the basis of the
   Section 4.3 optimization that saves, per rule, "only the subset of
   that information relevant to the particular rule".  Composition
   works table by table, so restriction commutes with [compose]
   (property-tested): the engine gives every rule it wakes the
   restriction of the transition's composite, which is what stepwise
   composition would have built for it. *)
let restrict e keep = Str_map.filter (fun t _ -> keep t) e

let tables e = Str_map.fold (fun t _ acc -> Col_set.add t acc) e Col_set.empty

(* The invariant of Section 2.2 — a handle appears in at most one of
   I, D, U — and the layout's own.  Exposed for property-based
   tests. *)
let well_formed e =
  Str_map.for_all
    (fun t p ->
      let here h = String.equal (Handle.table h) t in
      (not (part_is_empty p))
      && Handle.Set.for_all (fun h -> here h && not (Handle.Map.mem h p.del)) p.ins
      && Handle.Map.for_all (fun h _ -> here h) p.del
      && Handle.Map.for_all
           (fun h _ ->
             here h && not (Handle.Set.mem h p.ins || Handle.Map.mem h p.del))
           p.upd
      && Col_map.equal Int.equal p.updated (counts_of p.upd)
      && List.for_all (fun (_, hs) -> (not (List.is_empty hs)) && List.for_all here hs) p.sel)
    e

let equal_part a b =
  Handle.Set.equal a.ins b.ins
  && Handle.Map.equal Row.equal a.del b.del
  && Handle.Map.equal
       (fun x y ->
         Col_set.equal x.upd_cols y.upd_cols && Row.equal x.old_row y.old_row)
       a.upd b.upd
  && Handle.Map.equal Col_set.equal (selected a) (selected b)

let equal = Str_map.equal equal_part

(* Tuples the effect touches, across all four components: with select
   tracking on (Section 5.1) the S component counts too, so trace
   [effect_size]s and statistics reflect retrievals as well as
   writes. *)
let cardinality e =
  Str_map.fold
    (fun _ p n ->
      n + Handle.Set.cardinal p.ins + Handle.Map.cardinal p.del
      + Handle.Map.cardinal p.upd
      + if List.is_empty p.sel then 0 else Handle.Map.cardinal (selected p))
    e 0

let pp ppf e =
  (* one component's entries over all tables, in handle order *)
  let entries f =
    Str_map.fold (fun _ p acc -> List.rev_append (f p) acc) e []
    |> List.sort (fun (a, _) (b, _) -> Handle.compare a b)
  in
  let handles f = List.map fst (entries f) in
  let pp_handles ppf hs = Fmt.list ~sep:Fmt.comma Handle.pp ppf hs in
  let pp_cols ppf bindings =
    Fmt.list ~sep:Fmt.comma
      (fun ppf (h, cols) ->
        Fmt.pf ppf "%a{%s}" Handle.pp h
          (String.concat "," (Col_set.elements cols)))
      ppf bindings
  in
  Fmt.pf ppf "[I={%a}; D={%a}; U={%a}" pp_handles
    (handles (fun p -> List.map (fun h -> (h, ())) (Handle.Set.elements p.ins)))
    pp_handles
    (handles (fun p -> Handle.Map.bindings p.del))
    pp_cols
    (entries (fun p ->
         List.map (fun (h, u) -> (h, u.upd_cols)) (Handle.Map.bindings p.upd)));
  let sel = entries (fun p -> Handle.Map.bindings (selected p)) in
  if not (List.is_empty sel) then Fmt.pf ppf "; S={%a}" pp_cols sel;
  Fmt.pf ppf "]"
