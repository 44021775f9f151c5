(* Per-rule composite transition information (paper Section 4.3,
   Figure 1).

   Each rule carries, between transitions, the information needed to
   decide whether it is triggered and to build its transition tables:

   - [ins]:  handles of tuples inserted since the rule's reference
             point (current values live in the database);
   - [del]:  handles and *values* of tuples deleted since then (the
             tuples are gone from the database);
   - [upd]:  for each updated tuple, the set of updated columns plus
             the tuple's value at the reference point (Figure 1 keeps
             one (h, c, v) triple per column with all v equal; we store
             the columns and the single old row).

   [init] corresponds to Figure 1's init-trans-info, [extend] to
   modify-trans-info, and get-old-value is [old_row_of]. *)

open Relational
module Col_set = Effect.Col_set

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

type t = {
  ins : Handle.Set.t;
  del : Row.t Handle.Map.t;
  upd : upd_entry Handle.Map.t;
  sel : Col_set.t Handle.Map.t; (* Section 5.1 extension: read set *)
}

let empty =
  {
    ins = Handle.Set.empty;
    del = Handle.Map.empty;
    upd = Handle.Map.empty;
    sel = Handle.Map.empty;
  }

let is_empty ti =
  Handle.Set.is_empty ti.ins && Handle.Map.is_empty ti.del
  && Handle.Map.is_empty ti.upd && Handle.Map.is_empty ti.sel

(* get-old-value: the tuple's value at the start of the composite
   transition — recorded in [upd] if the tuple was updated earlier in
   the composite, otherwise its value in the pre-transition state. *)
let old_row_of ti old_db h =
  match Handle.Map.find_opt h ti.upd with
  | Some { old_row; _ } -> old_row
  | None -> Database.get_row old_db h

(* init-trans-info: transition information for a single effect [e]
   produced by a transition from [old_db]. *)
let init (e : Effect.t) old_db =
  let del =
    Handle.Set.fold
      (fun h m -> Handle.Map.add h (Database.get_row old_db h) m)
      e.Effect.del Handle.Map.empty
  in
  let upd =
    Handle.Map.fold
      (fun h cols m ->
        Handle.Map.add h
          { upd_cols = cols; old_row = Database.get_row old_db h }
          m)
      e.Effect.upd Handle.Map.empty
  in
  { ins = e.Effect.ins; del; upd; sel = e.Effect.sel }

(* modify-trans-info: extend composite information with the effect of a
   subsequent transition from state [old_db] (the state preceding that
   transition). *)
let extend ti (e : Effect.t) old_db =
  let ins = Handle.Set.union ti.ins e.Effect.ins in
  (* deletions *)
  let ins, del, upd =
    Handle.Set.fold
      (fun h (ins, del, upd) ->
        if Handle.Set.mem h ins then
          (* inserted within the composite: net effect is nothing *)
          (Handle.Set.remove h ins, del, upd)
        else
          let old_row = old_row_of ti old_db h in
          (ins, Handle.Map.add h old_row del, Handle.Map.remove h upd))
      e.Effect.del (ins, ti.del, ti.upd)
  in
  (* updates: ignore updates of tuples inserted within the composite;
     record the old value only the first time a tuple is updated *)
  let upd =
    Handle.Map.fold
      (fun h cols upd ->
        if Handle.Set.mem h ins then upd
        else
          match Handle.Map.find_opt h upd with
          | Some entry ->
            Handle.Map.add h
              { entry with upd_cols = Col_set.union entry.upd_cols cols }
              upd
          | None ->
            Handle.Map.add h
              { upd_cols = cols; old_row = Database.get_row old_db h }
              upd)
      e.Effect.upd upd
  in
  let sel =
    let pruned =
      Handle.Map.filter
        (fun h _ -> not (Handle.Set.mem h e.Effect.del))
        (Effect.union_cols ti.sel e.Effect.sel)
    in
    Handle.Map.filter (fun h _ -> not (Handle.Set.mem h ins)) pruned
  in
  { ins; del; upd; sel }

(* Restriction to the tables satisfying [keep].  Every component keys
   on handles, and a handle belongs to exactly one table, so
   restriction commutes with [init]/[extend]: restricting a composite
   equals composing restricted effects (property-tested).  The engine
   gives every rule it wakes the restriction of the transition's
   composite information to the rule's tables, which is the pruned
   information stepwise extension would have built for it. *)
let restrict ti keep =
  let keep_h h = keep (Handle.table h) in
  {
    ins = Handle.Set.filter keep_h ti.ins;
    del = Handle.Map.filter (fun h _ -> keep_h h) ti.del;
    upd = Handle.Map.filter (fun h _ -> keep_h h) ti.upd;
    sel = Handle.Map.filter (fun h _ -> keep_h h) ti.sel;
  }

(* The effect triple this information represents; used for printing
   and by property tests relating [extend] to effect composition. *)
let to_effect ti =
  {
    Effect.ins = ti.ins;
    del = Handle.Map.fold (fun h _ s -> Handle.Set.add h s) ti.del Handle.Set.empty;
    upd = Handle.Map.map (fun e -> e.upd_cols) ti.upd;
    sel = ti.sel;
  }

(* The triggering test on the components in place: no effect triple
   is built. *)
let triggered ti preds =
  let ins p = Handle.Set.exists p ti.ins
  and del p = Handle.Map.exists (fun h _ -> p h) ti.del
  and upd p = Handle.Map.exists (fun h e -> p h e.upd_cols) ti.upd
  and sel p = Handle.Map.exists p ti.sel in
  List.exists
    (fun pred -> Effect.satisfies_pred_with pred ~ins ~del ~upd ~sel)
    preds

let pp ppf ti = Effect.pp ppf (to_effect ti)
