(* Rule selection (paper Section 4.4).

   When several rules are triggered simultaneously, the engine picks a
   rule such that no other triggered rule is strictly higher in the
   user-declared partial order.  Among the remaining incomparable
   rules, a strategy breaks the tie:

   - [Creation_order]: the earliest-defined rule (deterministic default);
   - [Least_recently_considered]: prefer rules considered longest ago —
     round-robin-ish fairness;
   - [Most_recently_considered]: prefer rules considered most recently —
     depth-first-ish chaining.

   "Considered" means the rule was chosen and its condition evaluated,
   whether or not its action ran (the paper mentions both readings; we
   use consideration time). *)

type strategy =
  | Creation_order
  | Least_recently_considered
  | Most_recently_considered

type clock = { mutable now : int }

let make_clock () = { now = 0 }

let tick clock =
  clock.now <- clock.now + 1;
  clock.now

(* The candidates no other candidate is strictly higher than in the
   declared partial order: the rules Section 4.4 allows to be selected
   next. *)
let eligible priorities candidates =
  List.filter
    (fun (r : Rule.t) ->
      not
        (List.exists
           (fun (r' : Rule.t) ->
             Priority.higher priorities r'.Rule.name r.Rule.name)
           candidates))
    candidates

(* Pick from [candidates] (rules triggered and not yet considered in
   the current state).  [last_considered name] returns the clock time
   the rule was last considered, or 0 if never. *)
let choose strategy priorities ~last_considered candidates =
  let better (a : Rule.t) (b : Rule.t) =
    match strategy with
    | Creation_order -> a.Rule.seq < b.Rule.seq
    | Least_recently_considered ->
      let ta = last_considered a.Rule.name
      and tb = last_considered b.Rule.name in
      ta < tb || (ta = tb && a.Rule.seq < b.Rule.seq)
    | Most_recently_considered ->
      let ta = last_considered a.Rule.name
      and tb = last_considered b.Rule.name in
      ta > tb || (ta = tb && a.Rule.seq < b.Rule.seq)
  in
  match eligible priorities candidates with
  | first :: rest ->
    Some
      (List.fold_left (fun cur r -> if better r cur then r else cur) first rest)
  | [] ->
    (* The partial order is acyclic, so a non-empty candidate set has a
       maximal element. *)
    assert (List.is_empty candidates);
    None
