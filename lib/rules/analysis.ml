(* Static rule analysis (paper Section 6): build the may-trigger graph
   over a rule set and report

   - potential infinite loops: cycles in the may-trigger graph
     (including self-loops, as in Example 4.1 — not necessarily an
     error, but worth a warning);
   - potential order dependence: two rules that can be triggered by a
     common transition, are unordered by the declared priorities, and
     are not commutative (one writes data the other reads or writes),
     so the final database state may depend on the selection order.

   The analysis is conservative (syntactic): it over-approximates both
   triggering and data access, so absence of a warning is meaningful
   while presence is only a "may". *)

module Ast = Sqlf.Ast
module Str_set = Set.Make (String)

(* The write footprint of an operation, as basic transition predicates
   it can satisfy. *)
let op_writes = function
  | Ast.Insert { table; _ } -> [ Ast.Tp_inserted table ]
  | Ast.Delete { table; _ } -> [ Ast.Tp_deleted table ]
  | Ast.Update { table; sets; _ } ->
    (* the updated column set is statically known: one write per SET
       column (a column-specific write still satisfies the
       column-unspecific predicate "updated t") *)
    List.map (fun (c, _) -> Ast.Tp_updated (table, Some c)) sets
  | Ast.Select_op s ->
    List.filter_map
      (fun item ->
        match item.Ast.source with
        | Ast.Base t -> Some (Ast.Tp_selected (t, None))
        | Ast.Transition _ | Ast.Derived _ -> None)
      s.Ast.from

(* Can a write matching [w] trigger predicate [p]? *)
let write_triggers w p =
  match w, p with
  | Ast.Tp_inserted t, Ast.Tp_inserted t' -> String.equal t t'
  | Ast.Tp_deleted t, Ast.Tp_deleted t' -> String.equal t t'
  | Ast.Tp_updated (t, _), Ast.Tp_updated (t', None) -> String.equal t t'
  | Ast.Tp_updated (t, Some c), Ast.Tp_updated (t', Some c') ->
    String.equal t t' && String.equal c c'
  | Ast.Tp_updated (t, None), Ast.Tp_updated (t', Some _) ->
    (* an update with an unknown column set may touch any column *)
    String.equal t t'
  | Ast.Tp_selected (t, _), Ast.Tp_selected (t', _) -> String.equal t t'
  | _ -> false

let rule_action_writes (r : Rule.t) =
  match Rule.action r with
  | Ast.Act_rollback -> []
  | Ast.Act_call _ ->
    (* an external procedure may perform arbitrary operations *)
    [ Ast.Tp_inserted "*"; Ast.Tp_deleted "*"; Ast.Tp_updated ("*", None) ]
  | Ast.Act_block ops -> List.concat_map op_writes ops

let wildcard_triggers w p =
  match w, p with
  | Ast.Tp_inserted "*", Ast.Tp_inserted _ -> true
  | Ast.Tp_deleted "*", Ast.Tp_deleted _ -> true
  | Ast.Tp_updated ("*", None), Ast.Tp_updated _ -> true
  | _ -> write_triggers w p

(* r1 may-trigger r2: some write of r1's action satisfies some basic
   transition predicate of r2. *)
let may_trigger (r1 : Rule.t) (r2 : Rule.t) =
  let writes = rule_action_writes r1 in
  List.exists
    (fun p -> List.exists (fun w -> wildcard_triggers w p) writes)
    (Rule.trans_preds r2)

type edge = { from_rule : string; to_rule : string }

let triggering_graph rules =
  List.concat_map
    (fun r1 ->
      List.filter_map
        (fun r2 ->
          if may_trigger r1 r2 then
            Some { from_rule = r1.Rule.name; to_rule = r2.Rule.name }
          else None)
        rules)
    rules

(* ------------------------------------------------------------------ *)
(* Cycle detection                                                     *)

(* Enumerate elementary cycles reachable in the may-trigger graph,
   reported as name lists [r1; ...; rk] meaning r1 -> ... -> rk -> r1.
   A bounded DFS is plenty for rule-catalog-sized graphs. *)
let cycles rules =
  let names = List.map (fun r -> r.Rule.name) rules in
  let edges = triggering_graph rules in
  let succ name =
    List.filter_map
      (fun e -> if String.equal e.from_rule name then Some e.to_rule else None)
      edges
  in
  let found = ref [] in
  let seen_cycle = Hashtbl.create 16 in
  let canonical cycle =
    (* rotate so the smallest name is first, making duplicates easy to
       detect *)
    let min_name = List.fold_left min (List.hd cycle) cycle in
    let rec rotate acc = function
      | [] -> assert false
      | x :: rest when String.equal x min_name -> (x :: rest) @ List.rev acc
      | x :: rest -> rotate (x :: acc) rest
    in
    rotate [] cycle
  in
  let rec dfs start path node =
    if String.equal node start && path <> [] then begin
      let cycle = canonical (List.rev path) in
      let key = String.concat "\x00" cycle in
      if not (Hashtbl.mem seen_cycle key) then begin
        Hashtbl.add seen_cycle key ();
        found := cycle :: !found
      end
    end
    else if List.exists (String.equal node) path then ()
    else List.iter (dfs start (node :: path)) (succ node)
  in
  List.iter (fun n -> List.iter (dfs n [ n ]) (succ n)) names;
  List.rev !found

(* ------------------------------------------------------------------ *)
(* Order-dependence (conflict) analysis                                *)

(* Tables read by a rule's condition and action: every FROM source at
   every nesting level (a transition table reads its base table), and
   the target of a DELETE or UPDATE. *)
let rule_reads (r : Rule.t) =
  let add acc = function
    | Ast.Base t -> Str_set.add t acc
    | Ast.Transition tt -> Str_set.add (Ast.trans_table_base tt) acc
    | Ast.Derived _ -> acc
  in
  let acc =
    Option.fold ~none:Str_set.empty
      ~some:(Ast.fold_sources_expr add Str_set.empty)
      (Rule.condition r)
  in
  match Rule.action r with
  | Ast.Act_rollback -> acc
  | Ast.Act_call _ -> Str_set.singleton "*"
  | Ast.Act_block ops ->
    List.fold_left
      (fun acc op ->
        let acc =
          match op with
          | Ast.Delete { table; _ } | Ast.Update { table; _ } -> Str_set.add table acc
          | Ast.Insert _ | Ast.Select_op _ -> acc
        in
        Ast.fold_sources_op add acc op)
      acc ops

let rule_write_tables (r : Rule.t) =
  List.fold_left
    (fun acc w ->
      match w with
      | Ast.Tp_inserted t | Ast.Tp_deleted t | Ast.Tp_updated (t, _) ->
        Str_set.add t acc
      | Ast.Tp_selected _ -> acc)
    Str_set.empty (rule_action_writes r)

(* Two rules possibly triggered together whose order can matter. *)
let conflicting r1 r2 =
  let common_trigger =
    (* both can be triggered by one transition: their predicate tables
       and kinds need not coincide — any transition touching both
       tables triggers both — so "possibly co-triggered" is simply both
       having predicates. *)
    Rule.trans_preds r1 <> [] && Rule.trans_preds r2 <> []
  in
  let w1 = rule_write_tables r1 and w2 = rule_write_tables r2 in
  let reads1 = rule_reads r1 and reads2 = rule_reads r2 in
  let wildcard s = Str_set.mem "*" s in
  let inter a b = (not (Str_set.is_empty (Str_set.inter a b))) || wildcard a || wildcard b in
  common_trigger
  && (inter w1 w2 || inter w1 reads2 || inter w2 reads1)

type conflict = { rule1 : string; rule2 : string }

type report = {
  graph : edge list;
  potential_loops : string list list;
  order_conflicts : conflict list;
}

let analyze ?(priorities = Priority.empty) rules =
  let graph = triggering_graph rules in
  let potential_loops = cycles rules in
  let rec pairs = function
    | [] -> []
    | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
  in
  let order_conflicts =
    List.filter_map
      (fun (r1, r2) ->
        let ordered =
          Priority.higher priorities r1.Rule.name r2.Rule.name
          || Priority.higher priorities r2.Rule.name r1.Rule.name
        in
        if (not ordered) && conflicting r1 r2 then
          Some { rule1 = r1.Rule.name; rule2 = r2.Rule.name }
        else None)
      (pairs rules)
  in
  { graph; potential_loops; order_conflicts }

let pp_report ppf r =
  let pp_edge ppf e = Fmt.pf ppf "%s -> %s" e.from_rule e.to_rule in
  let pp_cycle ppf c = Fmt.pf ppf "%s" (String.concat " -> " (c @ [ List.hd c ])) in
  let pp_conflict ppf c = Fmt.pf ppf "%s <-> %s" c.rule1 c.rule2 in
  Fmt.pf ppf
    "@[<v>may-trigger edges:@,  @[<v>%a@]@,potential loops:@,  \
     @[<v>%a@]@,unordered conflicting pairs:@,  @[<v>%a@]@]"
    (Fmt.list ~sep:Fmt.cut pp_edge) r.graph
    (Fmt.list ~sep:Fmt.cut pp_cycle) r.potential_loops
    (Fmt.list ~sep:Fmt.cut pp_conflict) r.order_conflicts
