(* The reference for rule processing: the semantics of paper Section 4
   stated directly, the differential oracle of the rule engine
   (lib/rules/engine.ml).

   The engine runs Figure 1: per-rule transition information kept
   incrementally ([init-trans-info], [modify-trans-info]), pruned to a
   rule's own tables, with the old values carried inside the effects,
   and rules woken through the discrimination index.  This module keeps
   none of that.  It records every transition of a rule-processing run
   — its flat effect and the state it started from — and recomputes
   what Section 4 asks for whenever it is asked:

   - a rule's transition is the composite, by Definition 2.1, of the
     transitions since its action last ran in this run, or since the
     external transition if it has not run (Section 4.2; a
     consideration whose condition is false does not restart it, as
     Figure 1 restarts the acting rule only);
   - its transition tables are read from that composite, the current
     state and the state the composite started from: [inserted],
     [new updated] and [selected] are current values, [deleted] and
     [old updated] values in that first state (Section 3);
   - a rule is triggered when its composite satisfies one of its basic
     transition predicates;
   - in each state, each triggered rule is considered at most once; the
     one considered is a triggered, unconsidered rule that no other such
     rule precedes in the transitive closure of the declared priorities
     (Section 4.4), the tie broken by the strategy the caller passes;
   - a considered rule whose condition holds runs its action, which
     makes a new state; a rollback action undoes the transaction;
     processing ends when no triggered rule is left unconsidered.

   Nothing comes from [Effect], [Engine], [Rule_index],
   [Transition_tables], [Compile], [Dml] or [Rule]: effects are the
   flat model [Flat], conditions and actions are evaluated by
   test/reference_eval.ml and data manipulation is [exec_op] below, over
   [Database] and [Table].  So a bug in restriction, in the per-rule
   composite, in old-value lookup or in waking shows up as a difference.

   Flesca and Greco ("Declarative Semantics for Active Rules") read a
   rule set as a relation between a transaction's start state and the
   states rule processing may end in.  That reading gives Section 4
   these invariants, which the reference holds by construction and the
   differential holds the engine to:
   - quiescence: in the final state, every triggered rule has been
     considered in that state and its condition was false;
   - every action ran in a state in which its rule was triggered, not
     yet considered, not preceded by another such rule, and its
     condition held;
   - a rule's composite is the net change of the transitions it spans:
     composing is associative, so the composite of a run does not
     depend on how its transitions are grouped (the effect properties
     of test/test_effect.ml check [Flat] against the engine's effect);
   - a rollback, or an error anywhere in the transaction, leaves the
     transaction's start state, as if it had not run.

   Two conventions the paper leaves open follow the engine's, and are
   documented there: "considered" time is a logical clock ticked at
   every consideration, and a rollback or error restores every rule's
   consideration time to the transaction's start. *)

open Core
module Cols = Set.Make (String)
module Str_map = Map.Make (String)
module Str_set = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* The flat effect model                                               *)

(* A transition's effect as four handle-keyed collections over all
   tables (Section 2.2, with Section 5.1's [S]); every operation is a
   pass over handles.  No old values: they are read from the state a
   composite started from. *)
module Flat = struct
  type t = {
    ins : Handle.Set.t;
    del : Handle.Set.t;
    upd : Cols.t Handle.Map.t; (* with the columns assigned *)
    sel : Cols.t Handle.Map.t; (* with the columns referenced *)
  }

  let empty =
    {
      ins = Handle.Set.empty;
      del = Handle.Set.empty;
      upd = Handle.Map.empty;
      sel = Handle.Map.empty;
    }

  let add_cols m h cols =
    Handle.Map.update h
      (function None -> Some cols | Some c -> Some (Cols.union c cols))
      m

  (* The effects of single operations, as Section 2.1 defines them. *)
  let inserted hs = { empty with ins = Handle.Set.of_list hs }
  let deleted hs = { empty with del = Handle.Set.of_list hs }

  let updated entries =
    let upd =
      List.fold_left
        (fun m (h, cols) -> add_cols m h (Cols.of_list cols))
        Handle.Map.empty entries
    in
    { empty with upd }

  (* Reads: per read, the columns referenced and the tuples read. *)
  let selected reads =
    let sel =
      List.fold_left
        (fun m (cols, hs) ->
          let cols = Cols.of_list cols in
          List.fold_left (fun m h -> add_cols m h cols) m hs)
        Handle.Map.empty reads
    in
    { empty with sel }

  (* Definition 2.1; [S] drops what [U] drops. *)
  let compose e1 e2 =
    let kept h _ = not (Handle.Set.mem h e2.del) in
    let fresh h = not (Handle.Set.mem h e1.ins) in
    let merge _ c1 c2 = Some (Cols.union c1 c2) in
    let net m1 m2 =
      Handle.Map.union merge (Handle.Map.filter kept m1)
        (Handle.Map.filter (fun h _ -> fresh h) m2)
    in
    {
      ins = Handle.Set.diff (Handle.Set.union e1.ins e2.ins) e2.del;
      del = Handle.Set.union e1.del (Handle.Set.filter fresh e2.del);
      upd = net e1.upd e2.upd;
      sel = net e1.sel e2.sel;
    }

  let restrict e keep =
    let on h = keep (Handle.table h) in
    {
      ins = Handle.Set.filter on e.ins;
      del = Handle.Set.filter on e.del;
      upd = Handle.Map.filter (fun h _ -> on h) e.upd;
      sel = Handle.Map.filter (fun h _ -> on h) e.sel;
    }

  let tables e =
    let add h acc = Cols.add (Handle.table h) acc in
    let add_key h _ acc = add h acc in
    Handle.Set.fold add e.ins Cols.empty
    |> Handle.Set.fold add e.del
    |> Handle.Map.fold add_key e.upd
    |> Handle.Map.fold add_key e.sel

  let in_table t h = String.equal (Handle.table h) t
  let on_column c cols = match c with None -> true | Some c -> Cols.mem c cols

  let satisfies_pred e (pred : Ast.basic_trans_pred) =
    let keyed t c m = Handle.Map.exists (fun h cols -> in_table t h && on_column c cols) m in
    match pred with
    | Ast.Tp_inserted t -> Handle.Set.exists (in_table t) e.ins
    | Ast.Tp_deleted t -> Handle.Set.exists (in_table t) e.del
    | Ast.Tp_updated (t, c) -> keyed t c e.upd
    | Ast.Tp_selected (t, c) -> keyed t c e.sel

  let satisfies_any e preds = List.exists (satisfies_pred e) preds

  let equal a b =
    Handle.Set.equal a.ins b.ins
    && Handle.Set.equal a.del b.del
    && Handle.Map.equal Cols.equal a.upd b.upd
    && Handle.Map.equal Cols.equal a.sel b.sel

  let cardinality e =
    Handle.Set.cardinal e.ins + Handle.Set.cardinal e.del
    + Handle.Map.cardinal e.upd + Handle.Map.cardinal e.sel

  let pp ppf e =
    let pp_handles ppf hs = Fmt.list ~sep:Fmt.comma Handle.pp ppf hs in
    let pp_cols ppf m =
      Fmt.list ~sep:Fmt.comma
        (fun ppf (h, cols) ->
          Fmt.pf ppf "%a{%s}" Handle.pp h (String.concat "," (Cols.elements cols)))
        ppf (Handle.Map.bindings m)
    in
    Fmt.pf ppf "[I={%a}; D={%a}; U={%a}" pp_handles (Handle.Set.elements e.ins)
      pp_handles (Handle.Set.elements e.del) pp_cols e.upd;
    if not (Handle.Map.is_empty e.sel) then Fmt.pf ppf "; S={%a}" pp_cols e.sel;
    Fmt.pf ppf "]"

  (* A transition table's rows, in handle order, for the composite [e]
     that started from state [start] and ends in [current]. *)
  let materialize e ~start ~current (tt : Ast.trans_table) =
    let t = Ast.trans_table_base tt in
    let handles hs = List.filter (in_table t) (Handle.Set.elements hs) in
    let keyed m col =
      List.filter_map
        (fun (h, cols) -> if in_table t h && on_column col cols then Some h else None)
        (Handle.Map.bindings m)
    in
    match tt with
    | Ast.Tt_inserted _ -> List.map (Database.get_row current) (handles e.ins)
    | Ast.Tt_deleted _ -> List.map (Database.get_row start) (handles e.del)
    | Ast.Tt_old_updated (_, c) -> List.map (Database.get_row start) (keyed e.upd c)
    | Ast.Tt_new_updated (_, c) -> List.map (Database.get_row current) (keyed e.upd c)
    | Ast.Tt_selected (_, c) -> List.filter_map (Database.find_row current) (keyed e.sel c)
end

(* ------------------------------------------------------------------ *)
(* Data manipulation                                                   *)

(* The tuples of [tbl], bound under [name], that pass [where], in
   handle order. *)
let passing tables name tbl where =
  let keep row =
    match where with
    | None -> true
    | Some w ->
      let env = [ [ { Reference_eval.name; bcols = Table.col_names tbl; row } ] ] in
      Reference_eval.holds (Reference_eval.expr tables env w)
  in
  List.rev (Table.fold (fun h row acc -> if keep row then (h, row) :: acc else acc) tbl [])

(* The columns of base table [binding] a select references, for the
   column granularity of its read (Section 5.1): named under the
   binding or unqualified, all of them for a star of the binding or a
   read naming none.  Subqueries count in full; the select's derived
   FROM items and compound arms do not. *)
let read_columns (s : Ast.select) all binding =
  let named = ref Cols.empty and every = ref false in
  let has c = Array.mem c all in
  let stars (sub : Ast.select) =
    List.iter
      (function
        | Ast.Star -> every := true
        | Ast.Table_star t -> if String.equal t binding then every := true
        | Ast.Proj _ -> ())
      sub.Ast.projections
  in
  let rec expr () = function
    | Ast.Col { qualifier = Some q; column } ->
      if String.equal q binding && has column then named := Cols.add column !named
    | Ast.Col { qualifier = None; column } -> if has column then named := Cols.add column !named
    | e -> Ast.fold_expr ~expr ~select () e
  and select () sub =
    stars sub;
    Ast.fold_select ~expr ~select () sub
  in
  stars s;
  Ast.fold_select ~expr ~select:(fun () _ -> ()) () s;
  if !every || Cols.is_empty !named then Array.to_list all else Cols.elements !named

(* What a select read: for a select of one base table without GROUP BY
   or compound arms, the tuples that passed WHERE; otherwise every
   tuple of each base table of any arm's FROM list. *)
let reads tables (s : Ast.select) =
  let read arm t alias where =
    let tbl = Database.table tables.Reference_eval.base t in
    let binding = Option.value alias ~default:t in
    ( read_columns arm (Table.col_names tbl) binding,
      List.map fst (passing tables binding tbl where) )
  in
  match s.Ast.from, s.Ast.group_by, s.Ast.compounds with
  | [ { Ast.source = Ast.Base t; alias } ], [], [] -> [ read s t alias s.Ast.where ]
  | _ ->
    List.concat_map
      (fun (arm : Ast.select) ->
        List.filter_map
          (fun (item : Ast.from_item) ->
            match item.Ast.source with
            | Ast.Base t -> Some (read arm t item.Ast.alias None)
            | Ast.Transition _ | Ast.Derived _ -> None)
          arm.Ast.from)
      (s :: List.map snd s.Ast.compounds)

(* One operation (Section 2.1): the tuples it touches are identified in
   the state it starts from, then changed.  Returns the new state and
   the operation's effect; a select is evaluated for its errors and its
   reads. *)
let exec_op ~track_selects ~transition db (op : Ast.op) =
  let tables = { Reference_eval.base = db; transition } in
  match op with
  | Ast.Insert { table; columns; source } ->
    let schema = Table.schema (Database.table db table) in
    let arity = Schema.arity schema in
    let position values =
      match columns with
      | None ->
        if List.length values <> arity then
          Errors.raise_error
            (Errors.Arity_error { table; expected = arity; got = List.length values });
        Array.of_list values
      | Some cols ->
        if List.length cols <> List.length values then
          Errors.semantic "column list and value list have different lengths";
        let row =
          Array.map (fun c -> Option.value c.Schema.default ~default:Value.Null) schema.Schema.columns
        in
        List.iter2 (fun c v -> row.(Schema.column_index schema c) <- v) cols values;
        row
    in
    let rows =
      match source with
      | `Values exprss -> List.map (fun es -> position (List.map (Reference_eval.expr tables []) es)) exprss
      | `Select s ->
        List.map (fun row -> position (Array.to_list row)) (Reference_eval.select ~transition db s).Reference_eval.rows
    in
    let db, hs =
      List.fold_left
        (fun (db, hs) row ->
          let db, h = Database.insert db table row in
          (db, h :: hs))
        (db, []) rows
    in
    (db, Flat.inserted hs)
  | Ast.Delete { table; where } ->
    let vs = passing tables table (Database.table db table) where in
    (List.fold_left (fun db (h, _) -> Database.delete db h) db vs, Flat.deleted (List.map fst vs))
  | Ast.Update { table; sets; where } ->
    let schema = Database.schema db table in
    List.iter
      (fun (c, _) ->
        if not (Schema.has_column schema c) then
          Errors.raise_error (Errors.Unknown_column { table = Some table; column = c }))
      sets;
    let tbl = Database.table db table in
    let vs = passing tables table tbl where in
    let changed =
      List.map
        (fun (h, row) ->
          let env = [ [ { Reference_eval.name = table; bcols = Table.col_names tbl; row } ] ] in
          let row' = Array.copy row in
          List.iter (fun (c, e) -> row'.(Schema.column_index schema c) <- Reference_eval.expr tables env e) sets;
          (h, row'))
        vs
    in
    let cols = List.map fst sets in
    ( List.fold_left (fun db (h, row) -> Database.update db h row) db changed,
      Flat.updated (List.map (fun (h, _) -> (h, cols)) vs) )
  | Ast.Select_op s ->
    ignore (Reference_eval.select ~transition db s);
    (db, if track_selects then Flat.selected (reads tables s) else Flat.empty)

(* A block: each operation sees the state its predecessors left. *)
let exec_block ~track_selects ~transition db ops =
  List.fold_left
    (fun (db, eff) op ->
      let db, e = exec_op ~track_selects ~transition:(transition db) db op in
      (db, Flat.compose eff e))
    (db, Flat.empty) ops

(* ------------------------------------------------------------------ *)
(* Rule processing (Section 4)                                         *)

type catalog = {
  rules : Ast.rule_def list; (* in creation order *)
  priorities : (string * string) list; (* declared (before, after) pairs *)
  strategy : Selection.strategy;
  max_steps : int;
  track_selects : bool;
}

let catalog ?(priorities = []) ?(strategy = Selection.Creation_order) ?(max_steps = 10_000)
    ?(track_selects = false) rules =
  { rules; priorities; strategy; max_steps; track_selects }

(* What happened, in the engine's trace vocabulary. *)
type event =
  | External of int (* effect size *)
  | Considered of string * bool (* condition held *)
  | Fired of string * int
  | Rollback of string
  | Abort
  | Quiescent

let pp_event ppf = function
  | External n -> Fmt.pf ppf "external (%d)" n
  | Considered (r, held) -> Fmt.pf ppf "considered %s: %b" r held
  | Fired (r, n) -> Fmt.pf ppf "fired %s (%d)" r n
  | Rollback r -> Fmt.pf ppf "rollback by %s" r
  | Abort -> Fmt.string ppf "abort"
  | Quiescent -> Fmt.string ppf "quiescent"

(* [a] precedes [b] in the transitive closure of the declared pairs. *)
let precedes cat a b =
  let rec reach seen = function
    | [] -> false
    | x :: rest ->
      let next = List.filter_map (fun (h, l) -> if String.equal h x then Some l else None) cat.priorities in
      List.exists (String.equal b) next
      || reach (x :: seen) (List.filter (fun n -> not (List.mem n seen)) next @ rest)
  in
  reach [] [ a ]

(* The state of one rule-processing run. *)
type run = {
  db : Database.t;
  transitions : (Flat.t * Database.t) list;
      (* every transition of the run, oldest first — the external one,
         then one per action — with the state it started from *)
  last_ran : int Str_map.t; (* per rule whose action ran, its transition's index *)
  considered : Str_set.t; (* in the current state *)
  steps : int;
  clock : int;
  last_considered : int Str_map.t; (* clock time of each rule's last consideration *)
  trace : event list; (* newest first *)
}

let name (r : Ast.rule_def) = r.Ast.rule_name

(* A rule's transition: the composite since its action last ran, or
   since the external transition, and the state it started from. *)
let transition_of p r =
  let k = Option.value (Str_map.find_opt (name r) p.last_ran) ~default:0 in
  let span = List.filteri (fun i _ -> i >= k) p.transitions in
  (List.fold_left (fun e (e', _) -> Flat.compose e e') Flat.empty span, snd (List.hd span))

let triggered p r = Flat.satisfies_any (fst (transition_of p r)) r.Ast.trans_preds

(* The rules that may be considered next, in creation order. *)
let eligible cat p =
  let candidates =
    List.filter (fun r -> (not (Str_set.mem (name r) p.considered)) && triggered p r) cat.rules
  in
  List.filter
    (fun r -> not (List.exists (fun r' -> precedes cat (name r') (name r)) candidates))
    candidates

let choose cat p =
  let seq r =
    let rec go i = function x :: rest -> if x == r then i else go (i + 1) rest | [] -> i in
    go 0 cat.rules
  in
  let time r = Option.value (Str_map.find_opt (name r) p.last_considered) ~default:0 in
  let better a b =
    match cat.strategy with
    | Selection.Creation_order -> seq a < seq b
    | Selection.Least_recently_considered -> time a < time b || (time a = time b && seq a < seq b)
    | Selection.Most_recently_considered -> time a > time b || (time a = time b && seq a < seq b)
  in
  match eligible cat p with
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun cur r -> if better r cur then r else cur) first rest)

type step = Next of run | Rolled_back of run | Aborted of run * Errors.t

(* Consider rule [r] in the run's current state.  An error raised by
   its condition or action aborts the run, after the events so far. *)
let consider cat p r =
  let clock = p.clock + 1 in
  let p = { p with clock; last_considered = Str_map.add (name r) clock p.last_considered } in
  let composite, start = transition_of p r in
  let transition current tt =
    let rows = Flat.materialize composite ~start ~current tt in
    let tbl = Database.table current (Ast.trans_table_base tt) in
    { Reference_eval.cols = Table.col_names tbl; rows }
  in
  match
    match r.Ast.condition with
    | None -> true
    | Some c -> Reference_eval.predicate ~transition:(transition p.db) p.db c
  with
  | exception Errors.Error e -> Aborted (p, e)
  | held -> (
    let p =
      { p with considered = Str_set.add (name r) p.considered; trace = Considered (name r, held) :: p.trace }
    in
    match r.Ast.action with
    | _ when not held -> Next p
    | Ast.Act_rollback -> Rolled_back { p with trace = Rollback (name r) :: p.trace }
    | Ast.Act_call _ -> invalid_arg "Reference_rules: procedure actions are not modelled"
    | Ast.Act_block ops -> (
      let steps = p.steps + 1 in
      match
        if steps > cat.max_steps then
          Errors.raise_error (Errors.Rule_limit_exceeded { rule = name r; steps });
        exec_block ~track_selects:cat.track_selects ~transition p.db ops
      with
      | exception Errors.Error e -> Aborted (p, e)
      | db, eff ->
        Next
          {
            p with
            db;
            transitions = p.transitions @ [ (eff, p.db) ];
            last_ran = Str_map.add (name r) (List.length p.transitions) p.last_ran;
            considered = Str_set.empty;
            steps;
            trace = Fired (name r, Flat.cardinality eff) :: p.trace;
          }))

(* Processing after an external transition [eff] from state [before]
   to [db]. *)
let start ~clock ~last_considered ~trace ~before db eff =
  {
    db;
    transitions = [ (eff, before) ];
    last_ran = Str_map.empty;
    considered = Str_set.empty;
    steps = 0;
    clock;
    last_considered;
    trace = External (Flat.cardinality eff) :: trace;
  }

(* Consider rules, chosen by the catalog's strategy, to the end. *)
let rec process cat p =
  match choose cat p with
  | None -> Next { p with trace = Quiescent :: p.trace }
  | Some r -> ( match consider cat p r with Next p -> process cat p | ended -> ended)

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

(* The reference system: the committed state, the consideration clock
   and the rules' last consideration times, which outlive
   transactions. *)
type t = { cat : catalog; state : Database.t; time : int; last : int Str_map.t }

let create cat db = { cat; state = db; time = 0; last = Str_map.empty }
let database r = r.state

type outcome = Committed | Rolled_back_txn | Failed of Errors.t

(* One transaction of [segments], the operation blocks between its
   triggering points (Section 5.3): rules are processed after each, the
   last time at commit.  A failing block undoes the transaction without
   an abort event, an error during rule processing with one.  Either
   way, and on a rollback, the transaction's start state and the
   consideration times it started with are restored; the clock runs on.
   Returns the new system, the outcome and the transaction's trace,
   oldest first. *)
let run_txn r segments =
  let undo time trace outcome = ({ r with time }, outcome, List.rev trace) in
  let rec go db time last trace = function
    | [] -> ({ r with state = db; time; last }, Committed, List.rev trace)
    | ops :: rest -> (
      let no_transitions _ = Reference_eval.no_transitions in
      match exec_block ~track_selects:r.cat.track_selects ~transition:no_transitions db ops with
      | exception Errors.Error e -> undo time trace (Failed e)
      | db', eff -> (
        match process r.cat (start ~clock:time ~last_considered:last ~trace ~before:db db' eff) with
        | Next p -> go p.db p.clock p.last_considered p.trace rest
        | Rolled_back p -> undo p.clock p.trace Rolled_back_txn
        | Aborted (p, e) -> undo p.clock (Abort :: p.trace) (Failed e)))
  in
  go r.state r.time r.last [] segments

(* Every order Section 4.4 allows: the final state of each, [None] for
   a rollback, and the rules considered along each order that ran
   past [max_steps]. *)
let explore cat db ops =
  let db', eff =
    exec_block ~track_selects:cat.track_selects ~transition:(fun _ -> Reference_eval.no_transitions) db ops
  in
  let finals = ref [] and over = ref [] in
  let rec go path p =
    match eligible cat p with
    | [] -> finals := Some p.db :: !finals
    | rules ->
      List.iter
        (fun r ->
          match consider cat p r with
          | Next p' -> go (name r :: path) p'
          | Rolled_back _ -> finals := None :: !finals
          | Aborted (_, Errors.Rule_limit_exceeded _) -> over := List.rev (name r :: path) :: !over
          | Aborted (_, e) -> Errors.raise_error e)
        rules
  in
  go [] (start ~clock:0 ~last_considered:Str_map.empty ~trace:[] ~before:db db' eff);
  (List.rev !finals, List.rev !over)
