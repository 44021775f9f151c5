(* The reference evaluator: SQL semantics in the fewest lines, the
   differential oracle of the compiled evaluator (lib/sql/compile.ml).

   A select is evaluated by nested loops over the cross product of its
   FROM list, with WHERE as a filter over every row, then grouping,
   HAVING, projection, ORDER BY, DISTINCT, LIMIT and compound
   operators.  There is no index, no hash join, no early stop and no
   memo: every subquery is re-evaluated wherever it is reached.  Only
   [Ast], [Value], [Functions], [Errors] and table iteration are used —
   nothing from [Eval], [Compile] or [Dml] — so a bug in the planner or
   join code the engine shares shows up as a difference.  Transition
   tables come from a resolver the caller passes (the rule reference,
   test/reference_rules.ml, materializes them); without one a
   transition table is an [Invalid_transition_reference].

   Evaluation order is SQL's clause order, each clause over every row
   before the next: FROM sources resolved in order, then the duplicate
   binding check, WHERE, GROUP BY keys, HAVING and the projections group
   by group (an aggregate evaluates every argument of its group before
   folding), ORDER BY keys.  So the first error raised is the one the
   engine reports, whenever the engine evaluates the same rows. *)

open Core

type relation = { cols : string array; rows : Row.t list }

(* Where FROM items are read: base tables from a database state,
   transition tables through a resolver. *)
type tables = { base : Database.t; transition : Ast.trans_table -> relation }

(* One FROM binding: its name, columns and current row. *)
type binding = { name : string; bcols : string array; row : Row.t }

(* Scopes innermost first; a scope is the bindings of one FROM list in
   FROM order. *)
type env = binding list list

let truth v =
  match v with
  | Value.Bool true -> Value.True
  | Value.Bool false -> Value.False
  | Value.Null -> Value.Unknown
  | v -> Errors.type_error "expected a boolean predicate value, got %s" (Value.to_string v)

let of_truth = function
  | Value.True -> Value.Bool true
  | Value.False -> Value.Bool false
  | Value.Unknown -> Value.Null

let holds v = Value.truth_holds (truth v)

let index_of cols c =
  let rec go i = if i >= Array.length cols then None else if cols.(i) = c then Some i else go (i + 1) in
  go 0

let lookup (env : env) qualifier column =
  let in_scope scope =
    match qualifier with
    | Some q -> (
      match List.find_opt (fun b -> b.name = q) scope with
      | None -> None
      | Some b -> (
        match index_of b.bcols column with
        | Some i -> Some b.row.(i)
        | None -> Errors.raise_error (Errors.Unknown_column { table = Some q; column })))
    | None -> (
      match List.filter_map (fun b -> Option.map (fun i -> b.row.(i)) (index_of b.bcols column)) scope with
      | [] -> None
      | [ v ] -> Some v
      | _ -> Errors.raise_error (Errors.Ambiguous_column column))
  in
  match List.find_map in_scope env with
  | Some v -> v
  | None -> Errors.raise_error (Errors.Unknown_column { table = qualifier; column })

let in_list v values =
  of_truth (List.fold_left (fun acc x -> Value.truth_or acc (Value.eq_sql v x)) Value.False values)

let compare_with op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let single_column what rel =
  if Array.length rel.cols <> 1 then Errors.semantic "%s must return a single column" what

let dedupe rows =
  List.rev
    (List.fold_left
       (fun acc r -> if List.exists (fun x -> Row.compare_total x r = 0) acc then acc else r :: acc)
       [] rows)

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let sort_by keys_of rows =
  let rec cmp a b =
    match a, b with
    | (va, dir) :: ra, (vb, _) :: rb ->
      let c = Value.compare_total va vb in
      let c = if dir = `Desc then -c else c in
      if c <> 0 then c else cmp ra rb
    | _ -> 0
  in
  List.map (fun r -> (keys_of r, r)) rows
  |> List.stable_sort (fun (a, _) (b, _) -> cmp a b)
  |> List.map snd

let proj_name e = match e with Ast.Col { column; _ } -> column | e -> Pretty.expr_str e

(* Is the select grouped: GROUP BY, or an aggregate in HAVING or a
   projection (not inside a subquery)? *)
let grouped (s : Ast.select) =
  let rec agg found = function
    | Ast.Agg _ -> true
    | e -> found || Ast.fold_expr ~expr:agg ~select:(fun f _ -> f) false e
  in
  s.Ast.group_by <> []
  || Option.fold ~none:false ~some:(agg false) s.Ast.having
  || List.exists (function Ast.Proj (e, _) -> agg false e | _ -> false) s.Ast.projections

(* [group]: the row environments of the group an aggregate ranges
   over, inside HAVING and the projections of a grouped select. *)
let rec expr db ?group (env : env) (e : Ast.expr) : Value.t =
  let ev = expr db ?group env in
  match e with
  | Ast.Lit v -> v
  | Ast.Param i ->
    Errors.raise_error
      (Errors.Parameter_error
         (Printf.sprintf "parameter %d is unbound (use PREPARE/EXECUTE)" (i + 1)))
  | Ast.Col { qualifier; column } -> lookup env qualifier column
  | Ast.Binop (op, a, b) ->
    let va = ev a and vb = ev b in
    (match op with
    | Ast.Add -> Value.add
    | Ast.Sub -> Value.sub
    | Ast.Mul -> Value.mul
    | Ast.Div -> Value.div
    | Ast.Mod -> Value.rem
    | Ast.Concat -> Value.concat)
      va vb
  | Ast.Neg a -> Value.neg (ev a)
  | Ast.Cmp (op, a, b) -> (
    let va = ev a and vb = ev b in
    let c = Value.compare_sql va vb in
    if c = Value.unknown_cmp then Value.Null else Value.Bool (compare_with op c))
  | Ast.And (a, b) ->
    (* both operands, the right one first, as the engine does *)
    let tb = truth (ev b) in
    of_truth (Value.truth_and (truth (ev a)) tb)
  | Ast.Or (a, b) ->
    let tb = truth (ev b) in
    of_truth (Value.truth_or (truth (ev a)) tb)
  | Ast.Not a -> of_truth (Value.truth_not (truth (ev a)))
  | Ast.Is_null a -> Value.Bool (Value.is_null (ev a))
  | Ast.Is_not_null a -> Value.Bool (not (Value.is_null (ev a)))
  | Ast.In_list (a, es) ->
    let v = ev a in
    in_list v (List.map ev es)
  | Ast.Not_in_list (a, es) ->
    let v = ev a in
    of_truth (Value.truth_not (truth (in_list v (List.map ev es))))
  | Ast.In_select (a, s) ->
    let v = ev a in
    in_list v (column_values db env s)
  | Ast.Not_in_select (a, s) ->
    let v = ev a in
    of_truth (Value.truth_not (truth (in_list v (column_values db env s))))
  | Ast.Exists s -> Value.Bool ((select_in db env s).rows <> [])
  | Ast.Between (a, lo, hi) ->
    let v = ev a in
    let vl = ev lo and vh = ev hi in
    let side f b =
      let c = Value.compare_sql v b in
      if c = Value.unknown_cmp then Value.Unknown else Value.truth_of_bool (f c)
    in
    (* the upper bound first, as AND's right operand *)
    let le = side (fun c -> c <= 0) vh in
    of_truth (Value.truth_and (side (fun c -> c >= 0) vl) le)
  | Ast.Like (a, p) ->
    let vp = ev p in
    of_truth (Value.like (ev a) vp)
  | Ast.Scalar_select s -> (
    let rel = select_in db env s in
    single_column "scalar subquery" rel;
    match rel.rows with
    | [] -> Value.Null
    | [ row ] -> row.(0)
    | _ -> Errors.semantic "scalar subquery returned more than one row")
  | Ast.Agg (fn, arg) -> aggregate db group fn arg
  | Ast.Fn (name, args) -> Sqlf.Functions.apply name (List.map ev args)
  | Ast.Case (branches, else_) -> (
    match List.find_opt (fun (c, _) -> holds (ev c)) branches with
    | Some (_, v) -> ev v
    | None -> Option.fold ~none:Value.Null ~some:ev else_)

and column_values db env s =
  let rel = select_in db env s in
  single_column "IN subquery" rel;
  List.map (fun row -> row.(0)) rel.rows

and aggregate db group fn arg =
  match group, fn, arg with
  | None, _, _ -> Errors.semantic "aggregate function used outside a grouped query"
  | Some rows, Ast.Count_star, _ -> Value.Int (List.length rows)
  | Some _, _, None -> Errors.semantic "aggregate function requires an argument"
  | Some rows, fn, Some e -> (
    let values =
      List.filter (fun v -> not (Value.is_null v)) (List.map (fun env -> expr db env e) rows)
    in
    let fold f = match values with [] -> Value.Null | v :: rest -> List.fold_left f v rest in
    let sum () = List.fold_left Value.add (Value.Int 0) values in
    match fn with
    | Ast.Count_star | Ast.Count -> Value.Int (List.length values)
    | Ast.Sum -> if values = [] then Value.Null else sum ()
    | Ast.Avg -> (
      if values = [] then Value.Null
      else
        match Value.to_float (sum ()) with
        | Some f -> Value.Float (f /. float_of_int (List.length values))
        | None -> Errors.type_error "avg over non-numeric values")
    | Ast.Min -> fold (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
    | Ast.Max -> fold (fun acc v -> if Value.compare_total v acc > 0 then v else acc))

(* A select evaluated within the scopes [outer]. *)
and select_in db (outer : env) (s : Ast.select) : relation =
  match s.Ast.compounds with
  | [] -> core db outer s
  | arms ->
    let head = core db outer { s with Ast.compounds = []; order_by = []; limit = None } in
    let combine rows (op, arm) =
      let part = core db outer arm in
      if Array.length part.cols <> Array.length head.cols then
        Errors.semantic "compound select operands must have the same number of columns";
      let mem r = List.exists (fun x -> Row.compare_total x r = 0) part.rows in
      match op with
      | Ast.Union_all -> rows @ part.rows
      | Ast.Union -> dedupe (rows @ part.rows)
      | Ast.Except -> dedupe (List.filter (fun r -> not (mem r)) rows)
      | Ast.Intersect -> dedupe (List.filter mem rows)
    in
    let rows = sort_by (output_keys db s.Ast.order_by head.cols) (List.fold_left combine head.rows arms) in
    { cols = head.cols; rows = Option.fold ~none:rows ~some:(fun n -> take n rows) s.Ast.limit }

(* The ORDER BY keys of an output row, bound alone under its column
   names. *)
and output_keys db order_by cols row =
  let env = [ [ { name = ""; bcols = cols; row } ] ] in
  List.map (fun (e, dir) -> (expr db env e, dir)) order_by

(* The FROM sources in order: binding name, columns and rows. *)
and sources db outer (s : Ast.select) =
  List.mapi
    (fun i (item : Ast.from_item) ->
      let name default = Option.value item.Ast.alias ~default in
      match item.Ast.source with
      | Ast.Derived sub ->
        let rel = select_in db outer sub in
        (name (Printf.sprintf "$%d" i), rel.cols, rel.rows)
      | Ast.Base t ->
        let tbl = Database.table db.base t in
        (name t, Table.col_names tbl, Table.rows tbl)
      | Ast.Transition tt ->
        let rel = db.transition tt in
        (name (Ast.trans_table_base tt), rel.cols, rel.rows))
    s.Ast.from

and core db (outer : env) (s : Ast.select) : relation =
  let srcs = sources db outer s in
  let rec duplicate = function
    | [] -> ()
    | (n, _, _) :: rest ->
      if List.exists (fun (m, _, _) -> m = n) rest then
        Errors.semantic "duplicate table name %S in from clause; use an alias" n;
      duplicate rest
  in
  duplicate srcs;
  (* the cross product, source 0 outermost; each environment's local
     scope lists the bindings in FROM order *)
  let frames =
    List.fold_left
      (fun frames (name, bcols, rows) ->
        List.concat_map (fun f -> List.map (fun row -> f @ [ { name; bcols; row } ]) rows) frames)
      [ [] ] srcs
  in
  let envs = List.map (fun f -> f :: outer) frames in
  let envs =
    match s.Ast.where with None -> envs | Some w -> List.filter (fun env -> holds (expr db env w)) envs
  in
  let project ?group env =
    let local = match env with scope :: _ -> scope | [] -> [] in
    let columns b = List.mapi (fun i c -> (c, b.row.(i))) (Array.to_list b.bcols) in
    List.concat_map
      (function
        | Ast.Star -> List.concat_map columns local
        | Ast.Table_star t -> (
          match List.find_opt (fun b -> b.name = t) local with
          | Some b -> columns b
          | None -> Errors.raise_error (Errors.Unknown_table t))
        | Ast.Proj (e, alias) ->
          [ (Option.value alias ~default:(proj_name e), expr db ?group env e) ])
      s.Ast.projections
  in
  let outputs =
    if not (grouped s) then
      let projected = List.map (fun env -> project env) envs in
      List.combine envs projected
      |> sort_by (fun (env, _) -> List.map (fun (e, dir) -> (expr db env e, dir)) s.Ast.order_by)
      |> List.map snd
    else
      let groups =
        if s.Ast.group_by = [] then [ envs ]
        else
          let keyed = List.map (fun env -> (Array.of_list (List.map (expr db env) s.Ast.group_by), env)) envs in
          List.fold_left
            (fun groups (key, env) ->
              if List.exists (fun (k, _) -> Row.compare_total k key = 0) groups then
                List.map (fun (k, g) -> if Row.compare_total k key = 0 then (k, env :: g) else (k, g)) groups
              else groups @ [ (key, [ env ]) ])
            [] keyed
          |> List.map (fun (_, g) -> List.rev g)
      in
      let output group =
        let rep = match group with env :: _ -> env | [] -> [] :: outer in
        let keep = match s.Ast.having with None -> true | Some h -> holds (expr db ~group rep h) in
        if keep then Some (project ~group rep) else None
      in
      List.filter_map output groups
      |> sort_by (fun p ->
             output_keys db s.Ast.order_by
               (Array.of_list (List.map fst p))
               (Array.of_list (List.map snd p)))
  in
  let cols =
    match outputs with
    | p :: _ -> Array.of_list (List.map fst p)
    | [] -> empty_cols db s
  in
  let rows = List.map (fun p -> Array.of_list (List.map snd p)) outputs in
  let rows = if s.Ast.distinct then dedupe rows else rows in
  { cols; rows = Option.fold ~none:rows ~some:(fun n -> take n rows) s.Ast.limit }

(* Output names of a select with no rows, from its projections and the
   schemas of its sources (a derived table evaluated outside any scope,
   an unknown table skipped). *)
and empty_cols db (s : Ast.select) =
  let srcs =
    List.filter_map
      (fun (item : Ast.from_item) ->
        let name default = Option.value item.Ast.alias ~default in
        match item.Ast.source with
        | Ast.Derived sub -> Some (name "", (select_in db [] sub).cols)
        | Ast.Base t when Database.has_table db.base t -> Some (name t, Table.col_names (Database.table db.base t))
        | Ast.Transition tt -> Some (name (Ast.trans_table_base tt), (db.transition tt).cols)
        | Ast.Base _ -> None)
      s.Ast.from
  in
  Array.of_list
    (List.concat_map
       (function
         | Ast.Star -> List.concat_map (fun (_, cols) -> Array.to_list cols) srcs
         | Ast.Table_star t -> (
           match List.assoc_opt t srcs with Some cols -> Array.to_list cols | None -> [])
         | Ast.Proj (e, alias) -> [ Option.value alias ~default:(proj_name e) ])
       s.Ast.projections)

let no_transitions tt =
  Errors.raise_error (Errors.Invalid_transition_reference (Pretty.trans_table_str tt))

let select ?(transition = no_transitions) db s = select_in { base = db; transition } [] s
let predicate ?(transition = no_transitions) db e = holds (expr { base = db; transition } [] e)
