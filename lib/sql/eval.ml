(* Query evaluation.

   The evaluator works over [relation]s — named column lists plus rows —
   rather than stored tables, so the same machinery evaluates base
   tables, derived tables and the paper's transition tables.  A
   [resolver] maps AST table sources to relations; the rules engine
   supplies a resolver that also knows the triggering rule's transition
   tables.

   SQL three-valued logic: predicates evaluate to [Value.Bool _] or
   [Value.Null] (unknown); a row is selected only when the predicate is
   definitely true. *)

open Relational

type relation = { rel_name : string; cols : string array; rows : Row.t list }

type resolver = Ast.table_source -> relation

let relation_of_table tbl =
  { rel_name = Table.name tbl; cols = Table.col_names tbl; rows = Table.rows tbl }

(* A resolver over base tables only; referencing a transition table
   outside rule processing is an error. *)
let base_resolver db : resolver = function
  | Ast.Base name -> relation_of_table (Database.table db name)
  | Ast.Transition tt ->
    Errors.raise_error
      (Errors.Invalid_transition_reference (Pretty.trans_table_str tt))
  | Ast.Derived _ ->
    (* Derived tables are evaluated by the select evaluator itself and
       never reach the resolver. *)
    assert false

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)

type binding = { bind_name : string; bind_cols : string array; bind_row : Row.t }

(* Innermost scope first; each frame is the from-list of one select. *)
type env = binding list list

let empty_env : env = []

let binding_lookup b column =
  let rec go i =
    if i >= Array.length b.bind_cols then None
    else if String.equal b.bind_cols.(i) column then Some b.bind_row.(i)
    else go (i + 1)
  in
  go 0

(* Resolve a column reference: search scopes innermost-first; within a
   scope a qualified reference must match a binding name, an
   unqualified one must be unambiguous.  [watches] are correlation
   watches (see the cache above): when a column resolves from one of
   the outermost [len] scopes of a watch, its flag is raised. *)
let lookup_column ?(watches = []) (env : env) qualifier column =
  let in_frame frame =
    match qualifier with
    | Some q -> (
      match List.find_opt (fun b -> String.equal b.bind_name q) frame with
      | None -> None
      | Some b -> (
        match binding_lookup b column with
        | Some v -> Some v
        | None ->
          Errors.raise_error
            (Errors.Unknown_column { table = Some q; column })))
    | None -> (
      let hits = List.filter_map (fun b -> binding_lookup b column) frame in
      match hits with
      | [] -> None
      | [ v ] -> Some v
      | _ :: _ :: _ -> Errors.raise_error (Errors.Ambiguous_column column))
  in
  let total = List.length env in
  let rec go i = function
    | [] ->
      Errors.raise_error (Errors.Unknown_column { table = qualifier; column })
    | frame :: rest -> (
      match in_frame frame with
      | Some v ->
        List.iter
          (fun (suffix_len, flag) -> if i >= total - suffix_len then flag := true)
          watches;
        v
      | None -> go (i + 1) rest)
  in
  go 0 env

(* ------------------------------------------------------------------ *)
(* Uncorrelated-subquery caching                                       *)

(* Predicates are evaluated once per candidate row, so an embedded
   select with no references to outer rows would be re-evaluated for
   every row — quadratic blowup on the nested-IN patterns of the
   paper's rules (e.g. Example 4.1).  A [cache] shared across the rows
   of one operation memoizes such subqueries.

   Correlation is detected dynamically: the first evaluation of a
   subquery runs with a watch on the scopes enclosing it; if no column
   resolves from an enclosing scope, the result cannot depend on the
   outer row and is cached for the remaining rows.  The cache is only
   sound while the database state is fixed, i.e. within the evaluation
   of a single operation or rule condition — callers create one cache
   per such unit. *)

type cache_entry = Cached of memo | Correlated
and cache = (Ast.select * cache_entry) list ref

(* A memoized subquery result.  Used as an IN (select ...) value set,
   it also keeps the set's membership index, built on first use. *)
and memo = { memo_rel : relation; mutable memo_in : in_set option }

(* An IN-subquery value set.  When every non-NULL element has the same
   constructor, membership is hashed; a probe value of that constructor then cannot raise a
   type error, and the SQL verdict is TRUE on a hit, else UNKNOWN if
   the set holds a NULL, else FALSE — exactly what [in_semantics]
   computes by scanning.  Anything else (mixed Int/Float sets, a probe
   value of another constructor, sets too small to be worth hashing)
   keeps the linear scan, so results and type errors stay identical. *)
and in_set = { in_values : Value.t list; in_index : in_index }

and in_index =
  | In_scan
  | In_hashed of { rep : Value.t; members : (Value.t, unit) Hashtbl.t; has_null : bool }

let make_cache () : cache = ref []

let same_constructor a b =
  match a, b with
  | Value.Int _, Value.Int _
  | Value.Float _, Value.Float _
  | Value.Str _, Value.Str _
  | Value.Bool _, Value.Bool _ ->
    true
  | (Value.Null | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _), _ ->
    false

(* Up to this many elements a scan beats building a hash table. *)
let hash_threshold = 8

let indexed_set values =
  let rec classify rep has_null n = function
    | [] -> Some (rep, has_null, n)
    | Value.Null :: rest -> classify rep true n rest
    | v :: rest -> (
      match rep with
      | None -> classify (Some v) has_null (n + 1) rest
      | Some r -> if same_constructor v r then classify rep has_null (n + 1) rest else None)
  in
  let index =
    match classify None false 0 values with
    | Some (Some rep, has_null, n) when n > hash_threshold ->
      let members = Hashtbl.create n in
      List.iter (fun v -> if not (Value.is_null v) then Hashtbl.replace members v ()) values;
      In_hashed { rep; members; has_null }
    | Some _ | None -> In_scan
  in
  { in_values = values; in_index = index }

let column_values rel =
  (match rel.cols with
  | [| _ |] -> ()
  | _ -> Errors.semantic "IN subquery must return a single column");
  List.map (fun row -> row.(0)) rel.rows

(* The unindexed set of a subquery evaluated for one use only. *)
let scan_set rel = { in_values = column_values rel; in_index = In_scan }

let make_memo rel = { memo_rel = rel; memo_in = None }

let memo_in_set m =
  match m.memo_in with
  | Some set -> set
  | None ->
    let set = indexed_set (column_values m.memo_rel) in
    m.memo_in <- Some set;
    set

(* Hash equi-joins in the from-list (see [from_row_envs]); mutable only
   so the ablation benchmark can compare against pure nested loops. *)
let join_optimization = ref true

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)

(* Access-path hooks.  When a caller supplies them, base tables in a
   from-list are realized lazily, giving the planner a chance to
   satisfy a sargable equality/IN conjunct of the WHERE clause by an
   index probe instead of a scan.  [acc_table] serves a base table of
   the state being read, scanned in place (None: unknown table, forcing
   the eager path); [acc_probe] probes any index over the column (None:
   no usable index); [acc_note] reports every scan-vs-probe decision
   for EXPLAIN-style statistics. *)
type access = {
  acc_table : table:string -> Table.t option;
  acc_probe :
    table:string ->
    column:string ->
    Value.t list ->
    (Handle.t * Row.t) list option;
  acc_range :
    table:string ->
    column:string ->
    lower:(Value.t * bool) option ->
    upper:(Value.t * bool) option ->
    (Handle.t * Row.t) list option;
  acc_note :
    table:string ->
    [ `Seq_scan | `Index_probe | `Range_probe | `Hash_join_build
    | `Hash_join_probe ] ->
    unit;
  acc_index : table:string -> column:string -> string option;
  acc_stats : table:string -> column:string -> (int * bool) option;
}

(* Hooks serving every table of [db], with no statistics kept. *)
let db_access db =
  {
    acc_table =
      (fun ~table ->
        if Database.has_table db table then Some (Database.table db table)
        else None);
    acc_probe =
      (fun ~table ~column values -> Database.probe db ~table ~column values);
    acc_range =
      (fun ~table ~column ~lower ~upper ->
        Database.range_probe db ~table ~column ~lower ~upper);
    acc_note = (fun ~table:_ _ -> ());
    acc_index =
      (fun ~table ~column ->
        List.find_map
          (fun (t', ix) ->
            if String.equal t' table && String.equal (Index.column ix) column
            then Some (Index.name ix)
            else None)
          (Database.indexes db));
    acc_stats = (fun ~table ~column -> Database.column_stats db ~table ~column);
  }

let table_cols access ~table =
  Option.map Table.col_names (access.acc_table ~table)

let table_count access ~table =
  Option.map Table.cardinality (access.acc_table ~table)

(* Equality-predicate pushdown into index probes; mutable only so the
   differential harness and the ablation benchmark can compare against
   pure scans. *)
let predicate_pushdown = ref true

(* Cost-based access-path selection.  When on, the planner ranks every
   sargable conjunct — equality, IN, range comparison, BETWEEN,
   prefix LIKE — by estimated enumerated rows from the maintained table
   statistics and takes the cheapest.  When off, it degrades to the
   historical first-equality-match rule (no range probes), which the
   differential harnesses use as an oracle. *)
let cost_model = ref true

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

(* The shape of a sargable conjunct, as much of it as is known without
   evaluating the value side: the key count of an equality/IN probe
   ([None] for IN (select ...)), a range, or a LIKE prefix range.
   [Shape_set k] is an IN (select ...) whose value set has been
   evaluated to [k] values. *)
type probe_shape = Shape_eq of int option | Shape_set of int | Shape_range | Shape_prefix

(* Probing one key costs about as much as scanning this many rows
   (hash-index lookup plus the handle-order merge of the hits, against
   one residual-predicate test per scanned row). *)
let rows_per_probe_key = 4

(* Estimated rows a probe of [shape] over [column] would enumerate,
   from the incrementally-maintained statistics: row count and
   per-indexed-column distinct key count.  [None] = no usable index
   (no index at all, or a range shape without an ordered index).
   Selectivity of ranges is guessed at 1/3 (1/4 for prefixes) in the
   System R tradition — no histograms are kept. *)
let estimate_shape access ~table ~column shape =
  match access.acc_stats ~table ~column with
  | None -> None
  | Some (distinct, ordered) -> (
    let nrows = Option.value (table_count access ~table) ~default:0 in
    match shape with
    | Shape_eq k ->
      let k = Option.value k ~default:2 in
      Some (k * nrows / max 1 distinct)
    | Shape_set k -> Some (k * nrows / max 1 distinct)
    | Shape_range -> if ordered then Some ((nrows + 2) / 3) else None
    | Shape_prefix -> if ordered then Some ((nrows + 3) / 4) else None)

(* The single decision procedure shared by the interpreting and
   compiling evaluators (and hence by execution and EXPLAIN): given the
   sargable candidates of a WHERE clause in conjunct order, return the
   ones worth attempting, cheapest first, with their estimates.  The
   caller tries them in order and falls back to the scan when none
   probes successfully (no index after all, type-incompatible values,
   value evaluation error).

   An IN (select ...) candidate is ranked before its subquery runs;
   once the value set is known the caller asks again with [Shape_set],
   which also weighs the per-key probe cost against the scan: a set
   whose keys would cost more to probe than the table costs to scan
   (e.g. a constraint check whose delta is the whole table) scans.

   With the cost model off this is the historical planner: equality
   candidates only, in conjunct order, no estimates. *)
let choose_candidates access ~table cands =
  if not !cost_model then
    List.filter_map
      (fun (payload, _column, shape) ->
        match shape with
        | Shape_eq _ | Shape_set _ -> Some (payload, None)
        | Shape_range | Shape_prefix -> None)
      cands
  else
    let scan_cost = table_count access ~table in
    List.filter_map
      (fun (payload, column, shape) ->
        match estimate_shape access ~table ~column shape with
        | None -> None
        | Some est -> (
          (* a probe never enumerates more rows than the scan, but when
             the estimate says it would not help, keep the plan honest
             and scan *)
          match scan_cost, shape with
          | Some n, _ when est > n -> None
          | Some n, Shape_set k when k * rows_per_probe_key > n -> None
          | Some _, _ | None, _ -> Some ((payload, Some est), est)))
      cands
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
    |> List.map fst

(* Re-rank an IN (select ...) candidate once its value set is known:
   [None] = scan instead, else the estimate to report. *)
let recheck_set access ~table ~column values =
  match
    choose_candidates access ~table [ ((), column, Shape_set (List.length values)) ]
  with
  | [] -> None
  | (_, est) :: _ -> Some est

(* A successful probe decision: which column and WHERE conjunct
   satisfied it, by equality or range probe, the estimate that ranked
   it ([None] under the legacy planner), and the rows it enumerates. *)
type probe_hit = {
  ph_column : string;
  ph_conjunct : Ast.expr;
  ph_kind : [ `Eq | `Range ];
  ph_est : int option;
  ph_pairs : (Handle.t * Row.t) list;
}

(* Split a predicate into its top-level AND conjuncts. *)
let rec conjuncts e =
  match e with Ast.And (a, b) -> conjuncts a @ conjuncts b | e -> [ e ]

(* Conservative independence test used by the access-path planner: may
   an expression reference a column of the frame being built — the
   [target] sources of the FROM list under construction?  Probe values
   must be evaluable once against the outer scopes alone, so only an
   expression that provably cannot touch the target frame qualifies:
   every column reference must resolve either inside a subquery's own
   scopes (innermost-first, shadowing the target) or past the target in
   the outer scopes.  A transition table is named and shaped like its
   base table.  Anything unknowable — derived sources, whose columns
   we cannot name, possible ambiguity — answers
   "maybe", rejecting the probe; the scan path then behaves exactly as
   before.

   [cols_of] names a base table's columns (for subquery FROM items);
   inner frames track [(name option, cols option)] where [None] means
   unknown.  A derived FROM item inside a subquery is walked against
   the scopes *outside* that subquery, because that is the environment
   it evaluates in. *)
let independence ~(target : (string * string array) list)
    ~(cols_of : string -> string array option) =
  let target_has_name q = List.exists (fun (n, _) -> String.equal n q) target in
  let target_has_col c =
    List.exists (fun (_, cols) -> Array.exists (String.equal c) cols) target
  in
  let rec expr inners (e : Ast.expr) =
    match e with
    | Ast.Lit _ -> true
    | Ast.Param _ -> true (* a bound parameter is a constant *)
    | Ast.Col { qualifier = Some q; _ } ->
      let resolves_inner =
        List.exists
          (List.exists (fun (n, _) ->
               match n with Some n -> String.equal n q | None -> false))
          inners
      in
      resolves_inner || not (target_has_name q)
    | Ast.Col { qualifier = None; column = c } ->
      let definitely_inner =
        List.exists
          (List.exists (fun (_, cols) ->
               match cols with
               | Some arr -> Array.exists (String.equal c) arr
               | None -> false))
          inners
      in
      (* a source with unknown columns might capture [c] — but it might
         not, so we cannot rule out fall-through to the target *)
      definitely_inner || not (target_has_col c)
    | Ast.Binop (_, a, b)
    | Ast.Cmp (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Like (a, b) -> expr inners a && expr inners b
    | Ast.Neg a | Ast.Not a | Ast.Is_null a | Ast.Is_not_null a ->
      expr inners a
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      expr inners a && List.for_all (expr inners) es
    | Ast.In_select (a, s) | Ast.Not_in_select (a, s) ->
      expr inners a && sel inners s
    | Ast.Exists s | Ast.Scalar_select s -> sel inners s
    | Ast.Between (a, b, c) -> expr inners a && expr inners b && expr inners c
    | Ast.Agg (_, arg) -> Option.fold ~none:true ~some:(expr inners) arg
    | Ast.Fn (_, args) -> List.for_all (expr inners) args
    | Ast.Case (branches, else_) ->
      List.for_all (fun (c, v) -> expr inners c && expr inners v) branches
      && Option.fold ~none:true ~some:(expr inners) else_
  and sel inners (s : Ast.select) =
    (* derived FROM items evaluate against the scopes outside this
       select, so they are walked with the enclosing stack *)
    let derived_ok =
      List.for_all
        (fun item ->
          match item.Ast.source with
          | Ast.Derived sub -> sel inners sub
          | Ast.Base _ | Ast.Transition _ -> true)
        s.Ast.from
    in
    let frame =
      List.map
        (fun item ->
          let name, cols =
            match item.Ast.source with
            | Ast.Base n -> (Some n, cols_of n)
            | Ast.Transition tt ->
              (* bound under its base table's name, with its columns *)
              let base = Ast.trans_table_base tt in
              (Some base, cols_of base)
            | Ast.Derived _ -> (None, None)
          in
          match item.Ast.alias with
          | Some a -> (Some a, cols)
          | None -> (name, cols))
        s.Ast.from
    in
    let inners' = frame :: inners in
    derived_ok
    && List.for_all
         (function
           | Ast.Star | Ast.Table_star _ -> true
           | Ast.Proj (e, _) -> expr inners' e)
         s.Ast.projections
    && Option.fold ~none:true ~some:(expr inners') s.Ast.where
    && List.for_all (expr inners') s.Ast.group_by
    && Option.fold ~none:true ~some:(expr inners') s.Ast.having
    && List.for_all (fun (e, _) -> expr inners' e) s.Ast.order_by
    && List.for_all (fun (_, sub) -> sel inners sub) s.Ast.compounds
  in
  (expr [], sel [])

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

type context = {
  resolve : resolver;
  (* [Some envs]: we are inside a grouped evaluation and aggregate
     functions range over [envs]. *)
  group : env list option;
  cache : cache option;
  (* active correlation watches: [(suffix_len, flag)] means "set flag
     if a column resolves from one of the outermost [suffix_len]
     scopes" *)
  watches : (int * bool ref) list;
  (* access-path hooks; None evaluates every base table by scan *)
  access : access option;
}

let truth_value = function
  | Value.True -> Value.Bool true
  | Value.False -> Value.Bool false
  | Value.Unknown -> Value.Null

let value_truth = function
  | Value.Bool true -> Value.True
  | Value.Bool false -> Value.False
  | Value.Null -> Value.Unknown
  | v ->
    Errors.type_error "expected a boolean predicate value, got %s"
      (Value.to_string v)

(* Stable sort of values tagged with ORDER BY keys. *)
let sort_by_keys keyed =
  let cmp (ka, _) (kb, _) =
    let rec go a b =
      match a, b with
      | [], [] -> 0
      | (va, dir) :: ra, (vb, _) :: rb ->
        let c = Value.compare_total va vb in
        let c = match dir with `Asc -> c | `Desc -> -c in
        if c <> 0 then c else go ra rb
      | _ -> 0
    in
    go ka kb
  in
  List.stable_sort cmp keyed

let rec eval_expr ctx (env : env) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Lit v -> v
  | Ast.Param i ->
    (* the interpreter runs EXECUTE by substituting argument literals
       into the AST, so a surviving parameter is one that never bound *)
    Errors.raise_error
      (Errors.Parameter_error
         (Printf.sprintf "parameter %d is unbound (use PREPARE/EXECUTE)" (i + 1)))
  | Ast.Col { qualifier; column } ->
    lookup_column ~watches:ctx.watches env qualifier column
  | Ast.Binop (op, a, b) ->
    let va = eval_expr ctx env a and vb = eval_expr ctx env b in
    (match op with
    | Ast.Add -> Value.add va vb
    | Ast.Sub -> Value.sub va vb
    | Ast.Mul -> Value.mul va vb
    | Ast.Div -> Value.div va vb
    | Ast.Mod -> Value.rem va vb
    | Ast.Concat -> Value.concat va vb)
  | Ast.Neg a -> Value.neg (eval_expr ctx env a)
  | Ast.Cmp (op, a, b) -> (
    let va = eval_expr ctx env a and vb = eval_expr ctx env b in
    match Value.compare_sql va vb with
    | None -> Value.Null
    | Some c ->
      let holds =
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
      in
      Value.Bool holds)
  | Ast.And (a, b) ->
    truth_value
      (Value.truth_and
         (value_truth (eval_expr ctx env a))
         (value_truth (eval_expr ctx env b)))
  | Ast.Or (a, b) ->
    truth_value
      (Value.truth_or
         (value_truth (eval_expr ctx env a))
         (value_truth (eval_expr ctx env b)))
  | Ast.Not a -> truth_value (Value.truth_not (value_truth (eval_expr ctx env a)))
  | Ast.Is_null a -> Value.Bool (Value.is_null (eval_expr ctx env a))
  | Ast.Is_not_null a -> Value.Bool (not (Value.is_null (eval_expr ctx env a)))
  | Ast.In_list (a, es) ->
    let v = eval_expr ctx env a in
    in_semantics v (List.map (eval_expr ctx env) es)
  | Ast.Not_in_list (a, es) ->
    let v = eval_expr ctx env a in
    truth_value (Value.truth_not (value_truth (in_semantics v (List.map (eval_expr ctx env) es))))
  | Ast.In_select (a, s) ->
    let v = eval_expr ctx env a in
    in_set_mem (subquery_in ctx env s) v
  | Ast.Not_in_select (a, s) ->
    let v = eval_expr ctx env a in
    truth_value
      (Value.truth_not (value_truth (in_set_mem (subquery_in ctx env s) v)))
  | Ast.Exists s ->
    let rel = eval_subquery ctx env s in
    Value.Bool (rel.rows <> [])
  | Ast.Between (a, low, high) ->
    let v = eval_expr ctx env a in
    let vl = eval_expr ctx env low and vh = eval_expr ctx env high in
    let ge =
      match Value.compare_sql v vl with
      | None -> Value.Unknown
      | Some c -> Value.truth_of_bool (c >= 0)
    and le =
      match Value.compare_sql v vh with
      | None -> Value.Unknown
      | Some c -> Value.truth_of_bool (c <= 0)
    in
    truth_value (Value.truth_and ge le)
  | Ast.Like (a, p) ->
    truth_value (Value.like (eval_expr ctx env a) (eval_expr ctx env p))
  | Ast.Scalar_select s -> (
    let rel = eval_subquery ctx env s in
    (match rel.cols with
    | [| _ |] -> ()
    | _ -> Errors.semantic "scalar subquery must return a single column");
    match rel.rows with
    | [] -> Value.Null
    | [ row ] -> row.(0)
    | _ :: _ :: _ -> Errors.semantic "scalar subquery returned more than one row")
  | Ast.Agg (fn, arg) -> eval_aggregate ctx env fn arg
  | Ast.Fn (name, args) -> Functions.apply name (List.map (eval_expr ctx env) args)
  | Ast.Case (branches, else_) ->
    let rec go = function
      | [] -> (
        match else_ with None -> Value.Null | Some e -> eval_expr ctx env e)
      | (c, v) :: rest ->
        if Value.truth_holds (value_truth (eval_expr ctx env c)) then
          eval_expr ctx env v
        else go rest
    in
    go branches

(* SQL IN semantics: TRUE if some element equals, UNKNOWN if no element
   equals but some comparison was unknown, FALSE otherwise. *)
and in_semantics v values =
  let result =
    List.fold_left
      (fun acc elt -> Value.truth_or acc (Value.eq_sql v elt))
      Value.False values
  in
  truth_value result

(* SQL IN against a value set: hashed when the set's index covers the
   probe value's constructor (see [in_set]), by [in_semantics]
   otherwise.  A NULL probe value compares UNKNOWN with every element,
   and an indexed set is never empty. *)
and in_set_mem set v =
  let verdict found with_null =
    if found then Value.Bool true else if with_null then Value.Null else Value.Bool false
  in
  match v, set.in_index with
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _), In_hashed { rep; members; has_null }
    when same_constructor v rep ->
    verdict (Hashtbl.mem members v) has_null
  | Value.Null, In_hashed _ -> Value.Null
  | _, _ -> in_semantics v set.in_values

(* Evaluate an embedded select, consulting the uncorrelated-subquery
   cache when one is active; the memo is returned when the result is
   (now) cached. *)
and eval_subquery_memo ctx env s =
  match ctx.cache with
  | None -> (eval_select_inner ctx env s, None)
  | Some cache -> (
    match List.find_opt (fun (s', _) -> s' == s) !cache with
    | Some (_, Cached m) -> (m.memo_rel, Some m)
    | Some (_, Correlated) -> (eval_select_inner ctx env s, None)
    | None ->
      let touched = ref false in
      let watch = (List.length env, touched) in
      let rel = eval_select_inner { ctx with watches = watch :: ctx.watches } env s in
      if !touched then begin
        cache := (s, Correlated) :: !cache;
        (rel, None)
      end
      else begin
        let m = make_memo rel in
        cache := (s, Cached m) :: !cache;
        (rel, Some m)
      end)

and eval_subquery ctx env s = fst (eval_subquery_memo ctx env s)

(* The value set of an IN subquery: indexed once when memoized, a plain
   scan set when it must be re-evaluated per row anyway. *)
and subquery_in ctx env s =
  match eval_subquery_memo ctx env s with
  | _, Some m -> memo_in_set m
  | rel, None -> scan_set rel

and eval_aggregate ctx _env fn arg =
  match ctx.group with
  | None -> Errors.semantic "aggregate function used outside a grouped query"
  | Some group_envs -> (
    (* Aggregates never nest: the argument is evaluated per group row
       in non-grouped context. *)
    let inner_ctx = { ctx with group = None } in
    match fn, arg with
    | Ast.Count_star, _ -> Value.Int (List.length group_envs)
    | _, None -> Errors.semantic "aggregate function requires an argument"
    | fn, Some e -> (
      let values =
        List.filter_map
          (fun row_env ->
            let v = eval_expr inner_ctx row_env e in
            if Value.is_null v then None else Some v)
          group_envs
      in
      match fn with
      | Ast.Count_star -> assert false
      | Ast.Count -> Value.Int (List.length values)
      | Ast.Sum ->
        if values = [] then Value.Null
        else List.fold_left Value.add (Value.Int 0) values
      | Ast.Avg -> (
        if values = [] then Value.Null
        else
          let sum = List.fold_left Value.add (Value.Int 0) values in
          match Value.to_float sum with
          | Some f -> Value.Float (f /. float_of_int (List.length values))
          | None -> Errors.type_error "avg over non-numeric values")
      | Ast.Min ->
        if values = [] then Value.Null
        else
          List.fold_left
            (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
            (List.hd values) values
      | Ast.Max ->
        if values = [] then Value.Null
        else
          List.fold_left
            (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
            (List.hd values) values))

(* ------------------------------------------------------------------ *)
(* SELECT evaluation                                                   *)

and select_contains_agg (s : Ast.select) =
  let rec expr_has_agg = function
    | Ast.Agg _ -> true
    | Ast.Lit _ | Ast.Param _ | Ast.Col _ -> false
    | Ast.Binop (_, a, b)
    | Ast.Cmp (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Like (a, b) -> expr_has_agg a || expr_has_agg b
    | Ast.Neg a | Ast.Not a | Ast.Is_null a | Ast.Is_not_null a -> expr_has_agg a
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      expr_has_agg a || List.exists expr_has_agg es
    | Ast.In_select (a, _) | Ast.Not_in_select (a, _) -> expr_has_agg a
    | Ast.Exists _ | Ast.Scalar_select _ ->
      (* aggregates inside a subquery belong to the subquery *)
      false
    | Ast.Fn (_, args) -> List.exists expr_has_agg args
    | Ast.Between (a, b, c) -> expr_has_agg a || expr_has_agg b || expr_has_agg c
    | Ast.Case (branches, else_) ->
      List.exists (fun (c, v) -> expr_has_agg c || expr_has_agg v) branches
      || Option.fold ~none:false ~some:expr_has_agg else_
  in
  s.Ast.group_by <> []
  || Option.fold ~none:false ~some:expr_has_agg s.Ast.having
  || List.exists
       (function
         | Ast.Star | Ast.Table_star _ -> false
         | Ast.Proj (e, _) -> expr_has_agg e)
       s.Ast.projections

and default_proj_name e =
  match e with
  | Ast.Col { column; _ } -> column
  | e -> Pretty.expr_str e

(* Materialize the from-list as row environments, each extended with
   the outer scopes.

   Joining is nested-loop by default but, when the WHERE clause has an
   equality conjunct between column references linking a new source to
   an already-joined one, a hash join is used instead.  The hash join
   preserves nested-loop enumeration order and the full WHERE predicate
   is still applied afterwards, so results are identical.  The
   [join_optimization] switch exists for the ablation benchmark.

   When access-path hooks are installed, base tables are realized
   lazily: a sargable conjunct over an indexed column turns the scan
   into an index probe (see [probe_source]).  A probe returns the
   matching rows in handle order — an order-preserving subsequence of
   the scan — and the full WHERE predicate is still applied afterwards,
   so results are again identical.

   When the from-list is a single lazily realized base table, the
   handles of its rows come back too, aligned with the environments:
   the tuples the select retrieved, for the Section 5.1 read set. *)
and from_row_envs ctx (outer : env) ?where (from : Ast.from_item list) :
    env list * Handle.t list option =
  let resolve_item ix item =
    let named rel =
      match item.Ast.alias with
      | Some a -> a
      | None -> if rel.rel_name = "" then Printf.sprintf "$%d" ix else rel.rel_name
    in
    match item.Ast.source with
    | Ast.Derived s ->
      let rel = eval_select_inner ctx outer s in
      (named rel, rel.cols, `Rows rel.rows)
    | Ast.Base tbl_name -> (
      let lazy_tbl =
        match ctx.access with
        | None -> None
        | Some access -> access.acc_table ~table:tbl_name
      in
      match lazy_tbl with
      | Some tbl ->
        ( Option.value item.Ast.alias ~default:tbl_name,
          Table.col_names tbl,
          `Table (tbl_name, tbl) )
      | None ->
        let rel = ctx.resolve item.Ast.source in
        (named rel, rel.cols, `Rows rel.rows))
    | (Ast.Transition _) as src ->
      let rel = ctx.resolve src in
      (named rel, rel.cols, `Rows rel.rows)
  in
  let sources = List.mapi resolve_item from in
  (* duplicate binding names within one frame are rejected: unqualified
     references could silently pick the wrong one *)
  let names = List.map (fun (n, _, _) -> n) sources in
  let rec check = function
    | [] -> ()
    | n :: rest ->
      if List.exists (String.equal n) rest then
        Errors.semantic
          "duplicate table name %S in from clause; use an alias" n;
      check rest
  in
  check names;
  let frame_shape = List.map (fun (n, cols, _) -> (n, cols)) sources in
  (* attribute a column reference to exactly one local source *)
  let attribute qualifier column =
    let has_col (_, cols) = Array.exists (String.equal column) cols in
    match qualifier with
    | Some q -> (
      match List.find_opt (fun (n, _) -> String.equal n q) frame_shape with
      | Some src when has_col src -> Some src
      | _ -> None)
    | None -> (
      match List.filter has_col frame_shape with [ src ] -> Some src | _ -> None)
  in
  let equi_pairs =
    if not !join_optimization then []
    else
      match where with
      | None -> []
      | Some pred ->
        List.filter_map
          (fun conj ->
            match conj with
            | Ast.Cmp
                ( Ast.Eq,
                  Ast.Col { qualifier = q1; column = c1 },
                  Ast.Col { qualifier = q2; column = c2 } ) -> (
              match attribute q1 c1, attribute q2 c2 with
              | Some (n1, cs1), Some (n2, cs2) when not (String.equal n1 n2) ->
                Some ((n1, cs1, c1), (n2, cs2, c2))
              | _ -> None)
            | _ -> None)
          (conjuncts pred)
  in
  let col_index cols c =
    let rec go i =
      if i >= Array.length cols then None
      else if String.equal cols.(i) c then Some i
      else go (i + 1)
    in
    go 0
  in
  let module Key_map = Map.Make (struct
    type t = Value.t

    let compare = Value.compare_total
  end) in
  (* realize a lazily-bound base table: by index (or range) probe when
     a sargable conjunct allows it, by scan otherwise *)
  let realize bind_name (tbl_name, tbl) =
    let access =
      match ctx.access with Some a -> a | None -> assert false
    in
    match
      probe_plan ctx outer ~frame:frame_shape ~target_name:bind_name
        ~table:tbl_name where
    with
    | Some hit ->
      access.acc_note ~table:tbl_name
        (match hit.ph_kind with `Eq -> `Index_probe | `Range -> `Range_probe);
      hit.ph_pairs
    | None ->
      access.acc_note ~table:tbl_name `Seq_scan;
      Table.to_list tbl
  in
  let note_join ev name =
    match ctx.access with
    | Some access -> access.acc_note ~table:name ev
    | None -> ()
  in
  (* partial frames are built in reverse binding order *)
  let extend partials (name, cols, kind) =
    let rows =
      match kind with
      | `Rows rows -> rows
      | `Table src -> List.map snd (realize name src)
    in
    let already_bound n =
      match partials with
      | [] -> false
      | partial :: _ -> List.exists (fun b -> String.equal b.bind_name n) partial
    in
    let link =
      List.find_map
        (fun ((n1, cs1, c1), (n2, cs2, c2)) ->
          if String.equal n2 name && already_bound n1 then
            Some ((n1, cs1, c1), c2)
          else if String.equal n1 name && already_bound n2 then
            Some ((n2, cs2, c2), c1)
          else None)
        equi_pairs
    in
    match link with
    | Some ((bound_name, bound_cols, bound_col), new_col) ->
      let new_ix = Option.get (col_index cols new_col) in
      let bound_ix = Option.get (col_index bound_cols bound_col) in
      (* hash the new source's rows by join key, preserving row order
         within each bucket *)
      note_join `Hash_join_build name;
      let table =
        List.fold_left
          (fun m row ->
            let key = row.(new_ix) in
            let existing = Option.value (Key_map.find_opt key m) ~default:[] in
            Key_map.add key (row :: existing) m)
          Key_map.empty rows
      in
      let table = Key_map.map List.rev table in
      List.concat_map
        (fun partial ->
          note_join `Hash_join_probe name;
          let bound_binding =
            List.find (fun b -> String.equal b.bind_name bound_name) partial
          in
          let key = bound_binding.bind_row.(bound_ix) in
          match Key_map.find_opt key table with
          | None -> []
          | Some rows ->
            List.map
              (fun row ->
                { bind_name = name; bind_cols = cols; bind_row = row }
                :: partial)
              rows)
        partials
    | None ->
      List.concat_map
        (fun partial ->
          List.map
            (fun row ->
              { bind_name = name; bind_cols = cols; bind_row = row }
              :: partial)
            rows)
        partials
  in
  match sources with
  | [ (name, cols, `Table src) ] ->
    let pairs = realize name src in
    ( List.map
        (fun (_, row) ->
          [ { bind_name = name; bind_cols = cols; bind_row = row } ] :: outer)
        pairs,
      Some (List.map fst pairs) )
  | _ ->
    let frames = List.fold_left extend [ [] ] sources in
    (List.map (fun frame -> List.rev frame :: outer) frames, None)

(* The access-path planner: try to satisfy one FROM source by an index
   probe instead of a scan.  Scans the WHERE conjuncts for sargable
   patterns — [col = e], [e = col], [col IN (e, ...)],
   [col IN (select ...)], the range comparisons [col < e] / [col <= e]
   / [col > e] / [col >= e] (and mirrored), [col BETWEEN a AND b] and
   [col LIKE 'prefix%...'] — whose column attributes uniquely to the
   target source and whose other side provably cannot reference the
   frame being built (see [independence]).  [choose_candidates] ranks
   the candidates by estimated cost (or keeps the legacy
   first-equality-match order with the cost model off); probe values
   are then evaluated once against the outer scopes, and any
   evaluation error or unusable index falls back to the next candidate
   and finally the scan, which either reports the same error while
   filtering or — e.g. over an empty table — never evaluates the
   faulty expression, exactly matching unoptimized behaviour.  NULL
   probe values and range bounds match nothing, as SQL comparison
   semantics require. *)
and probe_plan ctx (outer : env) ~frame ~target_name ~table
    (where : Ast.expr option) : probe_hit option =
  match ctx.access, where with
  | None, _ | _, None -> None
  | Some access, Some pred ->
    if not !predicate_pushdown then None
    else begin
      let ind_expr, ind_sel =
        independence ~target:frame ~cols_of:(fun t -> table_cols access ~table:t)
      in
      let attributes_to_target qualifier column =
        let has (_, cols) = Array.exists (String.equal column) cols in
        match qualifier with
        | Some q ->
          String.equal q target_name
          && (match List.find_opt (fun (n, _) -> String.equal n q) frame with
             | Some src -> has src
             | None -> false)
        | None -> (
          match List.filter has frame with
          | [ (n, _) ] -> String.equal n target_name
          | _ -> false)
      in
      let eval_ctx = { ctx with group = None } in
      let range_of op e =
        (* the column is on the left: [col op e] *)
        match op with
        | Ast.Lt -> Some (None, Some (e, false))
        | Ast.Le -> Some (None, Some (e, true))
        | Ast.Gt -> Some (Some (e, false), None)
        | Ast.Ge -> Some (Some (e, true), None)
        | Ast.Eq | Ast.Neq -> None
      in
      let mirror op =
        match op with
        | Ast.Lt -> Ast.Gt
        | Ast.Le -> Ast.Ge
        | Ast.Gt -> Ast.Lt
        | Ast.Ge -> Ast.Le
        | (Ast.Eq | Ast.Neq) as op -> op
      in
      let candidate conj =
        match conj with
        | Ast.Cmp (Ast.Eq, Ast.Col { qualifier; column }, e)
          when attributes_to_target qualifier column && ind_expr e ->
          Some (conj, column, Shape_eq (Some 1), `Exprs [ e ])
        | Ast.Cmp (Ast.Eq, e, Ast.Col { qualifier; column })
          when attributes_to_target qualifier column && ind_expr e ->
          Some (conj, column, Shape_eq (Some 1), `Exprs [ e ])
        | Ast.In_list (Ast.Col { qualifier; column }, es)
          when attributes_to_target qualifier column && List.for_all ind_expr es
          ->
          Some (conj, column, Shape_eq (Some (List.length es)), `Exprs es)
        | Ast.In_select (Ast.Col { qualifier; column }, sub)
          when attributes_to_target qualifier column && ind_sel sub ->
          Some (conj, column, Shape_eq None, `Select sub)
        | Ast.Cmp (op, Ast.Col { qualifier; column }, e)
          when attributes_to_target qualifier column && ind_expr e -> (
          match range_of op e with
          | Some bounds -> Some (conj, column, Shape_range, `Bounds bounds)
          | None -> None)
        | Ast.Cmp (op, e, Ast.Col { qualifier; column })
          when attributes_to_target qualifier column && ind_expr e -> (
          match range_of (mirror op) e with
          | Some bounds -> Some (conj, column, Shape_range, `Bounds bounds)
          | None -> None)
        | Ast.Between (Ast.Col { qualifier; column }, lo, hi)
          when attributes_to_target qualifier column && ind_expr lo
               && ind_expr hi ->
          Some
            (conj, column, Shape_range, `Bounds (Some (lo, true), Some (hi, true)))
        | Ast.Like (Ast.Col { qualifier; column }, p)
          when attributes_to_target qualifier column && ind_expr p ->
          Some (conj, column, Shape_prefix, `Like p)
        | _ -> None
      in
      let attempt ((conj, column, src), est) =
        let eval_bound =
          Option.map (fun (e, incl) -> (eval_expr eval_ctx outer e, incl))
        in
        let est = ref est in
        let probe () =
          match src with
          | `Exprs es ->
            access.acc_probe ~table ~column
              (List.map (eval_expr eval_ctx outer) es)
          | `Select sub -> (
            let values = (subquery_in eval_ctx outer sub).in_values in
            match recheck_set access ~table ~column values with
            | None -> None
            | Some e ->
              est := e;
              access.acc_probe ~table ~column values)
          | `Bounds (lo, hi) ->
            access.acc_range ~table ~column ~lower:(eval_bound lo)
              ~upper:(eval_bound hi)
          | `Like p -> (
            match eval_expr eval_ctx outer p with
            | Value.Null ->
              (* LIKE NULL is UNKNOWN for every row: a NULL-bounded
                 range probe selects exactly nothing *)
              access.acc_range ~table ~column
                ~lower:(Some (Value.Null, true))
                ~upper:None
            | Value.Str pat -> (
              match Index.like_prefix pat with
              | None -> None
              | Some (prefix, upper) ->
                access.acc_range ~table ~column
                  ~lower:(Some (Value.Str prefix, true))
                  ~upper:(Option.map (fun u -> (Value.Str u, false)) upper))
            | Value.Int _ | Value.Float _ | Value.Bool _ ->
              (* the scan path reports the type error faithfully *)
              None)
        in
        match (try probe () with _ -> None) with
        | None -> None
        | Some pairs ->
          let kind =
            match src with
            | `Exprs _ | `Select _ -> `Eq
            | `Bounds _ | `Like _ -> `Range
          in
          Some
            {
              ph_column = column;
              ph_conjunct = conj;
              ph_kind = kind;
              ph_est = !est;
              ph_pairs = pairs;
            }
      in
      List.filter_map candidate (conjuncts pred)
      |> List.map (fun (conj, column, shape, src) ->
             ((conj, column, src), column, shape))
      |> choose_candidates access ~table
      |> List.find_map attempt
    end

and project_columns ctx (frame_env : env) (projections : Ast.proj list) =
  (* Expand stars against the local frame of [frame_env]. *)
  let local_frame = match frame_env with [] -> [] | f :: _ -> f in
  List.concat_map
    (function
      | Ast.Star ->
        List.concat_map
          (fun b ->
            Array.to_list
              (Array.mapi
                 (fun i c -> (c, b.bind_row.(i)))
                 b.bind_cols))
          local_frame
      | Ast.Table_star t -> (
        match List.find_opt (fun b -> String.equal b.bind_name t) local_frame with
        | None -> Errors.raise_error (Errors.Unknown_table t)
        | Some b ->
          Array.to_list
            (Array.mapi (fun i c -> (c, b.bind_row.(i))) b.bind_cols))
      | Ast.Proj (e, alias) ->
        let name =
          match alias with Some a -> a | None -> default_proj_name e
        in
        [ (name, eval_expr ctx frame_env e) ])
    projections

and eval_select_inner ctx (outer : env) (s : Ast.select) : relation =
  match s.Ast.compounds with
  | _ :: _ -> eval_compound ctx outer s
  | [] -> eval_select_plain ctx outer s

(* Compound (set) operations: evaluate each core, combine the row
   multisets, then apply the trailing ORDER BY / LIMIT over the
   combined result (sort keys may reference the projected column
   names). *)
and eval_compound ctx outer (s : Ast.select) : relation =
  let head =
    eval_select_plain ctx outer
      { s with Ast.compounds = []; order_by = []; limit = None }
  in
  let module Row_set = Set.Make (struct
    type t = Row.t

    let compare = Row.compare_total
  end) in
  let dedupe rows =
    let _, acc =
      List.fold_left
        (fun (seen, acc) row ->
          if Row_set.mem row seen then (seen, acc)
          else (Row_set.add row seen, row :: acc))
        (Row_set.empty, []) rows
    in
    List.rev acc
  in
  let combined =
    List.fold_left
      (fun rows (op, sub) ->
        let part = eval_select_plain ctx outer sub in
        if Array.length part.cols <> Array.length head.cols then
          Errors.semantic
            "compound select operands must have the same number of columns";
        match op with
        | Ast.Union_all -> rows @ part.rows
        | Ast.Union -> dedupe (rows @ part.rows)
        | Ast.Except ->
          let right = Row_set.of_list part.rows in
          dedupe (List.filter (fun row -> not (Row_set.mem row right)) rows)
        | Ast.Intersect ->
          let right = Row_set.of_list part.rows in
          dedupe (List.filter (fun row -> Row_set.mem row right) rows))
      head.rows s.Ast.compounds
  in
  (* trailing ORDER BY over the combined projected rows *)
  let ordered =
    match s.Ast.order_by with
    | [] -> combined
    | order_by ->
      let keyed =
        List.map
          (fun row ->
            let env =
              [ [ { bind_name = ""; bind_cols = head.cols; bind_row = row } ] ]
            in
            let keys =
              List.map
                (fun (e, dir) ->
                  (eval_expr { ctx with group = None } env e, dir))
                order_by
            in
            (keys, row))
          combined
      in
      List.map snd (sort_by_keys keyed)
  in
  let rows =
    match s.Ast.limit with
    | None -> ordered
    | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k <= 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      take n ordered
  in
  { rel_name = ""; cols = head.cols; rows }

and eval_select_plain ctx outer s = fst (eval_select_plain_read ctx outer s)

(* A select core with the handles of the tuples it retrieved: those of
   the rows passing WHERE when the from-list is a single lazily realized
   base table and there is no GROUP BY, [None] for any other shape.
   DISTINCT, ORDER BY and LIMIT apply to the output only. *)
and eval_select_plain_read ctx (outer : env) (s : Ast.select) :
    relation * Handle.t list option =
  let row_envs, handles = from_row_envs ctx outer ?where:s.Ast.where s.Ast.from in
  (* WHERE *)
  let where_ctx = { ctx with group = None } in
  let filtered, read =
    match s.Ast.where with
    | None -> (row_envs, handles)
    | Some pred -> (
      let holds env =
        Value.truth_holds (value_truth (eval_expr where_ctx env pred))
      in
      match handles with
      | None -> (List.filter holds row_envs, None)
      | Some hs ->
        let kept =
          List.filter (fun (env, _) -> holds env) (List.combine row_envs hs)
        in
        (List.map fst kept, Some (List.map snd kept)))
  in
  let grouped = select_contains_agg s in
  let result_pairs =
    if not grouped then
      List.map (fun env -> project_columns where_ctx env s.Ast.projections) filtered
    else begin
      (* group rows by the group_by key *)
      let groups =
        if s.Ast.group_by = [] then
          (* single global group; present even when empty *)
          [ filtered ]
        else begin
          let module Key_map = Map.Make (struct
            type t = Row.t

            let compare = Row.compare_total
          end) in
          let order = ref [] in
          let m =
            List.fold_left
              (fun m env ->
                let key =
                  Array.of_list
                    (List.map (eval_expr where_ctx env) s.Ast.group_by)
                in
                match Key_map.find_opt key m with
                | Some rows -> Key_map.add key (env :: rows) m
                | None ->
                  order := key :: !order;
                  Key_map.add key [ env ] m)
              Key_map.empty filtered
          in
          List.rev_map (fun key -> List.rev (Key_map.find key m)) !order
          |> List.rev
        end
      in
      let eval_group group_envs =
        let group_ctx = { ctx with group = Some group_envs } in
        (* Non-aggregate column references use the first row of the
           group (all rows agree on group-by columns). *)
        let rep_env =
          match group_envs with e :: _ -> e | [] -> [] :: outer
        in
        let keep =
          match s.Ast.having with
          | None -> true
          | Some h -> Value.truth_holds (value_truth (eval_expr group_ctx rep_env h))
        in
        if keep then Some (project_columns group_ctx rep_env s.Ast.projections)
        else None
      in
      List.filter_map eval_group groups
    end
  in
  (* ORDER BY: evaluate sort keys in the corresponding environments.
     For simplicity we sort the projected rows by keys computed
     alongside projection; recompute by pairing envs with results. *)
  let ordered_pairs =
    match s.Ast.order_by with
    | [] -> result_pairs
    | order_by ->
      let envs_for_sort =
        if not grouped then
          match s.Ast.where with
          | None -> row_envs
          | Some _ -> filtered
        else []
      in
      if grouped then
        (* Order grouped output by keys computed over the projected
           values: only projected column names may be referenced. *)
        let keyed =
          List.map
            (fun pairs ->
              let cols = Array.of_list (List.map fst pairs) in
              let row = Array.of_list (List.map snd pairs) in
              let env =
                [ [ { bind_name = ""; bind_cols = cols; bind_row = row } ] ]
              in
              let keys =
                List.map
                  (fun (e, dir) -> (eval_expr where_ctx env e, dir))
                  order_by
              in
              (keys, pairs))
            result_pairs
        in
        List.map snd (sort_by_keys keyed)
      else
        let keyed =
          List.map2
            (fun env pairs ->
              let keys =
                List.map
                  (fun (e, dir) -> (eval_expr where_ctx env e, dir))
                  order_by
              in
              (keys, pairs))
            envs_for_sort result_pairs
        in
        List.map snd (sort_by_keys keyed)
  in
  let cols =
    match ordered_pairs with
    | pairs :: _ -> Array.of_list (List.map fst pairs)
    | [] -> static_output_columns ctx s
  in
  let rows = List.map (fun pairs -> Array.of_list (List.map snd pairs)) ordered_pairs in
  let rows =
    if s.Ast.distinct then begin
      let module Row_set = Set.Make (struct
        type t = Row.t

        let compare = Row.compare_total
      end) in
      let _, acc =
        List.fold_left
          (fun (seen, acc) row ->
            if Row_set.mem row seen then (seen, acc)
            else (Row_set.add row seen, row :: acc))
          (Row_set.empty, []) rows
      in
      List.rev acc
    end
    else rows
  in
  let rows =
    match s.Ast.limit with
    | None -> rows
    | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k <= 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      take n rows
  in
  ({ rel_name = ""; cols; rows }, if s.Ast.group_by = [] then read else None)

(* Output column names when the result has no rows: derive them from
   the projection list and the source schemas. *)
and static_output_columns ctx (s : Ast.select) =
  let source_cols item =
    match item.Ast.source with
    | Ast.Derived sub -> (
      match item.Ast.alias with
      | Some a -> Some (a, (eval_select_inner ctx [] sub).cols)
      | None -> Some ("", (eval_select_inner ctx [] sub).cols))
    | src -> (
      let rel = try Some (ctx.resolve src) with _ -> None in
      match rel with
      | None -> None
      | Some rel ->
        let name =
          match item.Ast.alias with Some a -> a | None -> rel.rel_name
        in
        Some (name, rel.cols))
  in
  let sources = List.filter_map source_cols s.Ast.from in
  let names =
    List.concat_map
      (function
        | Ast.Star -> List.concat_map (fun (_, cols) -> Array.to_list cols) sources
        | Ast.Table_star t -> (
          match List.find_opt (fun (n, _) -> String.equal n t) sources with
          | Some (_, cols) -> Array.to_list cols
          | None -> [])
        | Ast.Proj (e, alias) ->
          [ (match alias with Some a -> a | None -> default_proj_name e) ])
      s.Ast.projections
  in
  Array.of_list names

(* Public entry points *)

let make_context ?cache ?access resolve =
  { resolve; group = None; cache; watches = []; access }

let eval_select ?cache ?access ?(outer = empty_env) resolve s =
  (* exception-safety injection site: only the public entry, so the hit
     count per operation stays bounded (subqueries recurse through
     [eval_select_inner] directly) *)
  Fault.hit Fault.Query_eval;
  eval_select_inner (make_context ?cache ?access resolve) outer s

let eval_expr_in ?cache ?access ?(outer = empty_env) resolve env e =
  eval_expr (make_context ?cache ?access resolve) (env @ outer) e

let eval_predicate ?cache ?access ?(outer = empty_env) resolve env e =
  Value.truth_holds
    (value_truth (eval_expr (make_context ?cache ?access resolve) (env @ outer) e))

let eval_select_read ?cache ~access resolve s =
  Fault.hit Fault.Query_eval;
  let ctx = make_context ?cache ~access resolve in
  match s.Ast.compounds with
  | [] -> eval_select_plain_read ctx empty_env s
  | _ :: _ -> (eval_compound ctx empty_env s, None)

(* Entry point for the DML layer's victim selection: probe one base
   table directly, using the same sargable detection, independence
   analysis, cost ranking and fallback semantics as the FROM-list
   planner. *)
let probe_table ?cache ~access resolve ~table ~bind_name ~cols where =
  probe_plan
    { resolve; group = None; cache; watches = []; access = Some access }
    empty_env
    ~frame:[ (bind_name, cols) ]
    ~target_name:bind_name ~table where

(* ------------------------------------------------------------------ *)
(* EXPLAIN: access-path planning without execution                     *)

(* The planning functions below re-run exactly the decision procedure
   [from_row_envs] and the DML victim selection use — the same
   [probe_plan] call with the same frame, binding name and WHERE clause
   — but stop short of realizing the planned sources or mutating
   anything.  [matches] counts the handles the probe returned (the rows
   the executor would enumerate before residual filtering); [rows] is
   the table's current cardinality, i.e. what a scan would read.
   Probing evaluates the sargable conjunct's value side (possibly an
   uncorrelated subquery), so planning can read — but never write —
   the database.  Plans cover the top-level FROM sources of each select
   core and the victim table of DELETE/UPDATE; tables touched only
   inside predicate subqueries are not enumerated. *)

type access_path =
  | Seq_scan of { table : string; rows : int option }
  | Index_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int option;
      matches : int;
      rows : int option;
    }
  | Range_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int option;
      matches : int;
      rows : int option;
    }
  | Materialized of { source : string; rows : int }

(* A source joined to an earlier FROM binding by a build/probe hash
   join on an equi-join conjunct (one build per statement execution,
   one probe per partial row of the frame under construction). *)
type join_plan = { jp_with : string; jp_conjunct : string }

type source_plan = {
  sp_binding : string;
  sp_path : access_path;
  sp_join : join_plan option;
}

let probed_path access ~table hit =
  let index = access.acc_index ~table ~column:hit.ph_column in
  let column = hit.ph_column in
  let conjunct = Pretty.expr_str hit.ph_conjunct in
  let est = hit.ph_est in
  let matches = List.length hit.ph_pairs in
  let rows = table_count access ~table in
  match hit.ph_kind with
  | `Eq -> Index_probe { table; index; column; conjunct; est; matches; rows }
  | `Range ->
    Range_probe { table; index; column; conjunct; est; matches; rows }

let plan_core ctx (outer : env) (s : Ast.select) : source_plan list =
  let access =
    match ctx.access with Some a -> a | None -> assert false
  in
  (* mirror of [from_row_envs]'s [resolve_item]: same binding names,
     same lazy-vs-eager split *)
  let resolve_item ix item =
    let named rel =
      match item.Ast.alias with
      | Some a -> a
      | None -> if rel.rel_name = "" then Printf.sprintf "$%d" ix else rel.rel_name
    in
    match item.Ast.source with
    | Ast.Derived sub ->
      let rel = eval_select_inner ctx outer sub in
      (named rel, rel.cols, `Materialized ("derived table", List.length rel.rows))
    | Ast.Base tbl_name -> (
      match table_cols access ~table:tbl_name with
      | Some cols ->
        (Option.value item.Ast.alias ~default:tbl_name, cols, `Lazy tbl_name)
      | None ->
        (* unknown table: resolving raises the same error execution
           would *)
        let rel = ctx.resolve item.Ast.source in
        (named rel, rel.cols, `Materialized ("table " ^ tbl_name, List.length rel.rows)))
    | Ast.Transition tt as src ->
      let rel = ctx.resolve src in
      ( named rel,
        rel.cols,
        `Materialized
          ("transition table " ^ Pretty.trans_table_str tt, List.length rel.rows) )
  in
  let sources = List.mapi resolve_item s.Ast.from in
  let names = List.map (fun (n, _, _) -> n) sources in
  let rec check = function
    | [] -> ()
    | n :: rest ->
      if List.exists (String.equal n) rest then
        Errors.semantic "duplicate table name %S in from clause; use an alias" n;
      check rest
  in
  check names;
  let frame = List.map (fun (n, cols, _) -> (n, cols)) sources in
  (* mirror of [from_row_envs]'s equi-join link selection: a source is
     hash-joined to the first equi-join conjunct connecting it to an
     earlier binding.  (Execution skips the build when an earlier
     source turned out empty — the frame is already empty then, so the
     join never runs; the static plan reports the join it would do.) *)
  let attribute qualifier column =
    let has_col (_, cols) = Array.exists (String.equal column) cols in
    match qualifier with
    | Some q -> (
      match List.find_opt (fun (n, _) -> String.equal n q) frame with
      | Some src when has_col src -> Some src
      | _ -> None)
    | None -> (
      match List.filter has_col frame with [ src ] -> Some src | _ -> None)
  in
  let equi_pairs =
    if not !join_optimization then []
    else
      match s.Ast.where with
      | None -> []
      | Some pred ->
        List.filter_map
          (fun conj ->
            match conj with
            | Ast.Cmp
                ( Ast.Eq,
                  Ast.Col { qualifier = q1; column = c1 },
                  Ast.Col { qualifier = q2; column = c2 } ) -> (
              match attribute q1 c1, attribute q2 c2 with
              | Some (n1, _), Some (n2, _) when not (String.equal n1 n2) ->
                Some (conj, n1, n2)
              | _ -> None)
            | _ -> None)
          (conjuncts pred)
  in
  let link_for prior name =
    List.find_map
      (fun (conj, n1, n2) ->
        if String.equal n2 name && List.mem n1 prior then
          Some { jp_with = n1; jp_conjunct = Pretty.expr_str conj }
        else if String.equal n1 name && List.mem n2 prior then
          Some { jp_with = n2; jp_conjunct = Pretty.expr_str conj }
        else None)
      equi_pairs
  in
  let _, plans =
    List.fold_left
      (fun (prior, acc) (name, _cols, kind) ->
        let path =
          match kind with
          | `Materialized (what, n) -> Materialized { source = what; rows = n }
          | `Lazy table -> (
            match
              probe_plan ctx outer ~frame ~target_name:name ~table s.Ast.where
            with
            | Some hit -> probed_path access ~table hit
            | None -> Seq_scan { table; rows = table_count access ~table })
        in
        let sp_join = link_for prior name in
        (name :: prior, { sp_binding = name; sp_path = path; sp_join } :: acc))
      ([], []) sources
  in
  List.rev plans

let plan_select_inner ctx outer (s : Ast.select) =
  let cores = { s with Ast.compounds = [] } :: List.map snd s.Ast.compounds in
  List.concat_map (plan_core ctx outer) cores

let plan_select ?cache ~access resolve s =
  plan_select_inner (make_context ?cache ~access resolve) empty_env s

let plan_op ?cache ~access resolve (op : Ast.op) : source_plan list =
  let ctx = make_context ?cache ~access resolve in
  match op with
  | Ast.Select_op s -> plan_select_inner ctx empty_env s
  | Ast.Insert { source = `Select s; _ } -> plan_select_inner ctx empty_env s
  | Ast.Insert { source = `Values _; _ } -> []
  | Ast.Delete { table; where } | Ast.Update { table; where; _ } ->
    (* mirror of the DML layer's victim selection (see
       [Dml.selected_handles]): the table is bound under its own name *)
    let cols =
      match table_cols access ~table with
      | Some cols -> cols
      | None -> (ctx.resolve (Ast.Base table)).cols
    in
    let path =
      match
        probe_plan ctx empty_env
          ~frame:[ (table, cols) ]
          ~target_name:table ~table where
      with
      | Some hit -> probed_path access ~table hit
      | None -> Seq_scan { table; rows = table_count access ~table }
    in
    [ { sp_binding = table; sp_path = path; sp_join = None } ]

let describe_probe what (index, column, conjunct, est, matches, rows) =
  let ix = match index with Some i -> i | None -> "<unnamed index>" in
  let est_s =
    match est with None -> "" | Some e -> Printf.sprintf "est ~%d, " e
  in
  let total =
    match rows with Some n -> Printf.sprintf " of %d" n | None -> ""
  in
  Printf.sprintf "%s via %s on %s, conjunct %s: %s%d%s rows" what ix column
    conjunct est_s matches total

let describe_access_path = function
  | Seq_scan { table; rows } ->
    let r =
      match rows with Some n -> Printf.sprintf " (%d rows)" n | None -> ""
    in
    Printf.sprintf "seq scan of %s%s" table r
  | Index_probe { table; index; column; conjunct; est; matches; rows } ->
    describe_probe
      (Printf.sprintf "index probe of %s" table)
      (index, column, conjunct, est, matches, rows)
  | Range_probe { table; index; column; conjunct; est; matches; rows } ->
    describe_probe
      (Printf.sprintf "range probe of %s" table)
      (index, column, conjunct, est, matches, rows)
  | Materialized { source; rows } ->
    Printf.sprintf "materialized %s (%d rows)" source rows

let describe_source_plan { sp_binding; sp_path; sp_join } =
  let join =
    match sp_join with
    | None -> ""
    | Some { jp_with; jp_conjunct } ->
      Printf.sprintf ", hash join with %s on %s" jp_with jp_conjunct
  in
  Printf.sprintf "%s: %s%s" sp_binding (describe_access_path sp_path) join
