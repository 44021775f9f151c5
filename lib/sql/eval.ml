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
   from the incrementally-maintained statistics: the row count [nrows]
   and the per-indexed-column distinct key count.  [None] = no usable index
   (no index at all, or a range shape without an ordered index).
   Selectivity of ranges is guessed at 1/3 (1/4 for prefixes) in the
   System R tradition — no histograms are kept. *)
let estimate_shape access ~table ~nrows ~column shape =
  match access.acc_stats ~table ~column with
  | None -> None
  | Some (distinct, ordered) -> (
    match shape with
    | Shape_eq k ->
      let k = Option.value k ~default:2 in
      Some (k * nrows / max 1 distinct)
    | Shape_set k -> Some (k * nrows / max 1 distinct)
    | Shape_range -> if ordered then Some ((nrows + 2) / 3) else None
    | Shape_prefix -> if ordered then Some ((nrows + 3) / 4) else None)

(* The cost rule for one candidate: its estimate when a probe of
   [shape] over [column] is worth attempting, [None] when there is no
   usable index or the scan is no dearer.  A probe never enumerates
   more rows than the scan, but when the estimate says it would not
   help, the plan stays honest and scans. *)
let admissible access ~table ~column shape =
  let scan_cost = table_count access ~table in
  match
    estimate_shape access ~table ~nrows:(Option.value scan_cost ~default:0) ~column shape
  with
  | None -> None
  | Some est -> (
    match scan_cost, shape with
    | Some n, _ when est > n -> None
    | Some n, Shape_set k when k * rows_per_probe_key > n -> None
    | Some _, _ | None, _ -> Some est)

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
   Without a usable index no candidate survives, so an index-free
   system always scans. *)
let choose_candidates access ~table cands =
  List.filter_map
    (fun (payload, column, shape) ->
      Option.map (fun est -> (payload, est)) (admissible access ~table ~column shape))
    cands
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)

(* A successful probe decision: which column and WHERE conjunct
   satisfied it, by equality or range probe, the estimate that ranked
   it, and the rows it enumerates. *)
type probe_hit = {
  ph_column : string;
  ph_conjunct : Ast.expr;
  ph_kind : [ `Eq | `Range ];
  ph_est : int;
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
    | e ->
      (* literals and bound parameters are constants *)
      Ast.fold_expr
        ~expr:(fun ok e -> ok && expr inners e)
        ~select:(fun ok s -> ok && sel inners s)
        true e
  and sel inners (s : Ast.select) =
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
    (* the select's own expressions see its frame; its derived FROM
       items and compound arms evaluate against the scopes outside it,
       so they are walked with the enclosing stack *)
    Ast.fold_select
      ~expr:(fun ok e -> ok && expr inners' e)
      ~select:(fun ok sub -> ok && sel inners sub)
      true s
  in
  (expr [], sel [])

(* A sargable conjunct of a WHERE clause for one FROM source: the
   conjunct, the column it constrains, its static shape, and its value
   side — an AST in the interpreter, closures in the compiler. *)
type ('e, 's) probe_values =
  | Pv_exprs of 'e list (* [col = e], [col IN (e, ...)] *)
  | Pv_select of 's (* [col IN (select ...)] *)
  | Pv_bounds of ('e * bool) option * ('e * bool) option
      (* range bounds (value, inclusive?) *)
  | Pv_like of 'e (* the pattern of [col LIKE p] *)

type ('e, 's) sargable = {
  sg_conjunct : Ast.expr;
  sg_column : string;
  sg_shape : probe_shape;
  sg_values : ('e, 's) probe_values;
}

(* The access-path planner's candidate scan, shared by both evaluators:
   the WHERE conjuncts of the sargable patterns — [col = e], [e = col],
   [col IN (e, ...)], [col IN (select ...)], the range comparisons
   [col < e] / [col <= e] / [col > e] / [col >= e] (and mirrored),
   [col BETWEEN a AND b] and [col LIKE p] — whose column attributes
   uniquely to the source bound as [target] in [frame] and whose other
   side provably cannot reference the frame (see [independence]), in
   conjunct order; a lower and an upper comparison on one column make
   one two-sided range candidate. *)
let sargable_candidates ~frame ~target ~cols_of pred =
  let ind_expr, ind_sel = independence ~target:frame ~cols_of in
  let attributes_to_target qualifier column =
    let has (_, cols) = Array.exists (String.equal column) cols in
    match qualifier with
    | Some q ->
      String.equal q target
      && (match List.find_opt (fun (n, _) -> String.equal n q) frame with
         | Some src -> has src
         | None -> false)
    | None -> (
      match List.filter has frame with
      | [ (n, _) ] -> String.equal n target
      | _ -> false)
  in
  let range_of op e =
    (* the column is on the left: [col op e] *)
    match op with
    | Ast.Lt -> Some (Pv_bounds (None, Some (e, false)))
    | Ast.Le -> Some (Pv_bounds (None, Some (e, true)))
    | Ast.Gt -> Some (Pv_bounds (Some (e, false), None))
    | Ast.Ge -> Some (Pv_bounds (Some (e, true), None))
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
    let found column shape values =
      Some { sg_conjunct = conj; sg_column = column; sg_shape = shape; sg_values = values }
    in
    match conj with
    | Ast.Cmp (Ast.Eq, Ast.Col { qualifier; column }, e)
      when attributes_to_target qualifier column && ind_expr e ->
      found column (Shape_eq (Some 1)) (Pv_exprs [ e ])
    | Ast.Cmp (Ast.Eq, e, Ast.Col { qualifier; column })
      when attributes_to_target qualifier column && ind_expr e ->
      found column (Shape_eq (Some 1)) (Pv_exprs [ e ])
    | Ast.In_list (Ast.Col { qualifier; column }, es)
      when attributes_to_target qualifier column && List.for_all ind_expr es ->
      found column (Shape_eq (Some (List.length es))) (Pv_exprs es)
    | Ast.In_select (Ast.Col { qualifier; column }, sub)
      when attributes_to_target qualifier column && ind_sel sub ->
      found column (Shape_eq None) (Pv_select sub)
    | Ast.Cmp (op, Ast.Col { qualifier; column }, e)
      when attributes_to_target qualifier column && ind_expr e ->
      Option.bind (range_of op e) (found column Shape_range)
    | Ast.Cmp (op, e, Ast.Col { qualifier; column })
      when attributes_to_target qualifier column && ind_expr e ->
      Option.bind (range_of (mirror op) e) (found column Shape_range)
    | Ast.Between (Ast.Col { qualifier; column }, lo, hi)
      when attributes_to_target qualifier column && ind_expr lo && ind_expr hi ->
      found column Shape_range (Pv_bounds (Some (lo, true), Some (hi, true)))
    | Ast.Like (Ast.Col { qualifier; column }, p)
      when attributes_to_target qualifier column && ind_expr p ->
      found column Shape_prefix (Pv_like p)
    | _ -> None
  in
  (* one column's lower and upper comparisons bound one range: the
     first of each merges into a two-sided candidate at the earlier
     one's place, whose conjunct is the pair in text order *)
  let two_sided cd c =
    if not (String.equal c.sg_column cd.sg_column) then None
    else
      match cd.sg_values, c.sg_values with
      | Pv_bounds (Some lo, None), Pv_bounds (None, Some hi)
      | Pv_bounds (None, Some hi), Pv_bounds (Some lo, None) ->
        Some (c, Pv_bounds (Some lo, Some hi))
      | _ -> None
  in
  let rec merge = function
    | [] -> []
    | cd :: rest -> (
      match List.find_map (two_sided cd) rest with
      | None -> cd :: merge rest
      | Some (c, values) ->
        let conjunct = Ast.And (cd.sg_conjunct, c.sg_conjunct) in
        { cd with sg_conjunct = conjunct; sg_values = values }
        :: merge (List.filter (fun x -> x != c) rest))
  in
  merge (List.filter_map candidate (conjuncts pred))

(* Rank [cands] with [choose_candidates] and try them cheapest first:
   probe values are evaluated with [eval] (and an IN subquery's value
   set with [eval_set]) and any evaluation error or unusable index falls
   back to the next candidate and finally to [None], the scan — which
   either reports the same error while filtering or, e.g. over an empty
   table, never evaluates the faulty expression, exactly matching
   unoptimized behaviour.  NULL probe values and range bounds match
   nothing, as SQL comparison semantics require. *)
let probe_candidates access ~table ~eval ~eval_set cands =
  let attempt (cd, est) =
    let column = cd.sg_column in
    let eval_bound = Option.map (fun (e, incl) -> (eval e, incl)) in
    let est = ref est in
    let probe () =
      match cd.sg_values with
      | Pv_exprs es -> access.acc_probe ~table ~column (List.map eval es)
      | Pv_select sub -> (
        let values = eval_set sub in
        (* re-ranked from the evaluated set's size *)
        match admissible access ~table ~column (Shape_set (List.length values)) with
        | None -> None
        | Some e ->
          est := e;
          access.acc_probe ~table ~column values)
      | Pv_bounds (lo, hi) ->
        access.acc_range ~table ~column ~lower:(eval_bound lo) ~upper:(eval_bound hi)
      | Pv_like p -> (
        match eval p with
        | Value.Null ->
          (* LIKE NULL is UNKNOWN for every row: a NULL-bounded range
             probe selects exactly nothing *)
          access.acc_range ~table ~column ~lower:(Some (Value.Null, true)) ~upper:None
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
        match cd.sg_values with
        | Pv_exprs _ | Pv_select _ -> `Eq
        | Pv_bounds _ | Pv_like _ -> `Range
      in
      Some
        {
          ph_column = column;
          ph_conjunct = cd.sg_conjunct;
          ph_kind = kind;
          ph_est = !est;
          ph_pairs = pairs;
        }
  in
  List.map (fun cd -> (cd, cd.sg_column, cd.sg_shape)) cands
  |> choose_candidates access ~table
  |> List.find_map attempt

(* ------------------------------------------------------------------ *)
(* FROM-list analysis and joins                                        *)

(* A hash-join link of one FROM source to an earlier one: the earlier
   source's position and join column, this source's join column, and
   the [col = col] conjunct that links them. *)
type join_link = {
  jl_with : int;
  jl_with_col : int;
  jl_col : int;
  jl_conjunct : Ast.expr;
}

let col_index cols c =
  let rec go i =
    if i >= Array.length cols then None
    else if String.equal cols.(i) c then Some i
    else go (i + 1)
  in
  go 0

(* The static analysis of a FROM list, shared by the interpreter, the
   compiler and the planner.  [frame] is each source's (binding name,
   columns) in FROM order.  A binding name used twice is an error:
   unqualified references could silently pick the wrong one.  Otherwise
   each source is linked by the first WHERE conjunct [a = b] whose two
   column references attribute to exactly one local source each — this
   source and an earlier one — and is hash-joined on it; a source
   without a link is joined by nested loop. *)
let from_links frame (where : Ast.expr option) :
    (join_link option list, Errors.t) result =
  let rec duplicate = function
    | [] -> None
    | (n, _) :: rest ->
      if List.exists (fun (m, _) -> String.equal n m) rest then Some n
      else duplicate rest
  in
  match duplicate frame with
  | Some n ->
    Error
      (Errors.Semantic_error
         (Printf.sprintf "duplicate table name %S in from clause; use an alias" n))
  | None ->
    let sources = List.mapi (fun i (n, cols) -> (i, n, cols)) frame in
    (* attribute a column reference to exactly one local source:
       (source position, column position) *)
    let attribute qualifier column =
      let at (i, _, cols) = Option.map (fun c -> (i, c)) (col_index cols column) in
      match qualifier with
      | Some q ->
        Option.bind
          (List.find_opt (fun (_, n, _) -> String.equal n q) sources)
          at
      | None -> (
        match List.filter_map at sources with [ hit ] -> Some hit | _ -> None)
    in
    let pairs =
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
              | Some a, Some b when fst a <> fst b -> Some (conj, a, b)
              | _ -> None)
            | _ -> None)
          (conjuncts pred)
    in
    let link k (conj, (i1, c1), (i2, c2)) =
      if i2 = k && i1 < k then
        Some { jl_with = i1; jl_with_col = c1; jl_col = c2; jl_conjunct = conj }
      else if i1 = k && i2 < k then
        Some { jl_with = i2; jl_with_col = c2; jl_col = c1; jl_conjunct = conj }
      else None
    in
    Ok (List.mapi (fun k _ -> List.find_map (link k) pairs) frame)

(* [from_links] for an executor that reports the error at once. *)
let from_links_exn frame where =
  match from_links frame where with
  | Ok links -> links
  | Error e -> Errors.raise_error e

(* Hashing that agrees with [Value.compare_total], under which an Int
   equals the Float of the same value: a number is hashed as the int it
   equals when that is exact (magnitude below 2^53), else as a float —
   float hashing identifies -0.0 with 0.0 and all NaNs, as
   [Float.compare] does.  Join keys and GROUP BY keys may mix Int and
   Float, and a probe value's constructor is not known when the table
   is built. *)
let exact_int_bound = 9007199254740992 (* 2^53 *)

let hash_value = function
  | Value.Int n ->
    if abs n < exact_int_bound then Hashtbl.hash n else Hashtbl.hash (Float.of_int n)
  | Value.Float f ->
    if Float.is_integer f && Float.abs f < Float.of_int exact_int_bound then
      Hashtbl.hash (Float.to_int f)
    else Hashtbl.hash f
  | v -> Hashtbl.hash v

module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal a b = Value.compare_total a b = 0
  let hash = hash_value
end)

module Row_tbl = Hashtbl.Make (struct
  type t = Row.t

  let equal a b = Row.compare_total a b = 0
  let hash row = Array.fold_left (fun h v -> (h * 65599) + hash_value v) 0 row
end)

(* The build side of a hash join: rows bucketed by their key at one
   column, each bucket in scan order. *)
type join_table = Row.t list ref Value_tbl.t

(* [build_join_table ~size col iter] hashes the [size] rows [iter]
   enumerates in scan order. *)
let build_join_table ~size col iter : join_table =
  let tbl = Value_tbl.create (max 16 size) in
  iter (fun (row : Row.t) ->
      match Value_tbl.find_opt tbl row.(col) with
      | Some cell -> cell := row :: !cell
      | None -> Value_tbl.add tbl row.(col) (ref [ row ]));
  Value_tbl.iter (fun _ cell -> cell := List.rev !cell) tbl;
  tbl

let join_matches (tbl : join_table) key =
  match Value_tbl.find_opt tbl key with Some cell -> !cell | None -> []

(* The join method of a base table read through [access] and linked to
   an earlier source, for [partials] partial frames: [Some est] probes
   the index over the link column once per partial frame (an index
   nested-loop join), when the cost rule prefers [partials] key probes
   to a scan; [None] builds the hash table. *)
let index_join access ~table ~column ~partials =
  admissible access ~table ~column (Shape_set partials)

(* One probe of an index nested-loop join: the rows whose link column
   equals [key], in handle (= scan) order.  A NULL or type-incompatible
   key matches nothing; the hash table pairs NULL keys, but the link
   conjunct in WHERE rejects every such pair, so the two joins agree. *)
let index_join_rows access ~table ~column key =
  access.acc_note ~table `Index_probe;
  match access.acc_probe ~table ~column [ key ] with Some pairs -> pairs | None -> []

(* Extend the partial frames of a FROM list (one binding per earlier
   source, newest first) by the rows of its [k]-th source, bound as
   [name]: hashed on the link's key when there is a link and a frame to
   probe it with — [access] hears the build and each probe — else every
   row extends every frame.  Both enumerate in nested-loop order, and
   the caller still applies the full WHERE predicate, so the two give
   identical results. *)
let join_source access ~name ~cols k link rows partials =
  let bind row partial = { bind_name = name; bind_cols = cols; bind_row = row } :: partial in
  match link with
  | Some l when partials <> [] ->
    let note ev = match access with Some a -> a.acc_note ~table:name ev | None -> () in
    note `Hash_join_build;
    let table =
      build_join_table ~size:(List.length rows) l.jl_col (fun f -> List.iter f rows)
    in
    List.concat_map
      (fun partial ->
        note `Hash_join_probe;
        let bound = (List.nth partial (k - 1 - l.jl_with)).bind_row in
        List.map (fun row -> bind row partial) (join_matches table bound.(l.jl_with_col)))
      partials
  | Some _ | None ->
    List.concat_map (fun partial -> List.map (fun row -> bind row partial) rows) partials

(* How one FROM source is read (see [join_from]): its materialized
   rows, a scan or index probe of a base table, or an index nested-loop
   join probing the table once per partial frame. *)
type source_read =
  | Read_rows of Row.t list
  | Read_scan of Table.t
  | Read_probe of probe_hit
  | Read_index_join of { est : int; probes : int }

let read_rows = function
  | Read_rows rows -> rows
  | Read_scan tbl -> Table.rows tbl
  | Read_probe hit -> List.map snd hit.ph_pairs
  | Read_index_join _ -> invalid_arg "read_rows: an index join has no rows of its own"

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

module Row_set = Set.Make (struct
  type t = Row.t

  let compare = Row.compare_total
end)

(* DISTINCT: the first occurrence of each row, in order. *)
let dedupe_rows rows =
  let _, acc =
    List.fold_left
      (fun (seen, acc) row ->
        if Row_set.mem row seen then (seen, acc)
        else (Row_set.add row seen, row :: acc))
      (Row_set.empty, []) rows
  in
  List.rev acc

let take_limit limit rows =
  match limit with
  | None -> rows
  | Some n ->
    let rec go k = function
      | [] -> []
      | _ when k <= 0 -> []
      | x :: rest -> x :: go (k - 1) rest
    in
    go n rows

(* One step of a compound select: the rows combined so far with the
   next arm's result.  UNION ALL keeps duplicates; UNION, EXCEPT and
   INTERSECT have set semantics. *)
let combine_compound ~(head : relation) rows op (part : relation) =
  if Array.length part.cols <> Array.length head.cols then
    Errors.semantic "compound select operands must have the same number of columns";
  match op with
  | Ast.Union_all -> rows @ part.rows
  | Ast.Union -> dedupe_rows (rows @ part.rows)
  | Ast.Except ->
    let right = Row_set.of_list part.rows in
    dedupe_rows (List.filter (fun row -> not (Row_set.mem row right)) rows)
  | Ast.Intersect ->
    let right = Row_set.of_list part.rows in
    dedupe_rows (List.filter (fun row -> Row_set.mem row right) rows)

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
  (* aggregates inside a subquery belong to the subquery *)
  let rec has_agg found = function
    | Ast.Agg _ -> true
    | e -> found || Ast.fold_expr ~expr:has_agg ~select:(fun found _ -> found) false e
  in
  s.Ast.group_by <> []
  || Option.fold ~none:false ~some:(has_agg false) s.Ast.having
  || List.exists
       (function
         | Ast.Star | Ast.Table_star _ -> false
         | Ast.Proj (e, _) -> has_agg false e)
       s.Ast.projections

and default_proj_name e =
  match e with
  | Ast.Col { column; _ } -> column
  | e -> Pretty.expr_str e

(* The FROM sources of a select in FROM order: binding name, columns,
   and either eagerly materialized rows (a derived table, a transition
   table, or a table the access hooks don't cover, with what EXPLAIN
   calls it) or a base table read lazily through the access hooks. *)
and from_sources ctx (outer : env) (from : Ast.from_item list) =
  let resolve_item ix item =
    let named rel =
      match item.Ast.alias with
      | Some a -> a
      | None -> if rel.rel_name = "" then Printf.sprintf "$%d" ix else rel.rel_name
    in
    let eager what src =
      let rel = ctx.resolve src in
      (named rel, rel.cols, `Rows (what, rel.rows))
    in
    match item.Ast.source with
    | Ast.Derived s ->
      let rel = eval_select_inner ctx outer s in
      (named rel, rel.cols, `Rows ("derived table", rel.rows))
    | Ast.Base tbl_name as src -> (
      match Option.bind ctx.access (fun a -> a.acc_table ~table:tbl_name) with
      | Some tbl ->
        ( Option.value item.Ast.alias ~default:tbl_name,
          Table.col_names tbl,
          `Table (tbl_name, tbl) )
      | None -> eager ("table " ^ tbl_name) src)
    | Ast.Transition tt as src ->
      eager ("transition table " ^ Pretty.trans_table_str tt) src
  in
  List.mapi resolve_item from

(* The FROM-list join, source by source, shared by the interpreter and
   EXPLAIN.  Each source is read as decided from the partial frames it
   extends: a base table linked to an earlier source by an index
   nested-loop join when [index_join] prefers probing its index once per
   partial frame, else by index probe or scan (then hash-joined on a
   link, nested-loop joined otherwise); eager sources by their rows.
   Returns the partial frames (one binding per source, newest first)
   and each source's read.  With [~extend_last:false] the last source
   is only decided, not joined — EXPLAIN needs no more. *)
and join_from ctx (outer : env) ~frame ~where sources links ~extend_last =
  let n = List.length sources in
  let step (partials, k, reads) ((name, cols, src), link) =
    let read =
      match src, link with
      | `Rows (_, rows), _ -> Read_rows rows
      | `Table (table, tbl), link -> (
        let access = Option.get ctx.access in
        let index_joined =
          match link with
          | Some l ->
            index_join access ~table ~column:cols.(l.jl_col)
              ~partials:(List.length partials)
          | None -> None
        in
        match index_joined with
        | Some est -> Read_index_join { est; probes = List.length partials }
        | None -> (
          match probe_plan ctx outer ~frame ~target_name:name ~table where with
          | Some hit ->
            access.acc_note ~table
              (match hit.ph_kind with `Eq -> `Index_probe | `Range -> `Range_probe);
            Read_probe hit
          | None ->
            access.acc_note ~table `Seq_scan;
            Read_scan tbl))
    in
    let partials =
      if k = n - 1 && not extend_last then []
      else
        match read, src, link with
        | Read_index_join _, `Table (table, _), Some l ->
          let access = Option.get ctx.access in
          let column = cols.(l.jl_col) in
          List.concat_map
            (fun partial ->
              let bound = (List.nth partial (k - 1 - l.jl_with)).bind_row in
              List.map
                (fun (_, row) ->
                  { bind_name = name; bind_cols = cols; bind_row = row } :: partial)
                (index_join_rows access ~table ~column bound.(l.jl_with_col)))
            partials
        | _ -> join_source ctx.access ~name ~cols k link (read_rows read) partials
    in
    (partials, k + 1, read :: reads)
  in
  let partials, _, reads =
    List.fold_left step ([ [] ], 0, []) (List.combine sources links)
  in
  (partials, List.rev reads)

(* Materialize the from-list as row environments, each extended with
   the outer scopes, joined as [join_from] decides.  An index probe
   returns the matching rows in handle order — an order-preserving
   subsequence of the scan — and the full WHERE predicate is still
   applied afterwards, so results are identical to a scan's.

   When the from-list is a single lazily realized base table, the
   handles of its rows come back too, aligned with the environments:
   the tuples the select retrieved, for the Section 5.1 read set. *)
and from_row_envs ctx (outer : env) ?where (from : Ast.from_item list) :
    env list * Handle.t list option =
  let sources = from_sources ctx outer from in
  let frame = List.map (fun (n, cols, _) -> (n, cols)) sources in
  let links = from_links_exn frame where in
  match sources with
  | [ (name, cols, `Table _) ] ->
    let pairs =
      match join_from ctx outer ~frame ~where sources links ~extend_last:false with
      | _, [ Read_probe hit ] -> hit.ph_pairs
      | _, [ Read_scan tbl ] -> Table.to_list tbl
      | _ -> assert false
    in
    ( List.map
        (fun (_, row) ->
          [ { bind_name = name; bind_cols = cols; bind_row = row } ] :: outer)
        pairs,
      Some (List.map fst pairs) )
  | _ ->
    let frames, _ = join_from ctx outer ~frame ~where sources links ~extend_last:true in
    (List.map (fun frame -> List.rev frame :: outer) frames, None)

(* The access-path planner: try to satisfy one FROM source by an index
   probe instead of a scan, over the candidates [sargable_candidates]
   finds.  Probe values are evaluated once against the outer scopes. *)
and probe_plan ctx (outer : env) ~frame ~target_name ~table
    (where : Ast.expr option) : probe_hit option =
  match ctx.access, where with
  | None, _ | _, None -> None
  | Some access, Some pred ->
    let eval_ctx = { ctx with group = None } in
    sargable_candidates ~frame ~target:target_name
      ~cols_of:(fun t -> table_cols access ~table:t)
      pred
    |> probe_candidates access ~table ~eval:(eval_expr eval_ctx outer)
         ~eval_set:(fun sub -> (subquery_in eval_ctx outer sub).in_values)

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
  let combined =
    List.fold_left
      (fun rows (op, sub) ->
        combine_compound ~head rows op (eval_select_plain ctx outer sub))
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
  { rel_name = ""; cols = head.cols; rows = take_limit s.Ast.limit ordered }

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
  let rows = if s.Ast.distinct then dedupe_rows rows else rows in
  let rows = take_limit s.Ast.limit rows in
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
   [join_from] and [probe_plan] calls with the same frame, binding name
   and WHERE clause — but stop short of joining the last source,
   evaluating WHERE or mutating anything.  The frames before the last
   source are joined, because an index nested-loop join is chosen from
   their count.  [matches] counts the handles the probe returned (the rows
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
      est : int;
      matches : int;
      rows : int option;
    }
  | Range_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int;
      matches : int;
      rows : int option;
    }
  | Index_join_probes of { table : string; probes : int; est : int; rows : int option }
  | Materialized of { source : string; rows : int }

(* How a source is joined to an earlier FROM binding on an equi-join
   conjunct: by a build/probe hash join (one build per statement
   execution, one probe per partial frame), or by an index nested-loop
   join probing the named index once per partial frame. *)
type join_method = Hash_join | Index_nested_loop of { index : string option }

type join_plan = { jp_with : string; jp_conjunct : string; jp_method : join_method }

type source_plan = {
  sp_binding : string;
  sp_path : access_path;
  sp_join : join_plan option;
}

(* A probe decision as a plan node: [Index_probe] or [Range_probe] by
   the hit's kind. *)
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

(* The executors' own decisions: [join_from] over the select's sources,
   with the partial frames of every source but the last realized so the
   join methods are decided from the same frame counts. *)
let plan_core ctx (outer : env) (s : Ast.select) : source_plan list =
  let access = Option.get ctx.access in
  let sources = from_sources ctx outer s.Ast.from in
  let frame = List.map (fun (n, cols, _) -> (n, cols)) sources in
  let links = from_links_exn frame s.Ast.where in
  let _, reads =
    join_from ctx outer ~frame ~where:s.Ast.where sources links ~extend_last:false
  in
  List.map2
    (fun ((name, cols, src), link) read ->
      let path =
        match src, read with
        | `Rows (what, rows), _ -> Materialized { source = what; rows = List.length rows }
        | `Table (table, _), Read_probe hit -> probed_path access ~table hit
        | `Table (table, _), Read_index_join { est; probes } ->
          Index_join_probes { table; probes; est; rows = table_count access ~table }
        | `Table (table, _), (Read_scan _ | Read_rows _) ->
          Seq_scan { table; rows = table_count access ~table }
      in
      let join l =
        let jp_method =
          match src, read with
          | `Table (table, _), Read_index_join _ ->
            Index_nested_loop { index = access.acc_index ~table ~column:cols.(l.jl_col) }
          | _ -> Hash_join
        in
        {
          jp_with = fst (List.nth frame l.jl_with);
          jp_conjunct = Pretty.expr_str l.jl_conjunct;
          jp_method;
        }
      in
      { sp_binding = name; sp_path = path; sp_join = Option.map join link })
    (List.combine sources links) reads

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
  let total =
    match rows with Some n -> Printf.sprintf " of %d" n | None -> ""
  in
  Printf.sprintf "%s via %s on %s, conjunct %s: est ~%d, %d%s rows" what ix column
    conjunct est matches total

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
  | Index_join_probes { table; probes; est; rows } ->
    let total = match rows with Some n -> Printf.sprintf " of %d rows" n | None -> "" in
    Printf.sprintf "%d index probes of %s (est ~%d%s)" probes table est total
  | Materialized { source; rows } ->
    Printf.sprintf "materialized %s (%d rows)" source rows

let describe_source_plan { sp_binding; sp_path; sp_join } =
  let join =
    match sp_join with
    | None -> ""
    | Some { jp_with; jp_conjunct; jp_method = Hash_join } ->
      Printf.sprintf ", hash join with %s on %s" jp_with jp_conjunct
    | Some { jp_with; jp_conjunct; jp_method = Index_nested_loop { index } } ->
      Printf.sprintf ", index nested-loop join with %s on %s via %s" jp_with jp_conjunct
        (Option.value index ~default:"<unnamed index>")
  in
  Printf.sprintf "%s: %s%s" sp_binding (describe_access_path sp_path) join
