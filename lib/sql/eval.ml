(* The evaluator's shared pieces: relations and resolvers, the
   access-path planner and cost model, the FROM-list analysis and join
   tables, SQL's three-valued logic and IN semantics, and the plan types
   EXPLAIN renders.  [Compile] lowers statements to closures over these.

   A compiled plan reads base tables in place, from the database state
   it runs on.  Derived tables and the paper's transition tables are
   [relation]s — named column lists plus rows; a [resolver] maps a
   transition-table reference to its relation, and the rules engine
   supplies one built from the triggering rule's transition
   information.

   SQL three-valued logic: predicates evaluate to [Value.Bool _] or
   [Value.Null] (unknown); a row is selected only when the predicate is
   definitely true. *)

open Relational

type relation = { rel_name : string; cols : string array; rows : Row.t list }

type resolver = Ast.trans_table -> relation

(* The resolver outside rule processing, where referencing a transition
   table is an error. *)
let no_transitions : resolver =
 fun tt ->
  Errors.raise_error (Errors.Invalid_transition_reference (Pretty.trans_table_str tt))

(* ------------------------------------------------------------------ *)
(* Memoized subqueries and IN value sets                               *)

(* Predicates are evaluated once per candidate row, so an embedded
   select with no references to outer rows would be re-evaluated for
   every row — quadratic blowup on the nested-IN patterns of the
   paper's rules (e.g. Example 4.1).  [Compile] gives each such
   subquery a memo slot holding a [memo]: its result, and — used as an
   IN (select ...) value set — the set's membership index, built on
   first use.  A memo is only sound while the database state is
   fixed. *)
type memo = { memo_rel : relation; mutable memo_in : in_set option }

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

(* The read decisions the executor takes: one per base-table access for
   scans and probes, one per hash-join build and one per probe into a
   built join table or per index nested-loop probe.  A plan runs with a
   [note] hearing each of them and the base table a scan or probe reads
   ([""] for the hash-join events), e.g. to count them. *)
type read_decision =
  [ `Seq_scan | `Index_probe | `Range_probe | `Hash_join_build | `Hash_join_probe ]

type note = read_decision -> string -> unit

let no_note : note = fun _ _ -> ()

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

(* The shape of a sargable conjunct, as much of it as is known without
   evaluating the value side: the key count of an equality/IN probe
   ([None] for IN (select ...)), a range, or a LIKE prefix range. *)
type probe_shape = Shape_eq of int option | Shape_range | Shape_prefix

(* Estimated rows a probe of [shape] over [column] of [tbl] would
   enumerate, from the incrementally-maintained statistics: the row
   count [nrows] and the per-indexed-column distinct key count.  [None]
   = no usable index (no index at all, or a range shape without an
   ordered index).  An IN (select ...) is guessed at two keys, and the
   selectivity of ranges at 1/3 (1/4 for prefixes) in the System R
   tradition — no histograms are kept.  The estimate only ranks the
   candidates: a probe checks what it reads while it gathers, against
   [probe_budget]. *)
let estimate_shape tbl ~column shape =
  match Table.column_stats tbl column with
  | None -> None
  | Some (distinct, ordered) -> (
    let nrows = Table.cardinality tbl in
    match shape with
    | Shape_eq k -> Some (Option.value k ~default:2 * nrows / max 1 distinct)
    | Shape_range -> if ordered then Some ((nrows + 2) / 3) else None
    | Shape_prefix -> if ordered then Some ((nrows + 3) / 4) else None)

(* Probing one key costs about as much as scanning this many rows
   (an index lookup plus the handle-order merge of the hits, against
   one residual-predicate test per scanned row). *)
let rows_per_probe_key = 4

(* The most an index read of [tbl] may spend before probing costs more
   than scanning the table: each handle gathered costs one and each key
   probed at least one.  Each hit is looked up in the table's row map,
   a descent of log2 n levels where a scan step reads one row; a small
   table costs what a key does ([rows_per_probe_key]). *)
let probe_budget tbl =
  let n = Table.cardinality tbl in
  let rec log2 n = if n < 2 then 0 else 1 + log2 (n / 2) in
  max 1 (n / max rows_per_probe_key (log2 n))

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

(* A probe given up for the scan: its kind, the index it read and the
   budget it passed. *)
type abandoned = { ab_kind : [ `Eq | `Range ]; ab_index : string option; ab_budget : int }

(* How the access-path planner reads a base table: by a probe, or by
   scan — naming the probe abandoned for it, if any. *)
type probe_outcome = Probed of probe_hit | Scan of abandoned option

(* The index a probe of [kind] over [column] reads ([Table.probe]): any
   index over the column for equality, an ordered one for a range. *)
let probe_index tbl column = function
  | `Eq -> Table.index_on_column tbl column
  | `Range -> Table.ordered_index_on_column tbl column

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
   side — an AST as found, closures once compiled. *)
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

(* The access-path planner's candidate scan:
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

(* The first candidate [attempt] probes, else [scan]: the scan naming
   the first probe abandoned. *)
let rec first_probed attempt scan = function
  | [] -> scan
  | cand :: rest -> (
    match attempt cand, scan with
    | (Probed _ as probed), _ -> probed
    | (Scan (Some _) as abandoned), Scan None -> first_probed attempt abandoned rest
    | Scan _, _ -> first_probed attempt scan rest)

(* Rank [cands] by their estimates and try them cheapest first: probe
   values are evaluated with [eval] (and an IN subquery's value set
   with [eval_set]) and any evaluation error or unusable index falls
   back to the next candidate and finally to [Scan] — which either
   reports the same error while filtering or, e.g. over an empty table,
   never evaluates the faulty expression, exactly matching unoptimized
   behaviour.  NULL probe values and range bounds match nothing, as SQL
   comparison semantics require.  Every probe gathers under
   [probe_budget]; one past it is abandoned like a failed one, and a
   scan names the first abandoned probe.  Without a usable index no
   candidate survives, so an index-free system always scans. *)
let probe_candidates tbl ~eval ~eval_set cands =
  let attempt (cd, est) =
    let column = cd.sg_column in
    let eval_bound = Option.map (fun (e, incl) -> (eval e, incl)) in
    let keys () =
      match cd.sg_values with
      | Pv_exprs es -> Some (`Keys (List.map eval es))
      | Pv_select sub -> Some (`Keys (eval_set sub))
      | Pv_bounds (lo, hi) -> Some (`Range (eval_bound lo, eval_bound hi))
      | Pv_like p -> (
        match eval p with
        | Value.Null ->
          (* LIKE NULL is UNKNOWN for every row: a NULL-bounded range
             probe selects exactly nothing *)
          Some (`Range (Some (Value.Null, true), None))
        | Value.Str pat ->
          Option.map
            (fun (prefix, upper) ->
              `Range
                ( Some (Value.Str prefix, true),
                  Option.map (fun u -> (Value.Str u, false)) upper ))
            (Index.like_prefix pat)
        | Value.Int _ | Value.Float _ | Value.Bool _ ->
          (* the scan path reports the type error faithfully *)
          None)
    in
    match keys () with
    | exception _ | None -> Scan None
    | Some keys -> (
      let kind = match keys with `Keys _ -> `Eq | `Range _ -> `Range in
      let budget = probe_budget tbl in
      match Table.probe tbl ~column ~budget keys with
      | None -> Scan None
      | Some `Over_budget ->
        Scan
          (Some
             {
               ab_kind = kind;
               ab_index = Option.map Index.name (probe_index tbl column kind);
               ab_budget = budget;
             })
      | Some (`Rows pairs) ->
        Probed
          {
            ph_column = column;
            ph_conjunct = cd.sg_conjunct;
            ph_kind = kind;
            ph_est = est;
            ph_pairs = pairs;
          })
  in
  List.filter_map
    (fun cd ->
      Option.map (fun est -> (cd, est)) (estimate_shape tbl ~column:cd.sg_column cd.sg_shape))
    cands
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
  |> first_probed attempt (Scan None)

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

(* The static analysis of a FROM list, shared by the executor and
   EXPLAIN.  [frame] is each source's (binding name, columns) in FROM
   order.  A binding name used twice is an error:
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

(* The join method of a base table linked to an earlier source, for
   [partials] partial frames: [Some est] probes the index over the link
   column once per partial frame (an index nested-loop join), when the
   estimated rows of those probes, and their key count, are within the
   table's [probe_budget]; [None] builds the hash table. *)
let index_join tbl ~column ~partials =
  match estimate_shape tbl ~column (Shape_eq (Some partials)) with
  | Some est when max partials est <= probe_budget tbl -> Some est
  | Some _ | None -> None

(* One probe of an index nested-loop join: the rows whose link column
   equals [key], in handle (= scan) order.  A NULL or type-incompatible
   key matches nothing; the hash table pairs NULL keys, but the link
   conjunct in WHERE rejects every such pair, so the two joins agree. *)
let index_join_rows tbl ~column key =
  match Table.probe tbl ~column ~budget:max_int (`Keys [ key ]) with
  | Some (`Rows pairs) -> pairs
  | Some `Over_budget | None -> []

(* ------------------------------------------------------------------ *)
(* SQL semantics shared by every select                                *)

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

(* SQL IN semantics: TRUE if some element equals, UNKNOWN if no element
   equals but some comparison was unknown, FALSE otherwise. *)
let in_semantics v values =
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
let in_set_mem set v =
  let verdict found with_null =
    if found then Value.Bool true else if with_null then Value.Null else Value.Bool false
  in
  match v, set.in_index with
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _), In_hashed { rep; members; has_null }
    when same_constructor v rep ->
    verdict (Hashtbl.mem members v) has_null
  | Value.Null, In_hashed _ -> Value.Null
  | _, _ -> in_semantics v set.in_values

let select_contains_agg (s : Ast.select) =
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

let default_proj_name e =
  match e with
  | Ast.Col { column; _ } -> column
  | e -> Pretty.expr_str e

(* ------------------------------------------------------------------ *)
(* EXPLAIN: access-path planning without execution                     *)

(* The plans EXPLAIN reports.  [Compile] produces them by a plan-only
   run of a compiled select (a DELETE's or UPDATE's victims are one):
   the executor's own decisions. *)

type access_path =
  | Seq_scan of { table : string; rows : int option; abandoned : abandoned option }
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
  sp_tests : string list;
}

(* A probe decision as a plan node: [Index_probe] or [Range_probe] by
   the hit's kind, naming the index the probe read. *)
let probed_path tbl hit =
  let table = Table.name tbl in
  let column = hit.ph_column in
  let index = Option.map Index.name (probe_index tbl column hit.ph_kind) in
  let conjunct = Pretty.expr_str hit.ph_conjunct in
  let est = hit.ph_est in
  let matches = List.length hit.ph_pairs in
  let rows = Some (Table.cardinality tbl) in
  match hit.ph_kind with
  | `Eq -> Index_probe { table; index; column; conjunct; est; matches; rows }
  | `Range ->
    Range_probe { table; index; column; conjunct; est; matches; rows }

let describe_probe what (index, column, conjunct, est, matches, rows) =
  let ix = match index with Some i -> i | None -> "<unnamed index>" in
  let total =
    match rows with Some n -> Printf.sprintf " of %d" n | None -> ""
  in
  Printf.sprintf "%s via %s on %s, conjunct %s: est ~%d, %d%s rows" what ix column
    conjunct est matches total

let describe_access_path = function
  | Seq_scan { table; rows; abandoned } ->
    let r =
      match rows with Some n -> Printf.sprintf " (%d rows)" n | None -> ""
    in
    let why =
      match abandoned with
      | None -> ""
      | Some { ab_kind; ab_index; ab_budget } ->
        Printf.sprintf ": %s probe via %s passed its budget of %d"
          (match ab_kind with `Eq -> "index" | `Range -> "range")
          (Option.value ab_index ~default:"<unnamed index>")
          ab_budget
    in
    Printf.sprintf "seq scan of %s%s%s" table r why
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

let describe_source_plan { sp_binding; sp_path; sp_join; _ } =
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
