(* Compilation of expressions and selects to positional closures.

   The tree-walking evaluator in [Eval] resolves every column
   reference by searching the environment — a string comparison per
   binding per frame, repeated for every candidate row.  This module
   performs that search ONCE per statement: an [Ast.expr] is lowered
   to an OCaml closure in which each column reference has been
   resolved to a (frame depth, binding index, column index) triple,
   so per-row evaluation is three array loads.  Scope search,
   ambiguity checking and unknown-column detection all happen at
   compile time; their errors keep the interpreter's exact payloads
   and — critically — its exact timing, by compiling to closures that
   raise when (and only when) the interpreter's evaluation would have
   reached the faulty reference.  A CASE branch never taken, a
   projection over zero rows, a WHERE clause over an empty cross
   product: none of these surface a compile-detected error, exactly
   as in the interpreter.

   Two more per-row decisions move to compile time:

   - Correlation analysis.  The interpreter's uncorrelated-subquery
     cache watches the first evaluation of each embedded select and
     memoizes it if no column resolved from an enclosing scope.  Here
     the same watch arithmetic runs over the *compile-time* shape: a
     subquery none of whose compiled references (on any branch)
     reaches an enclosing scope is assigned a memo slot.  Static
     correlation is a conservative superset of the dynamic kind —
     anything the interpreter would have re-evaluated, we re-evaluate
     too — so results are identical within the fixed database state a
     cache/slot set is scoped to.

   - Sargable-conjunct selection.  The access-path planner's
     candidate scan (attribution, independence analysis, catalog
     lookup of usable columns) is static; only the probe *values* are
     evaluated at run time.  All candidate conjuncts are kept, in
     conjunct order, and tried with the interpreter's exact fallback
     semantics (value evaluation error -> next candidate; no usable
     index -> next candidate; none left -> scan), so the executor's
     scan/probe counters and EXPLAIN output match the interpreter's.

   The interpreter stays as the differential oracle: the [enabled]
   switch routes the DML layer and the rules engine through either
   path, and test/test_compile_diff.ml asserts that results — and
   error diagnostics — agree. *)

open Relational

(* Route DML and rule processing through the compiled path (true, the
   default) or the tree-walking interpreter.  The switch exists for
   the differential oracle and the ablation benchmark. *)
let enabled = ref true

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)

(* A runtime environment mirrors [Eval.env] positionally: scopes
   innermost first, each frame an array of bound rows in FROM-item
   order.  The binding names and column names were consumed at
   compile time. *)
type renv = Row.t array array

(* Per-evaluation-unit runtime state: the resolver and access hooks
   the interpreter threads through its context, plus the memo slots
   backing the compile-time uncorrelated-subquery analysis.  One [rt]
   per DML operation or rule-condition evaluation — the same lifetime
   as the interpreter's [Eval.cache]. *)
type rt = {
  rt_resolve : Eval.resolver;
  rt_access : Eval.access option;
  rt_slots : Eval.memo option array;
  rt_use_cache : bool;
  rt_params : Value.t array;
      (* the EXECUTE parameter frame: [Param i] closures read slot [i].
         Empty for unparameterized statements. *)
}

let no_params : Value.t array = [||]

let make_rt ?access ?(params = no_params) ~use_cache ~slots resolve =
  {
    rt_resolve = resolve;
    rt_access = access;
    rt_slots = Array.make (max slots 1) None;
    rt_use_cache = use_cache;
    rt_params = params;
  }

(* [Some envs] while evaluating inside a grouped select: aggregate
   closures range over [envs], exactly like [Eval.context.group]. *)
type grp = renv list option

type cexpr = rt -> grp -> renv -> Value.t

type cselect = {
  cs_cols : string array; (* static output names of the non-empty path *)
  cs_run : rt -> renv -> Eval.relation;
  cs_read : rt -> Eval.relation * Handle.t list option;
      (* [cs_run] with no outer scopes, with the Section 5.1 read set
         when the shape allows a precise one *)
  cs_plan : rt -> renv -> Eval.source_plan list;
}

(* A compiled probe: the statically-selected sargable candidates for
   one base table, ranked by the shared cost model at run time. *)
type ccand = {
  cd_column : string;
  cd_conj : Ast.expr; (* for EXPLAIN rendering only *)
  cd_shape : Eval.probe_shape; (* static shape, for cost estimation *)
  cd_values :
    [ `Exprs of cexpr list
    | `Select of (rt -> renv -> Eval.in_set)
    | `Bounds of (cexpr * bool) option * (cexpr * bool) option
    | `Like of cexpr ];
}

type cprobe = { cp_table : string; cp_cands : ccand list }

(* ------------------------------------------------------------------ *)
(* Compile-time context                                                *)

type ctx = {
  cc_db : Database.t;
      (* the catalog the statement is compiled against; schema changes
         invalidate compiled forms (the engine keys its rule caches on
         a DDL generation counter) *)
  cc_shape : (string * string array) list list;
      (* the compile-time mirror of the runtime environment: scopes
         innermost first, each frame the (binding name, columns) list
         of one select's FROM items *)
  cc_watches : (int * bool ref) list;
      (* static correlation watches, same arithmetic as the
         interpreter's: a resolution in one of the outermost
         [suffix_len] scopes raises the flag — at compile time *)
  cc_slots : int ref; (* memo-slot counter for this compile unit *)
  cc_memo : (Ast.select * int) list ref;
      (* the slot of each uncorrelated subquery, by physical identity:
         a sargable IN (select ...) is compiled twice — once for the
         probe values, once inside the residual WHERE — and both copies
         read one slot, so the subquery runs once *)
}

let make db =
  {
    cc_db = db;
    cc_shape = [];
    cc_watches = [];
    cc_slots = ref 0;
    cc_memo = ref [];
  }
let slot_count ctx = !(ctx.cc_slots)

let col_index cols c =
  let rec go i =
    if i >= Array.length cols then None
    else if String.equal cols.(i) c then Some i
    else go (i + 1)
  in
  go 0

(* Compile-time mirror of [Eval.lookup_column]: same innermost-first
   search, same qualified/unqualified rules, same error payloads.
   Instead of a value it yields a position — or the error the
   interpreter would raise on every evaluation. *)
type col_hit = H_at of int * int * int | H_err of Errors.t

let resolve_col ctx qualifier column =
  let in_frame frame =
    match qualifier with
    | Some q ->
      let rec find b = function
        | [] -> `Miss
        | (n, cols) :: rest ->
          if String.equal n q then
            match col_index cols column with
            | Some c -> `Hit (b, c)
            | None -> `Err (Errors.Unknown_column { table = Some q; column })
          else find (b + 1) rest
      in
      find 0 frame
    | None -> (
      let hits =
        List.concat
          (List.mapi
             (fun b (_, cols) ->
               match col_index cols column with
               | Some c -> [ (b, c) ]
               | None -> [])
             frame)
      in
      match hits with
      | [] -> `Miss
      | [ (b, c) ] -> `Hit (b, c)
      | _ :: _ :: _ -> `Err (Errors.Ambiguous_column column))
  in
  let total = List.length ctx.cc_shape in
  let rec go i = function
    | [] -> H_err (Errors.Unknown_column { table = qualifier; column })
    | frame :: rest -> (
      match in_frame frame with
      | `Hit (b, c) ->
        List.iter
          (fun (suffix_len, flag) -> if i >= total - suffix_len then flag := true)
          ctx.cc_watches;
        H_at (i, b, c)
      | `Err e -> H_err e
      | `Miss -> go (i + 1) rest)
  in
  go 0 ctx.cc_shape

(* ------------------------------------------------------------------ *)
(* Shared runtime helpers (ported verbatim from the interpreter)       *)

module Key_map = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

module Group_map = Map.Make (struct
  type t = Row.t

  let compare = Row.compare_total
end)

module Row_set = Set.Make (struct
  type t = Row.t

  let compare = Row.compare_total
end)

module Key_tbl = Hashtbl.Make (struct
  type t = Row.t

  (* only used on keys holding no Float: for those, [Row.compare_total]
     equality is structural equality *)
  let equal a b = Row.compare_total a b = 0
  let hash = Hashtbl.hash
end)

(* GROUP BY: the rows' environments bucketed by key, groups in order of
   first appearance and rows in input order.  A Float key compares
   equal to an Int of the same value, which hashing cannot honour, so
   any Float sends the grouping through the ordered map. *)
let group_by_key (keyed : (Row.t * renv) list) =
  let has_float key = Array.exists (function Value.Float _ -> true | _ -> false) key in
  if List.exists (fun (key, _) -> has_float key) keyed then begin
    let order = ref [] in
    let m =
      List.fold_left
        (fun m (key, env) ->
          match Group_map.find_opt key m with
          | Some rows -> Group_map.add key (env :: rows) m
          | None ->
            order := key :: !order;
            Group_map.add key [ env ] m)
        Group_map.empty keyed
    in
    List.rev_map (fun key -> List.rev (Group_map.find key m)) !order |> List.rev
  end
  else begin
    let tbl = Key_tbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (key, env) ->
        match Key_tbl.find_opt tbl key with
        | Some cell -> cell := env :: !cell
        | None ->
          let cell = ref [ env ] in
          Key_tbl.add tbl key cell;
          order := cell :: !order)
      keyed;
    List.rev_map (fun cell -> List.rev !cell) !order
  end

let dedupe_rows rows =
  let _, acc =
    List.fold_left
      (fun (seen, acc) row ->
        if Row_set.mem row seen then (seen, acc)
        else (Row_set.add row seen, row :: acc))
      (Row_set.empty, []) rows
  in
  List.rev acc

let take limit rows =
  match limit with
  | None -> rows
  | Some n ->
    let rec go k = function
      | [] -> []
      | _ when k <= 0 -> []
      | x :: rest -> x :: go (k - 1) rest
    in
    go n rows

(* Rank the compiled candidates with the shared decision procedure
   ([Eval.choose_candidates]), then try them cheapest-first with the
   interpreter's fallback semantics: a value-evaluation error or an
   unusable index moves on to the next candidate; [None] means "scan
   instead".  Probe values evaluate against the outer scopes alone
   (they were compiled under them), in non-grouped context. *)
let run_probe_values rt access cp (outer : renv) : Eval.probe_hit option =
  let ranked =
    Eval.choose_candidates access ~table:cp.cp_table
      (List.map (fun cd -> (cd, cd.cd_column, cd.cd_shape)) cp.cp_cands)
  in
  List.find_map
    (fun (cd, est) ->
      let eval_bound =
        Option.map (fun (ce, incl) -> ((ce rt None outer : Value.t), incl))
      in
      let est = ref est in
      let probe () =
        match cd.cd_values with
        | `Exprs ces ->
          access.Eval.acc_probe ~table:cp.cp_table ~column:cd.cd_column
            (List.map (fun ce -> ce rt None outer) ces)
        | `Select f -> (
          let values = (f rt outer).Eval.in_values in
          match
            Eval.recheck_set access ~table:cp.cp_table ~column:cd.cd_column values
          with
          | None -> None
          | Some e ->
            est := e;
            access.Eval.acc_probe ~table:cp.cp_table ~column:cd.cd_column values)
        | `Bounds (lo, hi) ->
          access.Eval.acc_range ~table:cp.cp_table ~column:cd.cd_column
            ~lower:(eval_bound lo) ~upper:(eval_bound hi)
        | `Like ce -> (
          match ce rt None outer with
          | Value.Null ->
            (* LIKE NULL is UNKNOWN for every row: a NULL-bounded range
               probe selects exactly nothing *)
            access.Eval.acc_range ~table:cp.cp_table ~column:cd.cd_column
              ~lower:(Some (Value.Null, true))
              ~upper:None
          | Value.Str pat -> (
            match Index.like_prefix pat with
            | None -> None
            | Some (prefix, upper) ->
              access.Eval.acc_range ~table:cp.cp_table ~column:cd.cd_column
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
          match cd.cd_values with
          | `Exprs _ | `Select _ -> `Eq
          | `Bounds _ | `Like _ -> `Range
        in
        Some
          {
            Eval.ph_column = cd.cd_column;
            ph_conjunct = cd.cd_conj;
            ph_kind = kind;
            ph_est = !est;
            ph_pairs = pairs;
          })
    ranked

(* Compiled projections: stars become position lists into the local
   frame; an unknown table-star becomes a closure raising at
   projection time (i.e. once per projected row environment, exactly
   when the interpreter raises). *)
type cproj =
  | P_pos of (string * int * int) list (* output name, binding, column *)
  | P_err of Errors.t
  | P_expr of string * cexpr

(* Project one row straight into an array of the statically known
   width; the output names are [static_proj_names cprojs], because a
   [P_err] raises before any row is produced. *)
let run_projs cprojs width rt g (env : renv) : Row.t =
  let out = Array.make width Value.Null in
  let rec go i = function
    | [] -> ()
    | P_pos triples :: rest ->
      go
        (List.fold_left
           (fun i (_, b, c) ->
             out.(i) <- env.(0).(b).(c);
             i + 1)
           i triples)
        rest
    | P_err e :: _ -> Errors.raise_error e
    | P_expr (_, ce) :: rest ->
      out.(i) <- ce rt g env;
      go (i + 1) rest
  in
  go 0 cprojs;
  out

let static_proj_names cprojs =
  Array.of_list
    (List.concat_map
       (function
         | P_pos triples -> List.map (fun (n, _, _) -> n) triples
         | P_err _ -> []
         | P_expr (name, _) -> [ name ])
       cprojs)

(* ------------------------------------------------------------------ *)
(* Expression and select compilation                                   *)

(* [Some vs] when every expression in [es] is a literal (note: a [?]
   parameter is not — it compiles to a frame read) *)
let lit_values es =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Ast.Lit v :: rest -> go (v :: acc) rest
    | _ -> None
  in
  go [] es

let rec cexpr_of ctx (e : Ast.expr) : cexpr =
  match e with
  | Ast.Lit v -> fun _ _ _ -> v
  | Ast.Param i ->
    (* read the EXECUTE parameter frame; arity is validated before the
       frame is built, so an out-of-range read means the closure was
       run outside EXECUTE *)
    fun rt _ _ ->
      if i < Array.length rt.rt_params then rt.rt_params.(i)
      else
        Errors.raise_error
          (Errors.Parameter_error
             (Printf.sprintf "parameter %d is unbound (use PREPARE/EXECUTE)"
                (i + 1)))
  | Ast.Col { qualifier; column } -> (
    match resolve_col ctx qualifier column with
    | H_at (d, b, c) -> fun _ _ env -> env.(d).(b).(c)
    | H_err err -> fun _ _ _ -> Errors.raise_error err)
  | Ast.Binop (op, a, b) ->
    let ca = cexpr_of ctx a and cb = cexpr_of ctx b in
    let f =
      match op with
      | Ast.Add -> Value.add
      | Ast.Sub -> Value.sub
      | Ast.Mul -> Value.mul
      | Ast.Div -> Value.div
      | Ast.Mod -> Value.rem
      | Ast.Concat -> Value.concat
    in
    fun rt g env ->
      let va = ca rt g env and vb = cb rt g env in
      f va vb
  | Ast.Neg a ->
    let ca = cexpr_of ctx a in
    fun rt g env -> Value.neg (ca rt g env)
  | Ast.Cmp (op, a, b) ->
    let ca = cexpr_of ctx a and cb = cexpr_of ctx b in
    fun rt g env -> (
      let va = ca rt g env and vb = cb rt g env in
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
    (* SQL three-valued AND/OR are not short-circuited: both operands
       are always evaluated (same expression shape as the interpreter,
       so evaluation-order effects agree) *)
    let ca = cexpr_of ctx a and cb = cexpr_of ctx b in
    fun rt g env ->
      Eval.truth_value
        (Value.truth_and
           (Eval.value_truth (ca rt g env))
           (Eval.value_truth (cb rt g env)))
  | Ast.Or (a, b) ->
    let ca = cexpr_of ctx a and cb = cexpr_of ctx b in
    fun rt g env ->
      Eval.truth_value
        (Value.truth_or
           (Eval.value_truth (ca rt g env))
           (Eval.value_truth (cb rt g env)))
  | Ast.Not a ->
    let ca = cexpr_of ctx a in
    fun rt g env ->
      Eval.truth_value (Value.truth_not (Eval.value_truth (ca rt g env)))
  | Ast.Is_null a ->
    let ca = cexpr_of ctx a in
    fun rt g env -> Value.Bool (Value.is_null (ca rt g env))
  | Ast.Is_not_null a ->
    let ca = cexpr_of ctx a in
    fun rt g env -> Value.Bool (not (Value.is_null (ca rt g env)))
  | Ast.In_list (a, es) -> (
    let ca = cexpr_of ctx a in
    (* an all-literal IN list is constant: hoist the element values out
       of the per-row closure at compile time, so a cached or prepared
       plan never re-evaluates the (possibly large) list *)
    match lit_values es with
    | Some vals -> fun rt g env -> Eval.in_semantics (ca rt g env) vals
    | None ->
      let ces = List.map (cexpr_of ctx) es in
      fun rt g env ->
        let v = ca rt g env in
        Eval.in_semantics v (List.map (fun ce -> ce rt g env) ces))
  | Ast.Not_in_list (a, es) -> (
    let ca = cexpr_of ctx a in
    let negate v vals =
      Eval.truth_value
        (Value.truth_not (Eval.value_truth (Eval.in_semantics v vals)))
    in
    match lit_values es with
    | Some vals -> fun rt g env -> negate (ca rt g env) vals
    | None ->
      let ces = List.map (cexpr_of ctx) es in
      fun rt g env ->
        let v = ca rt g env in
        negate v (List.map (fun ce -> ce rt g env) ces))
  | Ast.In_select (a, s) ->
    let ca = cexpr_of ctx a in
    let set = compile_subquery_in ctx s in
    fun rt g env ->
      let v = ca rt g env in
      Eval.in_set_mem (set rt env) v
  | Ast.Not_in_select (a, s) ->
    let ca = cexpr_of ctx a in
    let set = compile_subquery_in ctx s in
    fun rt g env ->
      let v = ca rt g env in
      Eval.truth_value
        (Value.truth_not (Eval.value_truth (Eval.in_set_mem (set rt env) v)))
  | Ast.Exists s ->
    let run = compile_subquery ctx s in
    fun rt _g env -> Value.Bool ((run rt env).Eval.rows <> [])
  | Ast.Between (a, low, high) ->
    let ca = cexpr_of ctx a in
    let cl = cexpr_of ctx low and ch = cexpr_of ctx high in
    fun rt g env ->
      let v = ca rt g env in
      let vl = cl rt g env and vh = ch rt g env in
      let ge =
        match Value.compare_sql v vl with
        | None -> Value.Unknown
        | Some c -> Value.truth_of_bool (c >= 0)
      and le =
        match Value.compare_sql v vh with
        | None -> Value.Unknown
        | Some c -> Value.truth_of_bool (c <= 0)
      in
      Eval.truth_value (Value.truth_and ge le)
  | Ast.Like (a, p) ->
    let ca = cexpr_of ctx a and cp = cexpr_of ctx p in
    fun rt g env -> Eval.truth_value (Value.like (ca rt g env) (cp rt g env))
  | Ast.Scalar_select s ->
    let run = compile_subquery ctx s in
    fun rt _g env -> (
      let rel = run rt env in
      (match rel.Eval.cols with
      | [| _ |] -> ()
      | _ -> Errors.semantic "scalar subquery must return a single column");
      match rel.Eval.rows with
      | [] -> Value.Null
      | [ row ] -> row.(0)
      | _ :: _ :: _ -> Errors.semantic "scalar subquery returned more than one row")
  | Ast.Agg (fn, arg) ->
    let carg = Option.map (cexpr_of ctx) arg in
    fun rt g _env -> (
      match g with
      | None -> Errors.semantic "aggregate function used outside a grouped query"
      | Some group_envs -> (
        match fn, carg with
        | Ast.Count_star, _ -> Value.Int (List.length group_envs)
        | _, None -> Errors.semantic "aggregate function requires an argument"
        | fn, Some ce -> (
          (* aggregates never nest: the argument is evaluated per group
             row in non-grouped context *)
          let values =
            List.filter_map
              (fun genv ->
                let v = ce rt None genv in
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
                (List.hd values) values)))
  | Ast.Fn (name, args) ->
    let cargs = List.map (cexpr_of ctx) args in
    fun rt g env -> Functions.apply name (List.map (fun ce -> ce rt g env) cargs)
  | Ast.Case (branches, else_) ->
    let cbranches =
      List.map (fun (c, v) -> (cexpr_of ctx c, cexpr_of ctx v)) branches
    in
    let celse = Option.map (cexpr_of ctx) else_ in
    fun rt g env ->
      let rec go = function
        | [] -> (
          match celse with None -> Value.Null | Some ce -> ce rt g env)
        | (cc, cv) :: rest ->
          if Value.truth_holds (Eval.value_truth (cc rt g env)) then cv rt g env
          else go rest
      in
      go cbranches

(* Compile an embedded select and decide — statically — whether its
   evaluation can be memoized.  The watch registered here mirrors the
   interpreter's first-evaluation watch: if no compiled column
   reference anywhere in the subquery reaches an enclosing scope, the
   subquery cannot depend on the outer row and gets a memo slot
   (consulted only when the runtime's [rt_use_cache] is set,
   mirroring evaluation without a cache).  Two uncorrelated copies of
   one physical select share a slot: neither reads an enclosing scope,
   so both compute the same relation.  [memo] reads a memoized result,
   [direct] one evaluated for this use only. *)
and compile_subquery_with :
      'a.
      ctx ->
      Ast.select ->
      memo:(Eval.memo -> 'a) ->
      direct:(Eval.relation -> 'a) ->
      rt ->
      renv ->
      'a =
 fun ctx s ~memo ~direct ->
  let n0 = List.length ctx.cc_shape in
  let touched = ref false in
  let c = compile_select' { ctx with cc_watches = (n0, touched) :: ctx.cc_watches } s in
  if !touched then fun rt env -> direct (c.cs_run rt env)
  else begin
    let slot =
      match List.assq_opt s !(ctx.cc_memo) with
      | Some slot -> slot
      | None ->
        let slot = !(ctx.cc_slots) in
        ctx.cc_slots := slot + 1;
        ctx.cc_memo := (s, slot) :: !(ctx.cc_memo);
        slot
    in
    fun rt env ->
      if not rt.rt_use_cache then direct (c.cs_run rt env)
      else
        match rt.rt_slots.(slot) with
        | Some m -> memo m
        | None ->
          let m = Eval.make_memo (c.cs_run rt env) in
          rt.rt_slots.(slot) <- Some m;
          memo m
  end

and compile_subquery ctx s : rt -> renv -> Eval.relation =
  compile_subquery_with ctx s ~memo:(fun m -> m.Eval.memo_rel) ~direct:Fun.id

(* The value set of an IN subquery, hashed once per memo slot. *)
and compile_subquery_in ctx s : rt -> renv -> Eval.in_set =
  compile_subquery_with ctx s ~memo:Eval.memo_in_set ~direct:Eval.scan_set

and compile_select' ctx (s : Ast.select) : cselect =
  match s.Ast.compounds with
  | [] -> compile_plain ctx s
  | _ :: _ -> compile_compound ctx s

(* Compound (set) operations: compile each core, combine at run time,
   then the trailing ORDER BY keys — compiled against the head's
   static output names, bound alone as in the interpreter. *)
and compile_compound ctx (s : Ast.select) : cselect =
  let head =
    compile_plain ctx { s with Ast.compounds = []; order_by = []; limit = None }
  in
  let arms =
    List.map (fun (op, sub) -> (op, compile_plain ctx sub)) s.Ast.compounds
  in
  let okeys =
    List.map
      (fun (e, dir) ->
        (cexpr_of { ctx with cc_shape = [ [ ("", head.cs_cols) ] ] } e, dir))
      s.Ast.order_by
  in
  let limit = s.Ast.limit in
  let cs_run rt outer =
    let headr = head.cs_run rt outer in
    let combined =
      List.fold_left
        (fun rows (op, arm) ->
          let part = arm.cs_run rt outer in
          if Array.length part.Eval.cols <> Array.length headr.Eval.cols then
            Errors.semantic
              "compound select operands must have the same number of columns";
          match op with
          | Ast.Union_all -> rows @ part.Eval.rows
          | Ast.Union -> dedupe_rows (rows @ part.Eval.rows)
          | Ast.Except ->
            let right = Row_set.of_list part.Eval.rows in
            dedupe_rows (List.filter (fun row -> not (Row_set.mem row right)) rows)
          | Ast.Intersect ->
            let right = Row_set.of_list part.Eval.rows in
            dedupe_rows (List.filter (fun row -> Row_set.mem row right) rows))
        headr.Eval.rows arms
    in
    let ordered =
      match okeys with
      | [] -> combined
      | okeys ->
        let keyed =
          List.map
            (fun row ->
              let env = [| [| row |] |] in
              let keys = List.map (fun (ce, dir) -> (ce rt None env, dir)) okeys in
              (keys, row))
            combined
        in
        List.map snd (Eval.sort_by_keys keyed)
    in
    let rows = take limit ordered in
    { Eval.rel_name = ""; cols = headr.Eval.cols; rows }
  in
  let cs_plan rt outer =
    List.concat_map (fun c -> c.cs_plan rt outer) (head :: List.map snd arms)
  in
  let cs_read rt = (cs_run rt [||], None) in
  { cs_cols = head.cs_cols; cs_run; cs_read; cs_plan }

(* The static mirror of the probe planner's candidate scan
   ([Eval.probe_plan]): attribution and independence analysis over the
   compile-time frame, catalog columns from the compile-time database.
   Returns all sargable candidates in conjunct order; [run_probe_values]
   applies the interpreter's per-candidate fallback at run time. *)
and compile_probe_plan ctx ~frame ~target ~table (where : Ast.expr option) :
    cprobe option =
  match where with
  | None -> None
  | Some pred ->
    if not !Eval.predicate_pushdown then None
    else begin
      let ind_expr, ind_sel =
        Eval.independence ~target:frame ~cols_of:(fun t ->
            if Database.has_table ctx.cc_db t then
              Some (Table.col_names (Database.table ctx.cc_db t))
            else None)
      in
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
      let candidate = function
        | Ast.Cmp (Ast.Eq, Ast.Col { qualifier; column }, e)
          when attributes_to_target qualifier column && ind_expr e ->
          Some (column, Eval.Shape_eq (Some 1), `Exprs [ e ])
        | Ast.Cmp (Ast.Eq, e, Ast.Col { qualifier; column })
          when attributes_to_target qualifier column && ind_expr e ->
          Some (column, Eval.Shape_eq (Some 1), `Exprs [ e ])
        | Ast.In_list (Ast.Col { qualifier; column }, es)
          when attributes_to_target qualifier column && List.for_all ind_expr es
          ->
          Some (column, Eval.Shape_eq (Some (List.length es)), `Exprs es)
        | Ast.In_select (Ast.Col { qualifier; column }, sub)
          when attributes_to_target qualifier column && ind_sel sub ->
          Some (column, Eval.Shape_eq None, `Select sub)
        | Ast.Cmp (op, Ast.Col { qualifier; column }, e)
          when attributes_to_target qualifier column && ind_expr e -> (
          match range_of op e with
          | Some bounds -> Some (column, Eval.Shape_range, `Bounds bounds)
          | None -> None)
        | Ast.Cmp (op, e, Ast.Col { qualifier; column })
          when attributes_to_target qualifier column && ind_expr e -> (
          match range_of (mirror op) e with
          | Some bounds -> Some (column, Eval.Shape_range, `Bounds bounds)
          | None -> None)
        | Ast.Between (Ast.Col { qualifier; column }, lo, hi)
          when attributes_to_target qualifier column && ind_expr lo
               && ind_expr hi ->
          Some
            ( column,
              Eval.Shape_range,
              `Bounds (Some (lo, true), Some (hi, true)) )
        | Ast.Like (Ast.Col { qualifier; column }, p)
          when attributes_to_target qualifier column && ind_expr p ->
          Some (column, Eval.Shape_prefix, `Like p)
        | _ -> None
      in
      let cands =
        List.filter_map
          (fun conj ->
            match candidate conj with
            | None -> None
            | Some (column, shape, src) ->
              let cbound =
                Option.map (fun (e, incl) -> (cexpr_of ctx e, incl))
              in
              let cv =
                match src with
                | `Exprs es -> `Exprs (List.map (cexpr_of ctx) es)
                | `Select sub -> `Select (compile_subquery_in ctx sub)
                | `Bounds (lo, hi) -> `Bounds (cbound lo, cbound hi)
                | `Like p -> `Like (cexpr_of ctx p)
              in
              Some
                {
                  cd_column = column;
                  cd_conj = conj;
                  cd_shape = shape;
                  cd_values = cv;
                })
          (Eval.conjuncts pred)
      in
      match cands with [] -> None | _ :: _ -> Some { cp_table = table; cp_cands = cands }
    end

and compile_projections cctx local_shape (projs : Ast.proj list) : cproj list =
  List.map
    (function
      | Ast.Star ->
        P_pos
          (List.concat
             (List.mapi
                (fun b (_, cols) ->
                  Array.to_list (Array.mapi (fun c cname -> (cname, b, c)) cols))
                local_shape))
      | Ast.Table_star t -> (
        let rec find b = function
          | [] -> None
          | (n, cols) :: rest ->
            if String.equal n t then Some (b, cols) else find (b + 1) rest
        in
        match find 0 local_shape with
        | None -> P_err (Errors.Unknown_table t)
        | Some (b, cols) ->
          P_pos (Array.to_list (Array.mapi (fun c cname -> (cname, b, c)) cols)))
      | Ast.Proj (e, alias) ->
        let name =
          match alias with Some a -> a | None -> Eval.default_proj_name e
        in
        P_expr (name, cexpr_of cctx e))
    projs

and compile_plain ctx (s : Ast.select) : cselect =
  (* ---- FROM items: static binding names and columns ---- *)
  let item_info ix (item : Ast.from_item) =
    match item.Ast.source with
    | Ast.Derived sub ->
      let c = compile_select' ctx sub in
      let name =
        match item.Ast.alias with
        | Some a -> a
        | None -> Printf.sprintf "$%d" ix
      in
      (name, c.cs_cols, `Derived c)
    | Ast.Base tbl_name ->
      let name = Option.value item.Ast.alias ~default:tbl_name in
      if Database.has_table ctx.cc_db tbl_name then
        (name, Table.col_names (Database.table ctx.cc_db tbl_name), `Base tbl_name)
      else
        (* unknown at compile time: resolving at run time raises the
           interpreter's error during phase 1 *)
        (name, [||], `Eager (Ast.Base tbl_name))
    | Ast.Transition tt ->
      let base = Ast.trans_table_base tt in
      let name = Option.value item.Ast.alias ~default:base in
      let cols =
        if Database.has_table ctx.cc_db base then
          Table.col_names (Database.table ctx.cc_db base)
        else [||]
      in
      (name, cols, `Eager (Ast.Transition tt))
  in
  let items = List.mapi item_info s.Ast.from in
  let names = List.map (fun (n, _, _) -> n) items in
  (* duplicate binding names are rejected after phase-1 resolution,
     matching the interpreter's check order *)
  let dup_err =
    let rec check = function
      | [] -> None
      | n :: rest ->
        if List.exists (String.equal n) rest then
          Some
            (Errors.Semantic_error
               (Printf.sprintf
                  "duplicate table name %S in from clause; use an alias" n))
        else check rest
    in
    check names
  in
  let frame_shape = List.map (fun (n, cols, _) -> (n, cols)) items in
  let inner = { ctx with cc_shape = frame_shape :: ctx.cc_shape } in
  (* ---- static hash-join links (mirror of [from_row_envs]) ---- *)
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
    if not !Eval.join_optimization then []
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
              | Some (n1, cs1), Some (n2, cs2) when not (String.equal n1 n2) ->
                Some (conj, (n1, cs1, c1), (n2, cs2, c2))
              | _ -> None)
            | _ -> None)
          (Eval.conjuncts pred)
  in
  let index_of_name n =
    let rec go i = function
      | [] -> None
      | (n', _, _) :: rest -> if String.equal n' n then Some i else go (i + 1) rest
    in
    go 0 items
  in
  let links =
    List.mapi
      (fun k (name, cols, _) ->
        let bound n = match index_of_name n with Some i -> i < k | None -> false in
        List.find_map
          (fun (conj, (n1, cs1, c1), (n2, cs2, c2)) ->
            if String.equal n2 name && bound n1 then
              Some
                ( Option.get (index_of_name n1),
                  Option.get (col_index cs1 c1),
                  Option.get (col_index cols c2),
                  { Eval.jp_with = n1; jp_conjunct = Pretty.expr_str conj } )
            else if String.equal n1 name && bound n2 then
              Some
                ( Option.get (index_of_name n2),
                  Option.get (col_index cs2 c2),
                  Option.get (col_index cols c1),
                  { Eval.jp_with = n2; jp_conjunct = Pretty.expr_str conj } )
            else None)
          equi_pairs)
      items
  in
  let probes =
    List.map
      (fun (name, _cols, kind) ->
        match kind with
        | `Base tbl ->
          compile_probe_plan ctx ~frame:frame_shape ~target:name ~table:tbl
            s.Ast.where
        | `Derived _ | `Eager _ -> None)
      items
  in
  (* ---- clause compilation ---- *)
  let cwhere = Option.map (cexpr_of inner) s.Ast.where in
  let grouped = Eval.select_contains_agg s in
  let cgroup_keys = List.map (cexpr_of inner) s.Ast.group_by in
  let chaving = Option.map (cexpr_of inner) s.Ast.having in
  let cprojs = compile_projections inner frame_shape s.Ast.projections in
  let sr_cols = static_proj_names cprojs in
  let width = Array.length sr_cols in
  (* grouping with no GROUP BY key yields a single group even over zero
     rows; the interpreter then evaluates HAVING and projections in an
     environment whose local frame is empty — compile that variant
     against the outer scopes alone *)
  let empty_group =
    if grouped && s.Ast.group_by = [] then
      let cprojs0 = compile_projections ctx [] s.Ast.projections in
      Some (Option.map (cexpr_of ctx) s.Ast.having, cprojs0, static_proj_names cprojs0)
    else None
  in
  let corder_nongrouped =
    if grouped then []
    else List.map (fun (e, dir) -> (cexpr_of inner e, dir)) s.Ast.order_by
  in
  let corder_grouped =
    if grouped then
      let sub = { ctx with cc_shape = [ [ ("", sr_cols) ] ] } in
      List.map (fun (e, dir) -> (cexpr_of sub e, dir)) s.Ast.order_by
    else []
  in
  (* ---- output columns for the zero-row case: the runtime mirror of
     [Eval.static_output_columns] ---- *)
  let empty_sources =
    List.map
      (fun (item : Ast.from_item) ->
        match item.Ast.source with
        | Ast.Derived sub ->
          let c0 = compile_select' { ctx with cc_shape = [] } sub in
          let name = match item.Ast.alias with Some a -> a | None -> "" in
          `Derived (name, c0)
        | src -> `Resolve (item.Ast.alias, src))
      s.Ast.from
  in
  let names_over sources =
    Array.of_list
      (List.concat_map
         (function
           | Ast.Star ->
             List.concat_map (fun (_, cols) -> Array.to_list cols) sources
           | Ast.Table_star t -> (
             match List.find_opt (fun (n, _) -> String.equal n t) sources with
             | Some (_, cols) -> Array.to_list cols
             | None -> [])
           | Ast.Proj (e, alias) ->
             [ (match alias with Some a -> a | None -> Eval.default_proj_name e) ])
         s.Ast.projections)
  in
  (* Base and transition sources over tables of the compile-time
     catalog resolve to relations named and shaped as compiled (the
     rules engine and the statement cache recompile on any DDL), so
     their zero-row names follow from the frame shape.  Reaching the
     zero-row case means phase 1 resolved every eager source already. *)
  let static_empty_cols =
    let known =
      List.for_all
        (fun (_, cols, kind) ->
          match kind with
          | `Base _ -> true
          | `Eager (Ast.Transition _) -> Array.length cols > 0
          | `Eager (Ast.Base _ | Ast.Derived _) | `Derived _ -> false)
        items
    in
    lazy (if known then Some (names_over frame_shape) else None)
  in
  let cols_when_empty rt =
    match Lazy.force static_empty_cols with
    | Some cols -> cols
    | None ->
      names_over
        (List.filter_map
           (function
             | `Derived (name, c0) -> Some (name, (c0.cs_run rt [||]).Eval.cols)
             | `Resolve (alias, src) -> (
               match (try Some (rt.rt_resolve src) with _ -> None) with
               | None -> None
               | Some rel ->
                 Some
                   ( (match alias with Some a -> a | None -> rel.Eval.rel_name),
                     rel.Eval.cols )))
           empty_sources)
  in
  (* ---- the runner ---- *)
  let with_outer frame (outer : renv) =
    if Array.length outer = 0 then [| frame |] else Array.append [| frame |] outer
  in
  let holds rt env =
    match cwhere with
    | None -> true
    | Some ce -> Value.truth_holds (Eval.value_truth (ce rt None env))
  in
  (* A single base table read through the access hooks: WHERE runs in
     the probe or scan loop against one reused scratch frame, and only
     a passing row gets an environment of its own.  Also returns the
     handles of the passing rows, in handle order. *)
  let single_source rt outer tbl cp access =
    let scratch = [| [||] |] in
    let env = with_outer scratch outer in
    let envs = ref [] and handles = ref [] in
    let consider h row =
      scratch.(0) <- row;
      if holds rt env then begin
        envs := with_outer [| row |] outer :: !envs;
        handles := h :: !handles
      end
    in
    let scan () =
      access.Eval.acc_note ~table:tbl `Seq_scan;
      match access.Eval.acc_table ~table:tbl with
      | Some t -> Table.iter consider t
      | None -> Errors.raise_error (Errors.Unknown_table tbl)
    in
    (match cp with
    | None -> scan ()
    | Some cp -> (
      match run_probe_values rt access cp outer with
      | Some hit ->
        access.Eval.acc_note ~table:tbl
          (match hit.Eval.ph_kind with
          | `Eq -> `Index_probe
          | `Range -> `Range_probe);
        List.iter (fun (h, row) -> consider h row) hit.Eval.ph_pairs
      | None -> scan ()));
    (List.rev !envs, List.rev !handles)
  in
  (* The environments of the from-list's rows, before WHERE. *)
  let joined_envs rt (outer : renv) =
    (* phase 1: resolve sources in FROM order; known base tables stay
       lazy when access hooks are installed *)
    let resolved =
      List.map
        (fun (_name, _cols, kind) ->
          match kind with
          | `Derived c -> `Rows (c.cs_run rt outer).Eval.rows
          | `Eager src -> `Rows (rt.rt_resolve src).Eval.rows
          | `Base tbl -> (
            match rt.rt_access with
            | None -> `Rows (rt.rt_resolve (Ast.Base tbl)).Eval.rows
            | Some access -> `Lazy (tbl, access)))
        items
    in
    (match dup_err with Some e -> Errors.raise_error e | None -> ());
    (* phase 2: join, realizing lazy sources by probe or scan *)
    let note_join ev name =
      match rt.rt_access with
      | Some access -> access.Eval.acc_note ~table:name ev
      | None -> ()
    in
    let rec extend partials k rs ps ls ns =
      match rs, ps, ls, ns with
      | [], _, _, _ -> partials
      | r :: rs', p :: ps', l :: ls', n :: ns' ->
        let rows =
          match r with
          | `Rows rows -> rows
          | `Lazy (tbl, access) -> (
            match p with
            | Some cp -> (
              match run_probe_values rt access cp outer with
              | Some hit ->
                access.Eval.acc_note ~table:tbl
                  (match hit.Eval.ph_kind with
                  | `Eq -> `Index_probe
                  | `Range -> `Range_probe);
                List.map snd hit.Eval.ph_pairs
              | None ->
                access.Eval.acc_note ~table:tbl `Seq_scan;
                (rt.rt_resolve (Ast.Base tbl)).Eval.rows)
            | None ->
              access.Eval.acc_note ~table:tbl `Seq_scan;
              (rt.rt_resolve (Ast.Base tbl)).Eval.rows)
        in
        let partials' =
          match l with
          | Some (b_item, b_ix, n_ix, _) when partials <> [] ->
            (* hash join on the static link, preserving nested-loop
               enumeration order.  With no partial frames left the
               interpreter's dynamic link detection never fires (no
               bound row to join against), so the build is skipped —
               the guard keeps the access-note counters identical. *)
            note_join `Hash_join_build n;
            let table =
              List.fold_left
                (fun m row ->
                  let key = row.(n_ix) in
                  let existing = Option.value (Key_map.find_opt key m) ~default:[] in
                  Key_map.add key (row :: existing) m)
                Key_map.empty rows
            in
            let table = Key_map.map List.rev table in
            List.concat_map
              (fun partial ->
                note_join `Hash_join_probe n;
                let bound_row = List.nth partial (k - 1 - b_item) in
                let key = bound_row.(b_ix) in
                match Key_map.find_opt key table with
                | None -> []
                | Some rows -> List.map (fun row -> row :: partial) rows)
              partials
          | Some _ | None ->
            List.concat_map
              (fun partial -> List.map (fun row -> row :: partial) rows)
              partials
        in
        extend partials' (k + 1) rs' ps' ls' ns'
      | _ -> assert false
    in
    let frames = extend [ [] ] 0 resolved probes links names in
    let row_envs =
      List.map
        (fun partial ->
          let frame =
            match partial with
            | [ row ] -> [| row |]
            | _ -> Array.of_list (List.rev partial)
          in
          with_outer frame outer)
        frames
    in
    row_envs
  in
  (* The environments of the from-list rows passing WHERE, with the
     handles of the retrieved tuples when the from-list is a single
     base table read through the access hooks. *)
  let filtered_envs rt outer =
    match items, probes, rt.rt_access with
    | [ (_, _, `Base tbl) ], [ cp ], Some access ->
      let envs, handles = single_source rt outer tbl cp access in
      (envs, Some handles)
    | _ -> (List.filter (holds rt) (joined_envs rt outer), None)
  in
  let run_read rt (outer : renv) =
    let filtered, handles = filtered_envs rt outer in
    (* the output names of the rows produced: the static projection
       names, or those of the empty-group projection when it ran *)
    let out_cols = ref sr_cols in
    let result_rows =
      if not grouped then
        List.map (fun env -> run_projs cprojs width rt None env) filtered
      else begin
        let groups =
          if s.Ast.group_by = [] then [ filtered ]
          else
            group_by_key
              (List.map
                 (fun env ->
                   (Array.of_list (List.map (fun ce -> ce rt None env) cgroup_keys), env))
                 filtered)
        in
        let eval_group group_envs =
          match group_envs with
          | rep :: _ ->
            let keep =
              match chaving with
              | None -> true
              | Some ch ->
                Value.truth_holds (Eval.value_truth (ch rt (Some group_envs) rep))
            in
            if keep then Some (run_projs cprojs width rt (Some group_envs) rep)
            else None
          | [] -> (
            (* only reachable with no GROUP BY key *)
            match empty_group with
            | None -> assert false
            | Some (chav0, cprojs0, cols0) ->
              let keep =
                match chav0 with
                | None -> true
                | Some ch ->
                  Value.truth_holds (Eval.value_truth (ch rt (Some []) outer))
              in
              if keep then begin
                out_cols := cols0;
                Some (run_projs cprojs0 (Array.length cols0) rt (Some []) outer)
              end
              else None)
        in
        List.filter_map eval_group groups
      end
    in
    let ordered_rows =
      match s.Ast.order_by with
      | [] -> result_rows
      | _ ->
        if grouped then
          let keyed =
            List.map
              (fun row ->
                let env = [| [| row |] |] in
                let keys =
                  List.map (fun (ce, dir) -> (ce rt None env, dir)) corder_grouped
                in
                (keys, row))
              result_rows
          in
          List.map snd (Eval.sort_by_keys keyed)
        else
          let keyed =
            List.map2
              (fun env row ->
                let keys =
                  List.map
                    (fun (ce, dir) -> (ce rt None env, dir))
                    corder_nongrouped
                in
                (keys, row))
              filtered result_rows
          in
          List.map snd (Eval.sort_by_keys keyed)
    in
    let cols =
      match ordered_rows with _ :: _ -> !out_cols | [] -> cols_when_empty rt
    in
    let rows = ordered_rows in
    let rows = if s.Ast.distinct then dedupe_rows rows else rows in
    let rows = take s.Ast.limit rows in
    let read = if s.Ast.group_by = [] then handles else None in
    ({ Eval.rel_name = ""; cols; rows }, read)
  in
  let cs_run rt outer = fst (run_read rt outer) in
  let cs_read rt = run_read rt [||] in
  (* ---- the planner: same phases, stopping short of joining ---- *)
  let cs_plan rt (outer : renv) =
    let access = match rt.rt_access with Some a -> a | None -> assert false in
    let phase1 =
      List.map
        (fun (name, _cols, kind) ->
          match kind with
          | `Derived c ->
            let rel = c.cs_run rt outer in
            `Done
              ( name,
                Eval.Materialized
                  { source = "derived table"; rows = List.length rel.Eval.rows } )
          | `Eager (Ast.Transition tt as src) ->
            let rel = rt.rt_resolve src in
            `Done
              ( name,
                Eval.Materialized
                  {
                    source = "transition table " ^ Pretty.trans_table_str tt;
                    rows = List.length rel.Eval.rows;
                  } )
          | `Eager (Ast.Base tbl as src) ->
            let rel = rt.rt_resolve src in
            `Done
              ( name,
                Eval.Materialized
                  { source = "table " ^ tbl; rows = List.length rel.Eval.rows } )
          | `Eager (Ast.Derived _) -> assert false
          | `Base tbl -> `Lazy (name, tbl))
        items
    in
    (match dup_err with Some e -> Errors.raise_error e | None -> ());
    (* the static links double as the plan's join annotations; like the
       interpreter's planner this reports the join the executor would
       do (execution skips the build when an earlier source turned out
       empty — the frame is already empty then) *)
    List.map2
      (fun (entry, probe) link ->
        let sp_join = Option.map (fun (_, _, _, jp) -> jp) link in
        match entry with
        | `Done (name, path) -> { Eval.sp_binding = name; sp_path = path; sp_join }
        | `Lazy (name, tbl) ->
          let path =
            match probe with
            | Some cp -> (
              match run_probe_values rt access cp outer with
              | Some hit -> Eval.probed_path access ~table:tbl hit
              | None ->
                Eval.Seq_scan { table = tbl; rows = Eval.table_count access ~table:tbl })
            | None ->
              Eval.Seq_scan { table = tbl; rows = Eval.table_count access ~table:tbl }
          in
          { Eval.sp_binding = name; sp_path = path; sp_join })
      (List.combine phase1 probes)
      links
  in
  { cs_cols = sr_cols; cs_run; cs_read; cs_plan }

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)

let compile_expr ctx ~shape e = cexpr_of { ctx with cc_shape = shape } e
let eval_cexpr rt ce (env : renv) : Value.t = ce rt None env

let cexpr_holds rt ce (env : renv) =
  Value.truth_holds (Eval.value_truth (ce rt None env))

let compile_select ctx s = compile_select' ctx s
let run_select rt cs = cs.cs_run rt [||]
let run_select_read rt cs = cs.cs_read rt
let select_cols cs = cs.cs_cols

let compile_probe ctx ~frame ~target ~table where =
  compile_probe_plan ctx ~frame ~target ~table where

let run_probe rt access cp = run_probe_values rt access cp [||]

type cpred = { cp_expr : cexpr; cp_nslots : int }

let compile_predicate db e =
  let ctx = make db in
  let ce = cexpr_of ctx e in
  { cp_expr = ce; cp_nslots = !(ctx.cc_slots) }

let run_predicate ?access ~use_cache resolve p =
  let rt = make_rt ?access ~use_cache ~slots:p.cp_nslots resolve in
  Value.truth_holds (Eval.value_truth (p.cp_expr rt None [||]))

let eval_select ?access ?params ?(use_cache = false) resolve db s =
  (* same exception-safety injection site as [Eval.eval_select]: one
     hit per public entry, subqueries recurse internally *)
  Fault.hit Fault.Query_eval;
  let ctx = make db in
  let cs = compile_select' ctx s in
  let rt = make_rt ?access ?params ~use_cache ~slots:!(ctx.cc_slots) resolve in
  cs.cs_run rt [||]

let plan_select ~access resolve db s =
  let ctx = make db in
  let cs = compile_select' ctx s in
  let rt = make_rt ~access ~use_cache:false ~slots:!(ctx.cc_slots) resolve in
  cs.cs_plan rt [||]

let plan_op ~access resolve db (op : Ast.op) : Eval.source_plan list =
  match op with
  | Ast.Select_op s | Ast.Insert { source = `Select s; _ } ->
    plan_select ~access resolve db s
  | Ast.Insert { source = `Values _; _ } -> []
  | Ast.Delete { table; where } | Ast.Update { table; where; _ } ->
    (* mirror of the DML layer's victim selection: the table is bound
       under its own name; resolving an unknown table raises the same
       error execution would *)
    let ctx = make db in
    let cols =
      if Database.has_table db table then
        Table.col_names (Database.table db table)
      else (resolve (Ast.Base table)).Eval.cols
    in
    let cp =
      compile_probe_plan ctx ~frame:[ (table, cols) ] ~target:table ~table where
    in
    let rt = make_rt ~access ~use_cache:false ~slots:!(ctx.cc_slots) resolve in
    let path =
      match cp with
      | Some cp -> (
        match run_probe_values rt access cp [||] with
        | Some hit -> Eval.probed_path access ~table hit
        | None -> Eval.Seq_scan { table; rows = Eval.table_count access ~table })
      | None -> Eval.Seq_scan { table; rows = Eval.table_count access ~table }
    in
    [ { Eval.sp_binding = table; sp_path = path; sp_join = None } ]
