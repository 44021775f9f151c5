(* Compilation of expressions and selects to positional closures: the
   engine's one evaluator.

   An [Ast.expr] is lowered once per statement to an OCaml closure in
   which each column reference has been resolved to a (frame depth,
   binding index, column index) triple, so per-row evaluation is three
   array loads.  Scope search, ambiguity checking and unknown-column
   detection happen at compile time, but their errors are raised at run
   time, by closures that raise when (and only when) evaluation reaches
   the faulty reference: a CASE branch never taken, a projection over
   zero rows or a WHERE clause over an empty cross product surfaces no
   error, as SQL's evaluation order says.

   Two more per-row decisions move to compile time:

   - Correlation analysis.  A subquery none of whose compiled
     references (on any branch) reaches an enclosing scope cannot
     depend on the outer row, so it is assigned a memo slot and runs
     once per [rt] — one database state.

   - Sargable-conjunct selection and FROM-list analysis.  The
     access-path planner's candidate scan ([Eval.sargable_candidates])
     and the join links ([Eval.from_links]) are static; only the probe
     values are evaluated at run time, ranked by the shared cost model
     ([Eval.probe_candidates]), and a linked table's join method is
     decided from the number of partial frames ([Eval.index_join]).

   A compiled select runs as a push pipeline ([run_plain]): each FROM
   source binds its rows into one reused frame and calls the next, WHERE
   runs on the full frame, and the rows that pass are projected or
   folded into per-group aggregate accumulators — no stage builds a
   list of rows.  EXPLAIN is a plan-only run of the same pipeline
   ([plan_plain]): it takes every read decision the executor takes and
   reports them, without running the last source or WHERE.

   Predicates compile once, to a truth value ([truth_of]); a comparison
   allocates nothing.  When [row_kind] proves WHERE cannot raise, each
   source tests the conjuncts that compare one of its columns with
   values fixed for the run ([row_test]) on its stored row, before the
   row is bound or hashed: a rejected row costs no frame write, no join
   probe and no partial frame, and a linked source's join method is
   decided from the rows that passed.  WHERE's other conjuncts run on
   the full frame.  A WHERE that may raise is tested whole on the full
   frame, so pushing conjuncts down changes no error and no read set.
   DELETE's and UPDATE's victims are the rows of a single-source select
   core ([compile_victims]), so they are read by the same loop.

   The differential oracle is test/reference_eval.ml, a nested-loop
   evaluator with no planner: test/test_compile_diff.ml asserts that
   results and error kinds agree. *)

open Relational

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)

(* A runtime environment mirrors [Eval.env] positionally: scopes
   innermost first, each frame an array of bound rows in FROM-item
   order.  The binding names and column names were consumed at
   compile time. *)
type renv = Row.t array array

(* Per-evaluation-unit runtime state: the database state base tables
   are read from, the callback hearing every read decision, the
   transition-table resolver, and the memo slots backing the
   compile-time uncorrelated-subquery analysis.  One [rt] per DML
   operation or rule-condition evaluation: a memo is sound only while
   the database state is fixed. *)
type rt = {
  rt_db : Database.t;
  rt_note : Eval.note;
  rt_resolve : Eval.resolver;
  rt_slots : Eval.memo option array;
  rt_params : Value.t array;
      (* the EXECUTE parameter frame: [Param i] closures read slot [i].
         Empty for unparameterized statements. *)
}

let no_params : Value.t array = [||]

let make_rt ~db ?(note = Eval.no_note) ?(params = no_params) ~slots resolve =
  {
    rt_db = db;
    rt_note = note;
    rt_resolve = resolve;
    rt_slots = Array.make (max slots 1) None;
    rt_params = params;
  }

(* The accumulator of one aggregate call over one group, folded row by
   row.  An error evaluating the argument or combining values is kept,
   not raised: in SQL's clause order an aggregate is evaluated only when
   HAVING or a projection reaches it, after WHERE and the GROUP BY keys
   ran over every row, so the error surfaces when the aggregate is
   finalized — an argument error before a combining error, as if every
   argument of the group were evaluated before folding. *)
type acc = {
  mutable a_count : int; (* rows (COUNT( * )) or non-NULL arguments *)
  mutable a_value : Value.t; (* SUM/AVG running total, MIN/MAX so far *)
  mutable a_arg_err : exn option;
  mutable a_fold_err : exn option;
}

(* [Some accs] while evaluating HAVING and the projections of a grouped
   select: aggregate closures read their accumulators, exactly where
   [Eval.context.group] would range over the group's rows. *)
type grp = acc array option

type cexpr = rt -> grp -> renv -> Value.t

(* A predicate: an expression compiled to its truth value, an immediate,
   so testing it allocates nothing. *)
type ctruth = rt -> grp -> renv -> Value.truth

(* An aggregate call of a grouped select's HAVING or projections;
   [ag_col] is the (binding, column) its argument reads when the
   argument is a bare column of the select's own FROM items. *)
type agg = { ag_fn : Ast.agg_fn; ag_arg : cexpr option; ag_col : (int * int) option }

type cselect = {
  cs_cols : string array; (* static output names of the non-empty path *)
  cs_run : rt -> renv -> Eval.relation;
  cs_exists : rt -> renv -> Eval.relation;
      (* [cs_run] stopped at its first row when the rows it would skip
         cannot raise: only its emptiness is meaningful *)
  cs_read : rt -> Eval.relation * (Handle.t * Row.t) list option;
      (* [cs_run] with no outer scopes, with the Section 5.1 read set
         — the handles and stored rows of the rows passing WHERE — when
         the shape allows a precise one *)
  cs_plan : rt -> Eval.source_plan list;
      (* EXPLAIN: the read decisions of each core's FROM sources, with no
         outer scopes *)
}

(* The statically-selected sargable candidates for one base table,
   ranked by the shared cost model at run time. *)
type cprobe = (cexpr, rt -> renv -> Eval.in_set) Eval.sargable list

(* ------------------------------------------------------------------ *)
(* Compile-time context                                                *)

(* A grouped select's aggregate calls, numbered in compile order; the
   accumulator array of a group is indexed the same way.  [r_watch]
   is false for the empty-group variant (see [compile_plain]), whose
   arguments are never evaluated and so must not count as correlated. *)
type agg_reg = { mutable r_aggs : agg list; mutable r_count : int; r_watch : bool }

type ctx = {
  cc_db : Database.t;
      (* the catalog the statement is compiled against; schema changes
         invalidate compiled forms (the engine keys its rule caches on
         a DDL generation counter) *)
  cc_shape : (string * string array) list list;
      (* the compile-time mirror of the runtime environment: scopes
         innermost first, each frame the (binding name, columns) list
         of one select's FROM items *)
  cc_schemas : Schema.table option list list;
      (* parallel to [cc_shape]: each binding's schema, when it is a
         stored or transition table, for the early-stop analysis *)
  cc_watches : (int * bool ref) list;
      (* static correlation watches: a resolution in one of the
         outermost [suffix_len] scopes raises the flag — at compile
         time *)
  cc_aggs : agg_reg option;
      (* where an aggregate call registers: set while compiling a
         grouped select's HAVING and projections, unset elsewhere *)
  cc_slots : int ref; (* memo-slot counter for this compile unit *)
  cc_memo : (Ast.select * int) list ref;
      (* the slot of each uncorrelated subquery, by physical identity:
         a sargable IN (select ...) is compiled twice — once for the
         probe values, once inside the residual WHERE — and both copies
         read one slot, so the subquery runs once *)
  cc_param_kinds : lit_kind array;
      (* the kind of each parameter when the plan is compiled for one
         kind per parameter (the statement cache keys plans on them);
         empty when any value may be bound, as for PREPARE *)
}

and lit_kind = [ `Num | `Str | `Bool | `Null ]

let lit_kind : Value.t -> lit_kind = function
  | Value.Null -> `Null
  | Value.Int _ | Value.Float _ -> `Num
  | Value.Str _ -> `Str
  | Value.Bool _ -> `Bool

let make ?(param_kinds = [||]) db =
  {
    cc_param_kinds = param_kinds;
    cc_db = db;
    cc_shape = [];
    cc_schemas = [];
    cc_watches = [];
    cc_aggs = None;
    cc_slots = ref 0;
    cc_memo = ref [];
  }
let slot_count ctx = !(ctx.cc_slots)

(* [ctx] over an environment shape of untyped bindings, outside any
   grouped select. *)
let with_shape ctx shape =
  {
    ctx with
    cc_shape = shape;
    cc_schemas = List.map (List.map (fun _ -> None)) shape;
    cc_aggs = None;
  }

let col_index = Eval.col_index

(* Column resolution at compile time: scopes innermost first; within a
   scope a qualified reference must match a binding name, an
   unqualified one must be unambiguous.  It yields a position — or the
   error every evaluation of the reference raises. *)
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

(* Rank and try the compiled candidates with the planner's procedure
   ([Eval.probe_candidates]), which probes or says "scan instead".
   Probe values evaluate against the outer scopes alone (they were
   compiled under them), in non-grouped context. *)
let run_probe_values rt tbl (cp : cprobe) (outer : renv) : Eval.probe_outcome =
  Eval.probe_candidates tbl
    ~eval:(fun ce -> ce rt None outer)
    ~eval_set:(fun f -> (f rt outer).Eval.in_values)
    cp

(* Compiled projections: one op per output column — a position in the
   local frame (stars expand to these) or an expression — and, for an
   unknown table-star, an op raising at projection time (i.e. once per
   projected row, as SQL's evaluation order says); it produces no
   column, because it raises before any row is produced. *)
type pop = Pop_col of int * int | Pop_expr of cexpr | Pop_err of Errors.t

type cprojs = { pr_names : string array; pr_ops : pop array }

(* Project one row straight into an array of the statically known
   width. *)
let run_projs pr rt g (env : renv) : Row.t =
  let out = Array.make (Array.length pr.pr_names) Value.Null in
  let j = ref 0 in
  for i = 0 to Array.length pr.pr_ops - 1 do
    match pr.pr_ops.(i) with
    | Pop_col (b, c) ->
      out.(!j) <- env.(0).(b).(c);
      incr j
    | Pop_expr ce ->
      out.(!j) <- ce rt g env;
      incr j
    | Pop_err e -> Errors.raise_error e
  done;
  out

(* A group's accumulators, one per aggregate call. *)
let new_accs n =
  Array.init n (fun _ ->
      { a_count = 0; a_value = Value.Null; a_arg_err = None; a_fold_err = None })

(* Fold one argument value into an aggregate's accumulator: the group's
   non-NULL arguments, folded from [Int 0] (SUM, AVG) or from the first
   value (MIN, MAX), one row at a time. *)
let fold_value fn acc (v : Value.t) =
  match v with
  | Value.Null -> ()
  | v -> (
    acc.a_count <- acc.a_count + 1;
    match fn with
    | Ast.Count_star | Ast.Count -> ()
    | Ast.Sum | Ast.Avg -> (
      if Option.is_none acc.a_fold_err then
        let total = if acc.a_count = 1 then Value.Int 0 else acc.a_value in
        match Value.add total v with
        | sum -> acc.a_value <- sum
        | exception e -> acc.a_fold_err <- Some e)
    | Ast.Min -> if acc.a_count = 1 || Value.compare_total v acc.a_value < 0 then acc.a_value <- v
    | Ast.Max -> if acc.a_count = 1 || Value.compare_total v acc.a_value > 0 then acc.a_value <- v)

(* Fold one row into an aggregate's accumulator. *)
let fold_agg rt (env : renv) ag acc =
  match ag.ag_fn, ag.ag_arg with
  | Ast.Count_star, _ -> acc.a_count <- acc.a_count + 1
  | _, None -> ()
  | fn, Some ce -> (
    if Option.is_none acc.a_arg_err then
      match ce rt None env with
      | exception e -> acc.a_arg_err <- Some e
      | v -> fold_value fn acc v)

(* The aggregate's value over its group, or the error evaluating it
   raises. *)
let finalize ag acc =
  match ag.ag_fn, ag.ag_arg with
  | Ast.Count_star, _ -> Value.Int acc.a_count
  | _, None -> Errors.semantic "aggregate function requires an argument"
  | fn, Some _ -> (
    Option.iter raise acc.a_arg_err;
    Option.iter raise acc.a_fold_err;
    match fn with
    | Ast.Count_star | Ast.Count -> Value.Int acc.a_count
    | Ast.Sum | Ast.Min | Ast.Max -> if acc.a_count = 0 then Value.Null else acc.a_value
    | Ast.Avg -> (
      if acc.a_count = 0 then Value.Null
      else
        match Value.to_float acc.a_value with
        | Some f -> Value.Float (f /. float_of_int acc.a_count)
        | None -> Errors.type_error "avg over non-numeric values"))

(* One group's output row, unless HAVING drops it: HAVING and the
   projections see the group's accumulators and [env], its first row's
   frame. *)
let finish_group rt chaving cprojs env accs =
  let g = Some accs in
  let keep =
    match chaving with
    | None -> true
    | Some ch -> Value.truth_holds (ch rt g env)
  in
  if keep then Some (run_projs cprojs rt g env) else None

(* The early-stop analysis: the kind of value an expression yields on
   every row, when its evaluation provably cannot raise — literals,
   columns of stored or transition tables (whose values have their
   column's type, or are NULL), comparisons of compatible kinds, and
   the logic and arithmetic that cannot fail on them.  [None] means it
   might raise (or is not analysed). *)
let rec row_kind ctx (e : Ast.expr) : lit_kind option =
  let kind_of_type = function
    | Schema.T_int | Schema.T_float -> `Num
    | Schema.T_string -> `Str
    | Schema.T_bool -> `Bool
  in
  let compatible es =
    let kinds = List.map (row_kind ctx) es in
    match List.filter (fun k -> k <> Some `Null) kinds with
    | _ when List.mem None kinds -> None
    | [] -> Some `Bool
    | k :: rest -> if List.for_all (( = ) k) rest then Some `Bool else None
  in
  (* every operand safe and of one of [kinds]: the result is [kind] *)
  let all_of kinds kind es =
    if
      List.for_all
        (fun e -> match row_kind ctx e with Some k -> List.mem k kinds | None -> false)
        es
    then Some kind
    else None
  in
  match e with
  | Ast.Lit Value.Null -> Some `Null
  | Ast.Lit (Value.Int _ | Value.Float _) -> Some `Num
  | Ast.Lit (Value.Str _) -> Some `Str
  | Ast.Lit (Value.Bool _) -> Some `Bool
  | Ast.Param i when i < Array.length ctx.cc_param_kinds -> Some ctx.cc_param_kinds.(i)
  | Ast.Col { qualifier; column } -> (
    match resolve_col { ctx with cc_watches = [] } qualifier column with
    | H_at (d, b, c) -> (
      match List.nth_opt ctx.cc_schemas d with
      | Some frame -> (
        match List.nth_opt frame b with
        | Some (Some schema) -> Some (kind_of_type schema.Schema.columns.(c).Schema.col_type)
        | Some None | None -> None)
      | None -> None)
    | H_err _ -> None)
  | Ast.Cmp (_, a, b) -> compatible [ a; b ]
  | Ast.Between (a, lo, hi) -> compatible [ a; lo; hi ]
  | Ast.In_list (a, es) | Ast.Not_in_list (a, es) -> compatible (a :: es)
  | Ast.And (a, b) | Ast.Or (a, b) -> all_of [ `Bool; `Null ] `Bool [ a; b ]
  | Ast.Not a -> all_of [ `Bool; `Null ] `Bool [ a ]
  | Ast.Is_null a | Ast.Is_not_null a -> Option.map (fun _ -> `Bool) (row_kind ctx a)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul), a, b) -> all_of [ `Num; `Null ] `Num [ a; b ]
  | Ast.Neg a -> all_of [ `Num; `Null ] `Num [ a ]
  | _ -> None

(* Whether comparison result [c] (not [Value.unknown_cmp]) satisfies
   [op]. *)
let cmp_holds op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let cmp_truth op c =
  if c = Value.unknown_cmp then Value.Unknown else Value.truth_of_bool (cmp_holds op c)

(* A WHERE conjunct tested on one source's stored row ([row_test]),
   handed the run's [rt] and frame once per run to read the values it
   compares with. *)
type row_test = { tc_conjunct : Ast.expr; tc_test : rt -> renv -> Row.t -> bool }

(* How one FROM source is read in one run of a compiled select: its
   rows (materialized, probed with their handles, or scanned in place,
   [R_abandoned] when a probe was given up for the scan),
   one index probe per partial frame ([probes] of them, [est] rows
   estimated), or hashed on its join key when the first partial frame
   arrives ([R_deferred]: the join method waits for the partial frames
   to be counted).  EXPLAIN reports these decisions. *)
type sread =
  | R_rows of Row.t list
  | R_probe of Eval.probe_hit
  | R_table of Table.t
  | R_abandoned of Table.t * Eval.abandoned
  | R_index_join of {
      table : Table.t;
      column : string; (* the link column *)
      est : int;
      probes : int;
    }
  | R_hash of sread
  | R_hashed of Eval.join_table * sread (* built from that read *)
  | R_deferred of Table.t

(* The state of one run of a compiled select's pipeline: the frame every
   source binds its row into ([sc_env] is it over the outer scopes), each
   source's row filter once built, and what the consumer of passing rows
   has gathered so far. *)
type scan = {
  sc_rt : rt;
  sc_outer : renv;
  sc_local : Row.t array;
  sc_env : renv;
  sc_reads : sread array;
  sc_filters : (Row.t -> bool) option array;
  sc_read : bool; (* collect the handles and stored rows of passing rows *)
  sc_stop_at : int; (* stop once this many rows passed *)
  mutable sc_cur : Handle.t; (* with [sc_read], the handle of the row just bound *)
  mutable sc_pairs : (Handle.t * Row.t) list;
  mutable sc_buffer : Row.t array list; (* partial frames awaiting a deferred join, newest first *)
  mutable sc_passed : int;
  mutable sc_rows : Row.t list; (* projected rows, newest first *)
  mutable sc_keyed : ((Value.t * [ `Asc | `Desc ]) list * Row.t) list;
  mutable sc_err : exn option; (* first projection or GROUP BY key error *)
  mutable sc_key_err : exn option; (* first ORDER BY key error *)
  mutable sc_groups : (renv * acc array) list; (* newest first *)
  mutable sc_index : (renv * acc array) Eval.Row_tbl.t option;
}

exception Stop_scan

(* [sc_cur] before any handle was bound; never reported *)
let no_handle = Handle.restore ~id:0 ""

(* The row handed to the first stage of a chain, whose frame is empty *)
let no_row : Row.t = [||]

let rec iter_read f = function
  | R_rows rows -> List.iter f rows
  | R_probe hit -> List.iter (fun (_, row) -> f row) hit.Eval.ph_pairs
  | R_table t | R_abandoned (t, _) -> Table.iter (fun _ row -> f row) t
  | R_hash r -> iter_read f r
  | R_index_join _ | R_hashed _ | R_deferred _ -> assert false

let rec read_count = function
  | R_rows rows -> List.length rows
  | R_probe hit -> List.length hit.Eval.ph_pairs
  | R_table t | R_abandoned (t, _) -> Table.cardinality t
  | R_hash r -> read_count r
  | R_index_join _ | R_hashed _ | R_deferred _ -> assert false

let with_outer frame (outer : renv) =
  let env = Array.make (Array.length outer + 1) frame in
  Array.blit outer 0 env 1 (Array.length outer);
  env

(* The static plan of one select core (no compound operator), built
   once by [compile_plain]; [run_plain] executes it.  [pl_order] is
   over the FROM rows, or over the output rows when [pl_grouped]. *)
type plain = {
  pl_kinds : [ `Derived of cselect | `Transition of Ast.trans_table | `Base of string ] array;
  pl_names : string array; (* binding names *)
  pl_cols : string array array;
  pl_links : (Eval.join_link option array, Errors.t) result;
  pl_probes : cprobe option array;
  pl_tests : row_test list array; (* each source's, in conjunct order *)
  pl_deferred : bool array;
      (* a linked base table indexed on its link column: its join method
         waits for the count of its partial frames *)
  pl_where : ctruth option; (* WHERE's conjuncts no source tests *)
  pl_consume : bool; (* false for a victim select: passing rows are only collected *)
  pl_grouped : bool;
  pl_group_keys : cexpr array;
  pl_having : ctruth option;
  pl_projs : cprojs;
  pl_aggs : agg array;
  pl_empty_group : (ctruth option * cprojs * int) option;
  pl_order : (cexpr * [ `Asc | `Desc ]) list;
  pl_distinct : bool;
  pl_limit : int option;
  pl_read_set : bool; (* one base table and no GROUP BY: a precise read set *)
  pl_cols_when_empty : rt -> string array;
  mutable pl_segments : (int * (scan -> Row.t -> unit)) array;
      (* from source 0 and from each deferred source [j]: the next
         deferred source [d] (or the source count) and the chain of
         sources [j..d-1], ending in the partial-frame buffer or in WHERE
         and the consumer *)
}

let link pl i = match pl.pl_links with Ok links -> links.(i) | Error _ -> None
let link_col pl i (l : Eval.join_link) = pl.pl_cols.(i).(l.Eval.jl_col)
let join_key sc (l : Eval.join_link) = sc.sc_local.(l.Eval.jl_with).(l.Eval.jl_with_col)

let always (_ : Row.t) = true

let rec all_hold tests (row : Row.t) =
  match tests with [] -> true | t :: rest -> t row && all_hold rest row

(* Source [i]'s row filter for this run, built at its first use: its
   tests read their literals, parameters and outer-scope columns, none
   of which raises (a parameter is tested only when the plan was
   compiled for the kinds of its bound values). *)
let row_filter pl sc i =
  match pl.pl_tests.(i) with
  | [] -> always
  | tests -> (
    match sc.sc_filters.(i) with
    | Some f -> f
    | None ->
      let f =
        match tests with
        | [ tc ] -> tc.tc_test sc.sc_rt sc.sc_env
        | tests -> all_hold (List.map (fun tc -> tc.tc_test sc.sc_rt sc.sc_env) tests)
      in
      sc.sc_filters.(i) <- Some f;
      f)

(* A stage of the pipeline: what is done with a row of the source before
   it, once the row passed that source's tests and joins, and — when the
   stage reads the frame — was bound into [sc_local]. *)
type stage = scan -> Row.t -> unit

(* [extend pl i ~bind next] hands each row of source [i] that passes its
   tests and matches the partial frame of sources 0..i-1 in [sc_local]
   to [next], binding it first when [bind]; a hash join builds on the
   rows that pass. *)
let extend pl i ~bind (next : stage) : stage =
  let pairs sc keep l =
    List.iter
      (fun (h, row) ->
        if keep row then begin
          if sc.sc_read then sc.sc_cur <- h;
          if bind then sc.sc_local.(i) <- row;
          next sc row
        end)
      l
  in
  let rec go sc (_ : Row.t) =
    match sc.sc_reads.(i), link pl i with
    | R_rows rows, _ ->
      let keep = row_filter pl sc i in
      List.iter
        (fun row ->
          if keep row then begin
            if bind then sc.sc_local.(i) <- row;
            next sc row
          end)
        rows
    | R_probe hit, _ -> pairs sc (row_filter pl sc i) hit.Eval.ph_pairs
    | (R_table t | R_abandoned (t, _)), _ ->
      let keep = row_filter pl sc i in
      Table.iter
        (fun h row ->
          if keep row then begin
            if sc.sc_read then sc.sc_cur <- h;
            if bind then sc.sc_local.(i) <- row;
            next sc row
          end)
        t
    | R_index_join { table; column; _ }, Some l ->
      sc.sc_rt.rt_note `Index_probe (Table.name table);
      pairs sc (row_filter pl sc i) (Eval.index_join_rows table ~column (join_key sc l))
    | R_hash r, Some l ->
      sc.sc_rt.rt_note `Hash_join_build "";
      let keep = row_filter pl sc i in
      sc.sc_reads.(i) <-
        R_hashed
          ( Eval.build_join_table ~size:(read_count r) l.Eval.jl_col (fun f ->
                iter_read (fun row -> if keep row then f row) r),
            r );
      go sc no_row
    | R_hashed (table, _), Some l ->
      sc.sc_rt.rt_note `Hash_join_probe "";
      List.iter
        (fun row ->
          if bind then sc.sc_local.(i) <- row;
          next sc row)
        (Eval.join_matches table (join_key sc l))
    | (R_index_join _ | R_hash _ | R_hashed _), None | R_deferred _, _ -> assert false
  in
  go

(* Sources [i..j-1] chained in front of [last], which reads the frame
   when [frame]: the last source binds its rows only then. *)
let rec chain pl i j ~frame last =
  if i = j then last else extend pl i ~bind:(frame || i < j - 1) (chain pl (i + 1) j ~frame last)

let new_group pl sc =
  let g = (with_outer (Array.copy sc.sc_local) sc.sc_outer, new_accs (Array.length pl.pl_aggs)) in
  sc.sc_groups <- g :: sc.sc_groups;
  g

let fold pl sc accs =
  for i = 0 to Array.length pl.pl_aggs - 1 do
    fold_agg sc.sc_rt sc.sc_env pl.pl_aggs.(i) accs.(i)
  done

(* Fold the stored row of the last source into the accumulators of
   aggregates that read nothing else: reading a column cannot raise. *)
let fold_row aggs accs (row : Row.t) =
  for i = 0 to Array.length aggs - 1 do
    let ag = aggs.(i) and acc = accs.(i) in
    match ag.ag_fn, ag.ag_col with
    | Ast.Count_star, _ -> acc.a_count <- acc.a_count + 1
    | fn, Some (_, c) -> fold_value fn acc row.(c)
    | _, None -> ()
  done

(* With [sc_read] (one source), keep the handle and stored row of a
   passing row. *)
let[@inline] record sc row = if sc.sc_read then sc.sc_pairs <- (sc.sc_cur, row) :: sc.sc_pairs

let[@inline] passed sc =
  sc.sc_passed <- sc.sc_passed + 1;
  if sc.sc_passed >= sc.sc_stop_at then raise Stop_scan

(* What becomes of a row passing WHERE, chosen once per plan, and
   whether that reads the frame: a victim select only collects it; a
   select with no GROUP BY whose aggregates read nothing but the last
   source's columns folds its stored row straight into the one group
   (binding only the group's first row, which HAVING and the
   projections see); otherwise the row is projected (with its ORDER BY
   keys), folded into the one group, or folded into its group. *)
let emitter pl : bool * stage =
  let last = Array.length pl.pl_kinds - 1 in
  let from_row ag =
    match ag.ag_fn, ag.ag_col with
    | Ast.Count_star, _ -> true
    | _, Some (b, _) -> b = last
    | _, None -> Option.is_none ag.ag_arg
  in
  if not pl.pl_consume then
    ( false,
      fun sc row ->
        record sc row;
        passed sc )
  else if not pl.pl_grouped then
    ( true,
      fun sc row ->
        record sc row;
        (if Option.is_none sc.sc_err then
           match run_projs pl.pl_projs sc.sc_rt None sc.sc_env with
           | exception e -> sc.sc_err <- Some e
           | out -> (
             sc.sc_rows <- out :: sc.sc_rows;
             if pl.pl_order <> [] && Option.is_none sc.sc_key_err then
               match List.map (fun (ce, dir) -> (ce sc.sc_rt None sc.sc_env, dir)) pl.pl_order with
               | exception e -> sc.sc_key_err <- Some e
               | keys -> sc.sc_keyed <- (keys, out) :: sc.sc_keyed));
        passed sc )
  else if Array.length pl.pl_group_keys = 0 && last >= 0 && Array.for_all from_row pl.pl_aggs then
    ( false,
      fun sc row ->
        record sc row;
        (match sc.sc_groups with
        | (_, accs) :: _ -> fold_row pl.pl_aggs accs row
        | [] ->
          sc.sc_local.(last) <- row;
          fold_row pl.pl_aggs (snd (new_group pl sc)) row);
        passed sc )
  else if Array.length pl.pl_group_keys = 0 then
    ( true,
      fun sc row ->
        record sc row;
        (match sc.sc_groups with
        | (_, accs) :: _ -> fold pl sc accs
        | [] -> fold pl sc (snd (new_group pl sc)));
        passed sc )
  else
    ( true,
      fun sc row ->
        record sc row;
        (if Option.is_none sc.sc_err then
           let keys = pl.pl_group_keys in
           let key = Array.make (Array.length keys) Value.Null in
           match
             for k = 0 to Array.length keys - 1 do
               key.(k) <- keys.(k) sc.sc_rt None sc.sc_env
             done
           with
           | exception e -> sc.sc_err <- Some e
           | () ->
             let index =
               match sc.sc_index with
               | Some index -> index
               | None ->
                 let index = Eval.Row_tbl.create 16 in
                 sc.sc_index <- Some index;
                 index
             in
             let _, accs =
               match Eval.Row_tbl.find_opt index key with
               | Some g -> g
               | None ->
                 let g = new_group pl sc in
                 Eval.Row_tbl.add index key g;
                 g
             in
             fold pl sc accs);
        passed sc )

(* The end of the chain and whether it reads the frame: the rest of
   WHERE, then the row's emitter. *)
let final pl : bool * stage =
  let frame, emit = emitter pl in
  match pl.pl_where with
  | None -> (frame, emit)
  | Some ct ->
    (true, fun sc row -> if Value.truth_holds (ct sc.sc_rt None sc.sc_env) then emit sc row)

(* Reading a lazy base table: by probe when a sargable conjunct allows
   it, by scan in place otherwise. *)
let realize pl sc i tbl =
  match
    match pl.pl_probes.(i) with
    | Some cp -> run_probe_values sc.sc_rt tbl cp sc.sc_outer
    | None -> Eval.Scan None
  with
  | Eval.Probed hit ->
    sc.sc_rt.rt_note
      (match hit.Eval.ph_kind with `Eq -> `Index_probe | `Range -> `Range_probe)
      (Table.name tbl);
    R_probe hit
  | Eval.Scan abandoned -> (
    sc.sc_rt.rt_note `Seq_scan (Table.name tbl);
    match abandoned with None -> R_table tbl | Some ab -> R_abandoned (tbl, ab))

(* A linked base table's join method, from the number of partial
   frames it extends: probing its index once per partial frame when the
   cost rule prefers that ([Eval.index_join]), else a hash join. *)
let decide pl sc i tbl l ~partials =
  let column = link_col pl i l in
  match Eval.index_join tbl ~column ~partials with
  | Some est -> R_index_join { table = tbl; column; est; probes = partials }
  | None -> R_hash (realize pl sc i tbl)

(* The chains of a plan's segments ([pl_segments]), built once. *)
let segments pl =
  let n = Array.length pl.pl_kinds in
  let rec next_deferred i =
    if i >= n then n else if pl.pl_deferred.(i) then i else next_deferred (i + 1)
  in
  Array.init (max n 1) (fun j ->
      if j > 0 && not pl.pl_deferred.(j) then (n, fun _ _ -> ())
      else
        let d = next_deferred (j + 1) in
        let frame, last =
          if d = n then final pl
          else (true, fun sc _ -> sc.sc_buffer <- Array.sub sc.sc_local 0 d :: sc.sc_buffer)
        in
        (d, chain pl j d ~frame last))

(* Run the sources from [j] on, over each partial frame of sources
   0..j-1 in [partials] ([None]: the empty frame), deciding a deferred
   join method once its partial frames — the rows that passed the
   earlier sources' tests and joins — are buffered and counted.  With
   [plan], stop once every source is decided: the last one and WHERE
   never run. *)
let rec run_from ~plan pl sc j partials =
  let n = Array.length pl.pl_kinds in
  let d, run = pl.pl_segments.(j) in
  (if d < n || not plan then
     match partials with
     | None -> run sc no_row
     | Some ps ->
       List.iter
         (fun p ->
           Array.blit p 0 sc.sc_local 0 j;
           run sc no_row)
         ps);
  if d < n then begin
    let ps = List.rev sc.sc_buffer in
    sc.sc_buffer <- [];
    (match sc.sc_reads.(d), link pl d with
    | R_deferred tbl, Some l ->
      sc.sc_reads.(d) <- decide pl sc d tbl l ~partials:(List.length ps)
    | _ -> assert false);
    run_from ~plan pl sc d (Some ps)
  end

(* The sources of one run of a select core, read before any row flows:
   the derived and transition tables resolved and the base tables
   looked up, then the base tables realized in FROM order, except that
   a linked table whose join method depends on the number of partial
   frames is left [R_deferred]. *)
let start_plain pl rt (outer : renv) ~read ~stop_at =
  let n = Array.length pl.pl_kinds in
  let local = Array.make n [||] in
  let sc =
    {
      sc_rt = rt;
      sc_outer = outer;
      sc_local = local;
      sc_env = with_outer local outer;
      sc_reads = Array.make n (R_rows []);
      sc_filters =
        (if Array.exists (function [] -> false | _ :: _ -> true) pl.pl_tests then Array.make n None
         else [||]);
      sc_read = read && pl.pl_read_set;
      sc_stop_at = stop_at;
      sc_cur = no_handle;
      sc_pairs = [];
      sc_buffer = [];
      sc_passed = 0;
      sc_rows = [];
      sc_keyed = [];
      sc_err = None;
      sc_key_err = None;
      sc_groups = [];
      sc_index = None;
    }
  in
  (* phase 1: resolve the sources in FROM order — an unknown base table
     raises here, before a duplicate binding name is reported *)
  for i = 0 to n - 1 do
    sc.sc_reads.(i) <-
      (match pl.pl_kinds.(i) with
      | `Derived c -> R_rows (c.cs_run rt outer).Eval.rows
      | `Transition tt -> R_rows (rt.rt_resolve tt).Eval.rows
      | `Base tbl -> R_table (Database.table rt.rt_db tbl))
  done;
  (match pl.pl_links with Ok _ -> () | Error e -> Errors.raise_error e);
  (* phase 2: read the base tables in FROM order before any row
     flows — every source is read even when an earlier one is empty —
     except that a deferred one waits for the count of its partial
     frames *)
  for i = 0 to n - 1 do
    sc.sc_reads.(i) <-
      (match sc.sc_reads.(i), link pl i with
      | R_table tbl, None -> realize pl sc i tbl
      | R_table tbl, Some _ when pl.pl_deferred.(i) -> R_deferred tbl
      | R_table tbl, Some _ -> R_hash (realize pl sc i tbl)
      | read, Some _ -> R_hash read
      | read, None -> read)
  done;
  sc

(* One run of a select core: the result and, with [read], the handles
   and stored rows of the rows passing WHERE.  The sources push rows
   through one frame ([sc_local]): each extends the partial frame and
   calls the next, so no stage builds a list of rows.  A base table
   linked to an earlier source is joined by probing its index once per
   partial frame, or by a hash table, as [Eval.index_join] decides from
   the number of partial frames.  The scan stops once [stop_at] rows
   passed.  Per-row work after WHERE keeps its first error instead of
   raising it, and the error is raised once the scan is over: a WHERE
   error on any row comes first, then a projection (or GROUP BY key)
   error, then an ORDER BY key error, as if each clause ran over every
   row in turn. *)
let run_plain pl rt (outer : renv) ~read ~stop_at =
  let sc = start_plain pl rt outer ~read ~stop_at in
  (try run_from ~plan:false pl sc 0 None with Stop_scan -> ());
  (* the output names of the rows produced: the static projection
     names, or those of the empty-group projection when it ran *)
  let out_cols = ref pl.pl_projs.pr_names in
  Option.iter raise sc.sc_err;
  let rows =
    if not pl.pl_grouped then begin
      Option.iter raise sc.sc_key_err;
      if pl.pl_order = [] then List.rev sc.sc_rows
      else List.map snd (Eval.sort_by_keys (List.rev sc.sc_keyed))
    end
    else begin
      let results =
        match List.rev sc.sc_groups, pl.pl_empty_group with
        | [], Some (chaving0, cprojs0, naggs0) ->
          (* only reachable with no GROUP BY key *)
          let r = finish_group rt chaving0 cprojs0 outer (new_accs naggs0) in
          if Option.is_some r then out_cols := cprojs0.pr_names;
          Option.to_list r
        | groups, _ ->
          List.filter_map
            (fun (rep, accs) -> finish_group rt pl.pl_having pl.pl_projs rep accs)
            groups
      in
      match pl.pl_order with
      | [] -> results
      | okeys ->
        let keyed =
          List.map
            (fun row ->
              let env = [| [| row |] |] in
              (List.map (fun (ce, dir) -> (ce rt None env, dir)) okeys, row))
            results
        in
        List.map snd (Eval.sort_by_keys keyed)
    end
  in
  let cols = match rows with _ :: _ -> !out_cols | [] -> pl.pl_cols_when_empty rt in
  let rows = if pl.pl_distinct then Eval.dedupe_rows rows else rows in
  let rows = Eval.take_limit pl.pl_limit rows in
  let read_set = if sc.sc_read then Some (List.rev sc.sc_pairs) else None in
  ({ Eval.rel_name = ""; cols; rows }, read_set)

(* EXPLAIN's view of a select core: a plan-only run that takes the read
   decisions [run_plain] takes, through the same [start_plain] and
   [run_from] — the sources before the last are joined, because a join
   method is chosen from the number of partial frames — and reports each
   source's, without running the last source, WHERE or anything after
   it.  A probe's [matches] counts the handles it returned (the rows
   enumerated before any test); [rows] is the table's current
   cardinality, what a scan would read. *)
let plan_plain pl rt (outer : renv) : Eval.source_plan list =
  let sc = start_plain pl rt outer ~read:false ~stop_at:max_int in
  run_from ~plan:true pl sc 0 None;
  let scan t abandoned =
    Eval.Seq_scan { table = Table.name t; rows = Some (Table.cardinality t); abandoned }
  in
  let rec path i = function
    | R_rows rows ->
      let source =
        match pl.pl_kinds.(i) with
        | `Derived _ -> "derived table"
        | `Transition tt -> "transition table " ^ Pretty.trans_table_str tt
        | `Base _ -> assert false
      in
      Eval.Materialized { source; rows = List.length rows }
    | R_probe hit ->
      let table = match pl.pl_kinds.(i) with `Base t -> t | _ -> assert false in
      Eval.probed_path (Database.table rt.rt_db table) hit
    | R_table t -> scan t None
    | R_abandoned (t, ab) -> scan t (Some ab)
    | R_index_join { table; est; probes; _ } ->
      Eval.Index_join_probes
        { table = Table.name table; probes; est; rows = Some (Table.cardinality table) }
    | R_hash r | R_hashed (_, r) -> path i r
    | R_deferred _ -> assert false
  in
  List.init (Array.length pl.pl_kinds) (fun i ->
      let read = sc.sc_reads.(i) in
      let join (l : Eval.join_link) =
        {
          Eval.jp_with = pl.pl_names.(l.Eval.jl_with);
          jp_conjunct = Pretty.expr_str l.Eval.jl_conjunct;
          jp_method =
            (match read with
            | R_index_join { table; column; _ } ->
              Eval.Index_nested_loop
                { index = Option.map Index.name (Table.index_on_column table column) }
            | _ -> Eval.Hash_join);
        }
      in
      {
        Eval.sp_binding = pl.pl_names.(i);
        sp_path = path i read;
        sp_join = Option.map join (link pl i);
        sp_tests = List.map (fun tc -> Pretty.expr_str tc.tc_conjunct) pl.pl_tests.(i);
      })

(* ------------------------------------------------------------------ *)
(* Expression and select compilation                                   *)

(* Read the EXECUTE parameter frame; arity is validated before the
   frame is built, so an out-of-range read means the closure was run
   outside EXECUTE. *)
let param_read (e : Ast.expr) rt =
  match e with
  | Ast.Param i ->
    if i < Array.length rt.rt_params then rt.rt_params.(i)
    else
      Errors.raise_error
        (Errors.Parameter_error
           (Printf.sprintf "parameter %d is unbound (use PREPARE/EXECUTE)" (i + 1)))
  | _ -> invalid_arg "Compile.param_read"

(* The element values of an IN list whose elements are all literals
   or parameters, hoisted out of the per-row closure: a literal list is
   constant at compile time; one with parameters is evaluated once per
   parameter frame (an [rt]'s frame is never mutated), so a cached or
   prepared plan never re-evaluates the (possibly large) list per row.
   [None] for any other list. *)
let hoisted_values es =
  let rec lits acc = function
    | [] -> Some (List.rev acc)
    | Ast.Lit v :: rest -> lits (v :: acc) rest
    | _ -> None
  in
  match lits [] es with
  | Some vals -> Some (fun _ -> vals)
  | None ->
    if List.exists (function Ast.Lit _ | Ast.Param _ -> false | _ -> true) es then None
    else
      let ces =
        List.map (function Ast.Lit v -> fun _ -> v | e -> param_read e) es
      in
      let last = ref ([||], []) in
      Some
        (fun rt ->
          let frame, vals = !last in
          if frame == rt.rt_params then vals
          else
            let vals = List.map (fun ce -> ce rt) ces in
            last := (rt.rt_params, vals);
            vals)

(* A conjunct of WHERE as a test on the stored row of FROM source [i]:
   a comparison, BETWEEN, IS [NOT] NULL or literal/parameter IN list of
   a column of source [i] against other such columns or values fixed
   for the run — literals, parameters and columns of enclosing scopes —
   which are read once per run, when the test is handed the run's [rt]
   and frame.  [None] for any other conjunct.  The caller has proved
   with [row_kind] that WHERE cannot raise, so the test is the
   conjunct's truth collapsed to a bool.  Resolving a column of an
   enclosing scope marks the select correlated, as compiling the
   conjunct would. *)
let row_test ctx i (e : Ast.expr) : (rt -> renv -> Row.t -> bool) option =
  let local = function
    | Ast.Col { qualifier; column } -> (
      match resolve_col ctx qualifier column with H_at (0, b, c) when b = i -> Some c | _ -> None)
    | _ -> None
  in
  let fixed (e : Ast.expr) : (rt -> renv -> Value.t) option =
    match e with
    | Ast.Lit v -> Some (fun _ _ -> v)
    | Ast.Param _ ->
      let read = param_read e in
      Some (fun rt _ -> read rt)
    | Ast.Col { qualifier; column } -> (
      match resolve_col ctx qualifier column with
      | H_at (d, b, c) when d > 0 -> Some (fun _ env -> env.(d).(b).(c))
      | H_at _ | H_err _ -> None)
    | _ -> None
  in
  let holds op c = c <> Value.unknown_cmp && cmp_holds op c in
  (* column [c] against [v]: an int or string stored against a value of
     its own constructor is compared directly, as [compare_sql] would *)
  let against op c (v : Value.t) : Row.t -> bool =
    match op, v with
    | (Ast.Eq | Ast.Neq), Value.Str k ->
      let eq = op = Ast.Eq in
      fun row -> (
        match row.(c) with
        | Value.Str s -> String.equal s k = eq
        | x -> holds op (Value.compare_sql x v))
    | _, Value.Int k -> (
      fun row ->
        match row.(c) with
        | Value.Int x -> cmp_holds op (Int.compare x k)
        | x -> holds op (Value.compare_sql x v))
    | _ -> fun row -> holds op (Value.compare_sql row.(c) v)
  in
  (* [v op col] is [col op' v]: comparison is antisymmetric *)
  let flip = function
    | Ast.Lt -> Ast.Gt
    | Ast.Le -> Ast.Ge
    | Ast.Gt -> Ast.Lt
    | Ast.Ge -> Ast.Le
    | (Ast.Eq | Ast.Neq) as op -> op
  in
  match e with
  | Ast.Cmp (op, a, b) -> (
    match local a, local b, fixed a, fixed b with
    | Some ca, Some cb, _, _ -> Some (fun _ _ row -> holds op (Value.compare_sql row.(ca) row.(cb)))
    | Some c, None, _, Some vb -> Some (fun rt env -> against op c (vb rt env))
    | None, Some c, Some va, _ -> Some (fun rt env -> against (flip op) c (va rt env))
    | _ -> None)
  | Ast.Between (a, lo, hi) -> (
    match local a, fixed lo, fixed hi with
    | Some c, Some vlo, Some vhi ->
      Some
        (fun rt env ->
          let lo = vlo rt env and hi = vhi rt env in
          fun row ->
            holds Ast.Ge (Value.compare_sql row.(c) lo) && holds Ast.Le (Value.compare_sql row.(c) hi))
    | _ -> None)
  | Ast.Is_null a -> Option.map (fun c _ _ row -> Value.is_null row.(c)) (local a)
  | Ast.Is_not_null a -> Option.map (fun c _ _ row -> not (Value.is_null row.(c))) (local a)
  | Ast.In_list (a, es) | Ast.Not_in_list (a, es) -> (
    let negated = match e with Ast.Not_in_list _ -> true | _ -> false in
    match local a, hoisted_values es with
    | Some c, Some vals ->
      (* IN holds when some element equals the value; NOT IN when every
         element compares unequal, none UNKNOWN *)
      let rec some_eq v = function
        | [] -> false
        | x :: rest -> Value.compare_sql v x = 0 || some_eq v rest
      in
      let rec all_ne v = function
        | [] -> true
        | x :: rest ->
          let k = Value.compare_sql v x in
          k <> Value.unknown_cmp && k <> 0 && all_ne v rest
      in
      Some
        (fun rt _ ->
          let vals = vals rt in
          if negated then fun row -> all_ne row.(c) vals else fun row -> some_eq row.(c) vals)
    | _ -> None)
  | _ -> None

let rec cexpr_of ctx (e : Ast.expr) : cexpr =
  match e with
  | Ast.Lit v -> fun _ _ _ -> v
  | Ast.Param _ ->
    let read = param_read e in
    fun rt _ _ -> read rt
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
  | Ast.Cmp _ | Ast.And _ | Ast.Or _ | Ast.Not _ | Ast.Is_null _ | Ast.Is_not_null _
  | Ast.In_list _ | Ast.Not_in_list _ | Ast.In_select _ | Ast.Not_in_select _ | Ast.Exists _
  | Ast.Between _ | Ast.Like _ ->
    let ct = truth_of ctx e in
    fun rt g env -> Eval.truth_value (ct rt g env)
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
  | Ast.Agg (fn, arg) -> (
    let misuse () = Errors.semantic "aggregate function used outside a grouped query" in
    match ctx.cc_aggs with
    | None -> fun _ _ _ -> misuse ()
    | Some reg ->
      (* aggregates never nest: the argument is evaluated per row in
         non-grouped context *)
      let actx =
        { ctx with cc_aggs = None; cc_watches = (if reg.r_watch then ctx.cc_watches else []) }
      in
      let ag_col =
        match arg with
        | Some (Ast.Col { qualifier; column }) -> (
          match resolve_col { actx with cc_watches = [] } qualifier column with
          | H_at (0, b, c) -> Some (b, c)
          | H_at _ | H_err _ -> None)
        | Some _ | None -> None
      in
      let ag = { ag_fn = fn; ag_arg = Option.map (cexpr_of actx) arg; ag_col } in
      let i = reg.r_count in
      reg.r_aggs <- ag :: reg.r_aggs;
      reg.r_count <- i + 1;
      fun _ g _ -> (match g with Some accs -> finalize ag accs.(i) | None -> misuse ()))
  | Ast.Fn (name, args) ->
    let cargs = List.map (cexpr_of ctx) args in
    fun rt g env -> Functions.apply name (List.map (fun ce -> ce rt g env) cargs)
  | Ast.Case (branches, else_) ->
    let cbranches =
      List.map (fun (c, v) -> (truth_of ctx c, cexpr_of ctx v)) branches
    in
    let celse = Option.map (cexpr_of ctx) else_ in
    fun rt g env ->
      let rec go = function
        | [] -> (
          match celse with None -> Value.Null | Some ce -> ce rt g env)
        | (cc, cv) :: rest ->
          if Value.truth_holds (cc rt g env) then cv rt g env
          else go rest
      in
      go cbranches

(* The one predicate compiler: an expression to its truth value.  WHERE,
   HAVING, CASE conditions and the operands of AND, OR and NOT are
   evaluated through it, and the [cexpr_of] of a boolean-valued
   expression is its truth value as a shared [Value.Bool] constant or
   NULL.  Any other expression is evaluated to a value and read as a
   truth value, which raises unless it is a boolean or NULL. *)
and truth_of ctx (e : Ast.expr) : ctruth =
  match e with
  | Ast.Cmp (op, a, b) ->
    let ca = cexpr_of ctx a and cb = cexpr_of ctx b in
    fun rt g env ->
      let va = ca rt g env and vb = cb rt g env in
      cmp_truth op (Value.compare_sql va vb)
  | Ast.And (a, b) ->
    (* SQL three-valued AND/OR are not short-circuited: both operands
       are always evaluated, the right one first — the order decides
       which error an expression raising on both sides reports, and the
       reference evaluator keeps the same one *)
    let ta = truth_of ctx a and tb = truth_of ctx b in
    fun rt g env ->
      let vb = tb rt g env in
      Value.truth_and (ta rt g env) vb
  | Ast.Or (a, b) ->
    let ta = truth_of ctx a and tb = truth_of ctx b in
    fun rt g env ->
      let vb = tb rt g env in
      Value.truth_or (ta rt g env) vb
  | Ast.Not a ->
    let ta = truth_of ctx a in
    fun rt g env -> Value.truth_not (ta rt g env)
  | Ast.Is_null a ->
    let ca = cexpr_of ctx a in
    fun rt g env -> Value.truth_of_bool (Value.is_null (ca rt g env))
  | Ast.Is_not_null a ->
    let ca = cexpr_of ctx a in
    fun rt g env -> Value.truth_of_bool (not (Value.is_null (ca rt g env)))
  | Ast.In_list (a, es) -> (
    let ca = cexpr_of ctx a in
    match hoisted_values es with
    | Some vals ->
      fun rt g env ->
        let v = ca rt g env in
        Eval.value_truth (Eval.in_semantics v (vals rt))
    | None ->
      let ces = List.map (cexpr_of ctx) es in
      fun rt g env ->
        let v = ca rt g env in
        Eval.value_truth (Eval.in_semantics v (List.map (fun ce -> ce rt g env) ces)))
  | Ast.Not_in_list (a, es) -> (
    let ca = cexpr_of ctx a in
    let negate v vals = Value.truth_not (Eval.value_truth (Eval.in_semantics v vals)) in
    match hoisted_values es with
    | Some vals ->
      fun rt g env ->
        let v = ca rt g env in
        negate v (vals rt)
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
      Eval.value_truth (Eval.in_set_mem (set rt env) v)
  | Ast.Not_in_select (a, s) ->
    let ca = cexpr_of ctx a in
    let set = compile_subquery_in ctx s in
    fun rt g env ->
      let v = ca rt g env in
      Value.truth_not (Eval.value_truth (Eval.in_set_mem (set rt env) v))
  | Ast.Exists s ->
    let nonempty rel = rel.Eval.rows <> [] in
    let exists =
      compile_subquery_with ~exists:true ctx s
        ~memo:(fun m -> nonempty m.Eval.memo_rel)
        ~direct:nonempty
    in
    fun rt _g env -> Value.truth_of_bool (exists rt env)
  | Ast.Between (a, low, high) ->
    let ca = cexpr_of ctx a in
    let cl = cexpr_of ctx low and ch = cexpr_of ctx high in
    fun rt g env ->
      let v = ca rt g env in
      let vl = cl rt g env and vh = ch rt g env in
      (* [v >= low and v <= high]: the upper bound first, like AND's
         right operand *)
      let le = cmp_truth Ast.Le (Value.compare_sql v vh) in
      let ge = cmp_truth Ast.Ge (Value.compare_sql v vl) in
      Value.truth_and ge le
  | Ast.Like (a, p) ->
    let ca = cexpr_of ctx a and cp = cexpr_of ctx p in
    fun rt g env ->
      (* the pattern first, like AND's right operand *)
      let vp = cp rt g env in
      Value.like (ca rt g env) vp
  | _ ->
    let ce = cexpr_of ctx e in
    fun rt g env -> Eval.value_truth (ce rt g env)

(* Compile an embedded select and decide — statically — whether its
   evaluation can be memoized.  The watch registered here: if no
   compiled column reference anywhere in the subquery reaches an
   enclosing scope, the subquery cannot depend on the outer row and
   gets a memo slot: it runs once per [rt], at its first use.  Two
   uncorrelated copies of one physical select share a slot: neither
   reads an enclosing scope, so both compute the same relation.  An
   EXISTS runs the select only up to its first row when it may
   ([cs_exists]), so its slot is its own.  [memo] reads a memoized
   result, [direct] one evaluated for this (correlated) use only. *)
and compile_subquery_with :
      'a.
      ?exists:bool ->
      ctx ->
      Ast.select ->
      memo:(Eval.memo -> 'a) ->
      direct:(Eval.relation -> 'a) ->
      rt ->
      renv ->
      'a =
 fun ?(exists = false) ctx s ~memo ~direct ->
  let n0 = List.length ctx.cc_shape in
  let touched = ref false in
  let c = compile_select' ~exists { ctx with cc_watches = (n0, touched) :: ctx.cc_watches } s in
  let run = if exists then c.cs_exists else c.cs_run in
  if !touched then fun rt env -> direct (run rt env)
  else begin
    let new_slot () =
      let slot = !(ctx.cc_slots) in
      ctx.cc_slots := slot + 1;
      slot
    in
    let slot =
      if exists then new_slot ()
      else
        match List.assq_opt s !(ctx.cc_memo) with
        | Some slot -> slot
        | None ->
          let slot = new_slot () in
          ctx.cc_memo := (s, slot) :: !(ctx.cc_memo);
          slot
    in
    fun rt env ->
      match rt.rt_slots.(slot) with
      | Some m -> memo m
      | None ->
        let m = Eval.make_memo (run rt env) in
        rt.rt_slots.(slot) <- Some m;
        memo m
  end

and compile_subquery ctx s : rt -> renv -> Eval.relation =
  compile_subquery_with ctx s ~memo:(fun m -> m.Eval.memo_rel) ~direct:Fun.id

(* The value set of an IN subquery, hashed once per memo slot. *)
and compile_subquery_in ctx s : rt -> renv -> Eval.in_set =
  compile_subquery_with ctx s ~memo:Eval.memo_in_set ~direct:Eval.scan_set

and compile_select' ?exists ctx (s : Ast.select) : cselect =
  match s.Ast.compounds with
  | [] -> compile_plain ?exists ctx s
  | _ :: _ -> compile_compound ctx s

(* Compound (set) operations: compile each core, combine at run time,
   then the trailing ORDER BY keys — compiled against the head's
   static output names, bound alone. *)
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
        (cexpr_of (with_shape ctx [ [ ("", head.cs_cols) ] ]) e, dir))
      s.Ast.order_by
  in
  let limit = s.Ast.limit in
  let cs_run rt outer =
    let headr = head.cs_run rt outer in
    let combined =
      List.fold_left
        (fun rows (op, arm) -> Eval.combine_compound ~head:headr rows op (arm.cs_run rt outer))
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
    { Eval.rel_name = ""; cols = headr.Eval.cols; rows = Eval.take_limit limit ordered }
  in
  let cs_read rt = (cs_run rt [||], None) in
  let cs_plan rt = List.concat_map (fun c -> c.cs_plan rt) (head :: List.map snd arms) in
  { cs_cols = head.cs_cols; cs_run; cs_exists = cs_run; cs_read; cs_plan }

(* The probe planner's candidate scan over the compile-time frame and
   catalog, with each candidate's value side compiled;
   [run_probe_values] ranks and tries them at run time. *)
and compile_probe_plan ctx ~frame ~target (where : Ast.expr option) : cprobe option =
  let cols_of t =
    if Database.has_table ctx.cc_db t then
      Some (Table.col_names (Database.table ctx.cc_db t))
    else None
  in
  let compile_values = function
    | Eval.Pv_exprs es -> Eval.Pv_exprs (List.map (cexpr_of ctx) es)
    | Eval.Pv_select sub -> Eval.Pv_select (compile_subquery_in ctx sub)
    | Eval.Pv_bounds (lo, hi) ->
      let cbound = Option.map (fun (e, incl) -> (cexpr_of ctx e, incl)) in
      Eval.Pv_bounds (cbound lo, cbound hi)
    | Eval.Pv_like p -> Eval.Pv_like (cexpr_of ctx p)
  in
  match where with
  | None -> None
  | Some pred -> (
    match Eval.sargable_candidates ~frame ~target ~cols_of pred with
    | [] -> None
    | cands ->
      Some
        (List.map
           (fun cd -> { cd with Eval.sg_values = compile_values cd.Eval.sg_values })
           cands))

and compile_projections cctx local_shape (projs : Ast.proj list) : cprojs =
  let columns b cols =
    Array.to_list (Array.mapi (fun c cname -> (Some cname, Pop_col (b, c))) cols)
  in
  let ops =
    List.concat_map
      (function
        | Ast.Star -> List.concat (List.mapi columns (List.map snd local_shape))
        | Ast.Table_star t -> (
          let rec find b = function
            | [] -> None
            | (n, cols) :: rest ->
              if String.equal n t then Some (b, cols) else find (b + 1) rest
          in
          match find 0 local_shape with
          | None -> [ (None, Pop_err (Errors.Unknown_table t)) ]
          | Some (b, cols) -> columns b cols)
        | Ast.Proj (e, alias) ->
          let name =
            match alias with Some a -> a | None -> Eval.default_proj_name e
          in
          [ (Some name, Pop_expr (cexpr_of cctx e)) ])
      projs
  in
  {
    pr_names = Array.of_list (List.filter_map fst ops);
    pr_ops = Array.of_list (List.map snd ops);
  }

and compile_plain ?(exists = false) ?(victims = false) ctx (s : Ast.select) : cselect =
  let ctx = { ctx with cc_aggs = None } in
  (* ---- FROM items: static binding names, columns and schemas ---- *)
  let schema_of tbl_name =
    if Database.has_table ctx.cc_db tbl_name then
      let tbl = Database.table ctx.cc_db tbl_name in
      (Table.col_names tbl, Some (Table.schema tbl))
    else ([||], None)
  in
  let item_info ix (item : Ast.from_item) =
    match item.Ast.source with
    | Ast.Derived sub ->
      let c = compile_select' ctx sub in
      let name =
        match item.Ast.alias with
        | Some a -> a
        | None -> Printf.sprintf "$%d" ix
      in
      (name, c.cs_cols, None, `Derived c)
    | Ast.Base tbl_name ->
      let name = Option.value item.Ast.alias ~default:tbl_name in
      let cols, schema = schema_of tbl_name in
      (* an unknown table raises when phase 1 looks it up *)
      (name, cols, schema, `Base tbl_name)
    | Ast.Transition tt ->
      let base = Ast.trans_table_base tt in
      let name = Option.value item.Ast.alias ~default:base in
      let cols, schema = schema_of base in
      (name, cols, schema, `Transition tt)
  in
  let items = List.mapi item_info s.Ast.from in
  let items_a = Array.of_list items in
  let frame_shape = List.map (fun (n, cols, _, _) -> (n, cols)) items in
  let inner =
    {
      ctx with
      cc_shape = frame_shape :: ctx.cc_shape;
      cc_schemas = List.map (fun (_, _, schema, _) -> schema) items :: ctx.cc_schemas;
    }
  in
  (* a duplicate binding name is reported after phase-1 resolution:
     every source is resolved first *)
  let links = Eval.from_links frame_shape s.Ast.where in
  let probes =
    List.map
      (fun (name, _cols, _, kind) ->
        match kind with
        | `Base _ -> compile_probe_plan ctx ~frame:frame_shape ~target:name s.Ast.where
        | `Derived _ | `Transition _ -> None)
      items
  in
  (* ---- per-source row tests: when WHERE cannot raise, a conjunct
     comparing one source's column with values fixed for the run is
     tested on that source's stored row, before the row is bound; the
     other conjuncts are tested on the full frame ---- *)
  let tests = Array.make (Array.length items_a) [] in
  let residual =
    match s.Ast.where with
    | Some w when row_kind inner w <> None -> (
      let rec conjuncts = function Ast.And (a, b) -> conjuncts a @ conjuncts b | e -> [ e ] in
      let rec pushed e i =
        i < Array.length tests
        &&
        match row_test inner i e with
        | Some t ->
          tests.(i) <- { tc_conjunct = e; tc_test = t } :: tests.(i);
          true
        | None -> pushed e (i + 1)
      in
      match List.filter (fun e -> not (pushed e 0)) (conjuncts w) with
      | [] -> None
      | e :: es -> Some (List.fold_left (fun a b -> Ast.And (a, b)) e es))
    | where -> where
  in
  let deferred =
    Array.mapi
      (fun i (_, cols, _, kind) ->
        match kind, Result.fold ~ok:(fun ls -> List.nth ls i) ~error:(fun _ -> None) links with
        | `Base t, Some (l : Eval.join_link) when Database.has_table ctx.cc_db t ->
          Table.column_stats (Database.table ctx.cc_db t) cols.(l.Eval.jl_col) <> None
        | _ -> false)
      items_a
  in
  (* ---- clause compilation ---- *)
  let cwhere = Option.map (truth_of inner) residual in
  let grouped = Eval.select_contains_agg s in
  let cgroup_keys = List.map (cexpr_of inner) s.Ast.group_by in
  (* the aggregate calls of HAVING and the projections fold into one
     accumulator each per group *)
  let reg = { r_aggs = []; r_count = 0; r_watch = true } in
  let gctx = { inner with cc_aggs = Some reg } in
  let chaving = Option.map (truth_of gctx) s.Ast.having in
  let cprojs = compile_projections gctx frame_shape s.Ast.projections in
  let aggs = Array.of_list (List.rev reg.r_aggs) in
  let sr_cols = cprojs.pr_names in
  (* grouping with no GROUP BY key yields a single group even over zero
     rows, whose HAVING and projections see an environment whose local
     frame is empty — compile that variant
     against the outer scopes alone.  Its aggregates see no row, so
     their arguments, never evaluated, do not make the select
     correlated. *)
  let empty_group =
    if grouped && s.Ast.group_by = [] then
      let reg0 = { r_aggs = []; r_count = 0; r_watch = false } in
      let ctx0 = { ctx with cc_aggs = Some reg0 } in
      let chaving0 = Option.map (truth_of ctx0) s.Ast.having in
      let cprojs0 = compile_projections ctx0 [] s.Ast.projections in
      Some (chaving0, cprojs0, reg0.r_count)
    else None
  in
  let corder_nongrouped =
    if grouped then []
    else List.map (fun (e, dir) -> (cexpr_of inner e, dir)) s.Ast.order_by
  in
  let corder_grouped =
    if grouped then
      let sub = with_shape ctx [ [ ("", sr_cols) ] ] in
      List.map (fun (e, dir) -> (cexpr_of sub e, dir)) s.Ast.order_by
    else []
  in
  (* ---- early stop: a scan may end before its last row only when the
     rows it skips could not have raised an error — SQL evaluates WHERE
     and the projections over every row ---- *)
  let rows_cannot_raise () =
    (not grouped)
    && Option.fold ~none:true ~some:(fun e -> row_kind inner e <> None) s.Ast.where
    && List.for_all
         (function
           | Ast.Star -> true
           | Ast.Table_star t -> List.mem_assoc t frame_shape
           | Ast.Proj (e, _) -> row_kind inner e <> None)
         s.Ast.projections
  in
  let limit_stop =
    match s.Ast.limit with
    | Some n when s.Ast.order_by = [] && (not s.Ast.distinct) && rows_cannot_raise () -> n
    | Some _ | None -> max_int
  in
  let exists_stop = if exists && s.Ast.order_by = [] && rows_cannot_raise () then 1 else limit_stop in
  (* ---- output columns for the zero-row case: the runtime mirror of
     [Eval.static_output_columns] ---- *)
  let empty_sources =
    List.map2
      (fun (item : Ast.from_item) (name, cols, _, _) ->
        match item.Ast.source with
        | Ast.Derived sub ->
          let c0 = compile_select' (with_shape ctx []) sub in
          let name = match item.Ast.alias with Some a -> a | None -> "" in
          `Derived (name, c0)
        | Ast.Base _ | Ast.Transition _ -> `Static (name, cols))
      s.Ast.from items
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
  (* Base and transition sources are named and shaped as compiled (the
     rules engine and the statement cache recompile on any DDL): phase 1
     raised for a table the catalog lacks before the zero-row case is
     reached.  Only a derived source's zero-row names need a run. *)
  let static_empty_cols =
    let derived = List.exists (function `Derived _ -> true | `Static _ -> false) empty_sources in
    lazy (if derived then None else Some (names_over frame_shape))
  in
  let cols_when_empty rt =
    match Lazy.force static_empty_cols with
    | Some cols -> cols
    | None ->
      names_over
        (List.map
           (function
             | `Derived (name, c0) -> (name, (c0.cs_run rt [||]).Eval.cols)
             | `Static source -> source)
           empty_sources)
  in
  (* ---- the plan ---- *)
  let pl =
    {
      pl_kinds = Array.map (fun (_, _, _, kind) -> kind) items_a;
      pl_names = Array.map (fun (name, _, _, _) -> name) items_a;
      pl_cols = Array.map (fun (_, cols, _, _) -> cols) items_a;
      pl_links = Result.map Array.of_list links;
      pl_probes = Array.of_list probes;
      pl_tests = Array.map List.rev tests;
      pl_deferred = deferred;
      pl_where = cwhere;
      pl_consume = not victims;
      pl_grouped = grouped;
      pl_group_keys = Array.of_list cgroup_keys;
      pl_having = chaving;
      pl_projs = cprojs;
      pl_aggs = aggs;
      pl_empty_group = empty_group;
      pl_order = (if grouped then corder_grouped else corder_nongrouped);
      pl_distinct = s.Ast.distinct;
      pl_limit = s.Ast.limit;
      pl_read_set =
        s.Ast.group_by = [] && (match items_a with [| (_, _, _, `Base _) |] -> true | _ -> false);
      pl_cols_when_empty = cols_when_empty;
      pl_segments = [||];
    }
  in
  pl.pl_segments <- segments pl;
  let cs_run rt outer = fst (run_plain pl rt outer ~read:false ~stop_at:limit_stop) in
  let cs_exists rt outer = fst (run_plain pl rt outer ~read:false ~stop_at:exists_stop) in
  let cs_read rt = run_plain pl rt [||] ~read:true ~stop_at:max_int in
  let cs_plan rt = plan_plain pl rt [||] in
  { cs_cols = sr_cols; cs_run; cs_exists; cs_read; cs_plan }

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)

let compile_expr ?table ctx e =
  match table with
  | None -> cexpr_of (with_shape ctx []) e
  | Some t ->
    let tbl = Database.table ctx.cc_db t in
    let shaped = with_shape ctx [ [ (t, Table.col_names tbl) ] ] in
    cexpr_of { shaped with cc_schemas = [ [ Some (Table.schema tbl) ] ] } e

let eval_cexpr rt ce (env : renv) : Value.t = ce rt None env
let compile_select ctx s = compile_select' ctx s
let run_select rt cs = cs.cs_run rt [||]
let run_select_read rt cs = cs.cs_read rt
let plan_select rt cs = cs.cs_plan rt

let compile_victims ctx ~table where =
  compile_plain ~victims:true ctx
    {
      Ast.distinct = false;
      projections = [ Ast.Star ];
      from = [ { Ast.source = Ast.Base table; alias = None } ];
      where;
      group_by = [];
      having = None;
      order_by = [];
      limit = None;
      compounds = [];
    }

type cpred = { cp_truth : ctruth; cp_nslots : int }

let compile_predicate db e =
  let ctx = make db in
  let ct = truth_of ctx e in
  { cp_truth = ct; cp_nslots = !(ctx.cc_slots) }

let run_predicate ~db ?note resolve p =
  let rt = make_rt ~db ?note ~slots:p.cp_nslots resolve in
  Value.truth_holds (p.cp_truth rt None [||])

let eval_select ?note ?params resolve db s =
  (* an exception-safety injection site: one hit per public entry,
     subqueries recurse internally *)
  Fault.hit Fault.Query_eval;
  let ctx = make db in
  let cs = compile_select' ctx s in
  let rt = make_rt ~db ?note ?params ~slots:!(ctx.cc_slots) resolve in
  cs.cs_run rt [||]
