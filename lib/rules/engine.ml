(* The set-oriented rule execution engine: the semantics of Section 4
   and the algorithm of Figure 1.

   A transaction consists of one externally-generated operation block
   followed by rule processing just before commit.  Rule processing is
   one loop over a persistent [processing] state: [start] wakes the
   rules the external transition concerns (init-trans-info), and each
   [step] considers one of the [candidates] and, if its action runs,
   restarts the acting rule's transition information while composing
   every other woken rule's with the action's effect
   (modify-trans-info).  A rule's transition information is an
   [Effect.t]: effects carry the old rows data manipulation returns,
   so no earlier database state is kept for get-old-value.  The
   discrimination index decides which rules a transition wakes.  A
   rollback action restores the transaction's start state.

   Section 5.3's rule triggering points are supported: a transaction
   may interleave several externally-generated operation sequences with
   explicit [process_rules] calls; each call completes the current
   external transition, processes rules to quiescence, and starts a new
   transition.  [execute_block] packages the paper's default
   one-block-one-transaction behaviour. *)

open Relational
module Ast = Sqlf.Ast
module Dml = Sqlf.Dml
module Eval = Sqlf.Eval
module Compile = Sqlf.Compile
module Pretty = Sqlf.Pretty
module Str_map = Map.Make (String)
module Str_set = Set.Make (String)

type config = {
  max_steps : int;
      (* upper bound on rule-action executions per transaction; the
         run-time guard the paper suggests for divergent rule sets *)
  strategy : Selection.strategy;
  track_selects : bool; (* Section 5.1: maintain the S component *)
}

let default_config =
  {
    max_steps = 10_000;
    strategy = Selection.Creation_order;
    track_selects = false;
  }

type outcome = Committed | Rolled_back

type stats = {
  mutable transactions : int;
  mutable transitions : int; (* external + rule-generated *)
  mutable rule_firings : int; (* actions executed *)
  mutable conditions_evaluated : int;
  mutable rollbacks : int; (* rule-requested rollbacks and rollback_txn *)
  mutable aborts : int; (* error-driven transaction aborts *)
  mutable seq_scans : int; (* base-table accesses answered by scan *)
  mutable index_probes : int; (* base-table accesses answered by index probe *)
  mutable range_probes : int;
      (* base-table accesses answered by an ordered-index range probe *)
  mutable hash_join_builds : int; (* hash-join build sides constructed *)
  mutable hash_join_probes : int; (* probes into built join tables *)
  mutable candidates_considered : int;
      (* rules examined for triggering across candidate scans *)
  mutable rules_skipped : int;
      (* rules the discrimination index excluded from candidate scans *)
  mutable stmt_cache_hits : int;
      (* statement/prepared plans served without recompiling *)
  mutable stmt_cache_misses : int; (* first-time compilations *)
  mutable stmt_cache_invalidations : int;
      (* cached plans discarded because the DDL generation moved since
         compilation *)
}

(* Execution trace: what happened during rule processing, for the
   rule-programmer tooling the paper calls for in Section 6. *)
type event =
  | Ev_external of { effect_size : int }
      (* an external transition was completed and rules initialized *)
  | Ev_considered of { rule : string; condition_held : bool }
  | Ev_fired of { rule : string; effect_size : int }
  | Ev_rollback of { rule : string }
  | Ev_abort of { reason : string }
      (* an error aborted the transaction; its effects were undone *)
  | Ev_quiescent

(* Per-rule metrics (Section 6 tooling): how often a rule was selected
   for consideration, how often its action ran, how much wall time its
   condition evaluations and actions consumed, and the cumulative size
   of its actions' effects.  Counts are always maintained; wall times
   only when a clock hook is installed, so the default configuration
   pays no timing cost. *)
type metrics = {
  mutable m_considered : int;
  mutable m_fired : int;
  mutable m_cond_seconds : float;
  mutable m_action_seconds : float;
  mutable m_effect_tuples : int;
}

type rule_report_row = {
  rr_rule : string;
  rr_considered : int;
  rr_fired : int;
  rr_cond_seconds : float;
  rr_action_seconds : float;
  rr_effect_tuples : int;
}

(* What a commit hook sees: the state the transaction started from, the
   state it commits, and the composite net effect connecting them —
   rule firings already folded in.  The WAL layer derives its physical
   record from this; the engine itself has no durability knowledge. *)
type txn_log = {
  txl_before : Database.t;
  txl_after : Database.t;
  txl_effect : Effect.t;
}

(* The transaction-scoped state, split out of the engine record so the
   transition loop's session state is one value: [begin_txn] resets it,
   the abort path restores it in one place, and a server session fork
   starts with a fresh copy while sharing the catalog. *)
type txn_state = {
  mutable txn_start : Database.t option; (* Some while a transaction is open *)
  mutable pending : Effect.t;
      (* composite effect of the unprocessed external transition, with
         the old rows its rules' transition tables read *)
  mutable txn_effect : Effect.t;
      (* composite effect of the whole transaction so far — external
         blocks and rule firings alike — maintained incrementally so
         the commit hook (WAL logging) never diffs database states *)
  mutable considered0 : int Str_map.t;
      (* [last_considered] at transaction start, restored on abort so a
         faulted-then-retried transaction sees the same selection state
         as a fault-free run under every strategy *)
  mutable tables_read : Effect.Col_set.t;
      (* every base table a plan of the transaction scanned or probed,
         its failed statements' and rule processing's included *)
}

let fresh_txn () =
  {
    txn_start = None;
    pending = Effect.empty;
    txn_effect = Effect.empty;
    considered0 = Str_map.empty;
    tables_read = Effect.Col_set.empty;
  }

(* A prepared statement (PREPARE name AS <op>): parsed once, compiled
   lazily against the validity key, bound per EXECUTE by any engine
   running through the statement state that registered it. *)
type prepared = {
  pr_name : string;
  pr_op : Ast.op;
  pr_nparams : int;
  mutable pr_compiled : (int * Dml.cop) option; (* (validity key, plan) *)
}

(* A shape-memo entry: a statement of one shape (its token stream
   with typed literal slots), up to the values of its literals. *)
type shaped =
  | Shaped_stmt of Ast.statement (* BEGIN, COMMIT or ROLLBACK *)
  | Shaped_op of {
      so_op : Ast.op; (* the parameterized operation *)
      so_key : string; (* its plan-table key *)
      so_frame : Value.t array;
          (* the parameter frame it was recorded with; a parameter bound
             to no slot (a NAN or INFINITY literal) keeps its value *)
      so_slots : int array;
          (* per parameter, the statement's slot bound to it, or -1 *)
      so_pinned : (int * Value.t) array;
          (* every other slot with the value the plan was compiled
             with: projections, GROUP BY, HAVING, ORDER BY and LIMIT
             keep their literals (see [Ast.parameterize_op]), so a
             statement whose pinned slots differ is a different plan *)
    }

(* A statement state: the plan table, the shape memo in front of it,
   the prepared-statement registry, and the plan-table hits, misses and
   invalidations of every engine running through it. *)
type statements = {
  plans : (int * Dml.cop) Lru.t;
      (* parameterized statement (with its parameters' kinds) ->
         (validity key, compiled plan), whatever the literals *)
  shapes : shaped Lru.t;
      (* statement shape key -> what a statement of that shape is *)
  prepared : (string, prepared) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type t = {
  mutable db : Database.t;
  mutable ddl_gen : int;
      (* bumped by every DDL statement; rule plans are keyed on it so
         schema or index changes invalidate them *)
  mutable rules_rev : Rule.t list;
      (* newest first, so CREATE RULE is O(1): n creations build the
         catalog in O(n) instead of the O(n²) of appending *)
  mutable rules_by_name : Rule.t Str_map.t;
  mutable rule_count : int;
  mutable index : Rule_index.t;
      (* discrimination index over the active rules, maintained
         incrementally on rule DDL; [live_index] rebuilds it when its
         generation disagrees with [ddl_gen] (table/index DDL) *)
  mutable priorities : Priority.t;
  txn : txn_state;
  mutable commit_hook : (txn_log -> unit) option;
  mutable seq : int;
  clock : Selection.clock;
  mutable last_considered : int Str_map.t;
  config : config;
  procedures : Procedures.registry;
  stats : stats;
  note : Eval.note;
      (* counts every scan-vs-probe decision the evaluator takes in
         [stats] and adds the table read to [txn.tables_read] *)
  mutable tracing : bool;
  mutable trace : (float option * event) list;
      (* newest first while accumulating; stamped with the wall clock
         when one is installed *)
  mutable wall_clock : (unit -> float) option;
      (* monotonic-seconds hook for trace timestamps and rule timing;
         [None] (the default) disables all timing *)
  rule_metrics : (string, metrics) Hashtbl.t;
  stmts : statements;
}

let log_src = Logs.Src.create "sopr.engine" ~doc:"rule engine execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

let fresh_stats () =
  {
    transactions = 0;
    transitions = 0;
    rule_firings = 0;
    conditions_evaluated = 0;
    rollbacks = 0;
    aborts = 0;
    seq_scans = 0;
    index_probes = 0;
    range_probes = 0;
    hash_join_builds = 0;
    hash_join_probes = 0;
    candidates_considered = 0;
    rules_skipped = 0;
    stmt_cache_hits = 0;
    stmt_cache_misses = 0;
    stmt_cache_invalidations = 0;
  }

(* Entries kept by the plan table and by the shape memo, each evicting
   its least recently used entry beyond this. *)
let stmt_cache_max = 512

let new_statements () =
  {
    plans = Lru.create stmt_cache_max;
    shapes = Lru.create stmt_cache_max;
    prepared = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

(* The engine's note.  A table already read leaves the set physically
   unchanged, so a read allocates only the first time its table is
   heard in a transaction. *)
let engine_note stats txn : Eval.note =
  let read table = txn.tables_read <- Effect.Col_set.add table txn.tables_read in
  fun decision table ->
    match decision with
    | `Seq_scan ->
      stats.seq_scans <- stats.seq_scans + 1;
      read table
    | `Index_probe ->
      stats.index_probes <- stats.index_probes + 1;
      read table
    | `Range_probe ->
      stats.range_probes <- stats.range_probes + 1;
      read table
    | `Hash_join_build -> stats.hash_join_builds <- stats.hash_join_builds + 1
    | `Hash_join_probe -> stats.hash_join_probes <- stats.hash_join_probes + 1

let create ?(config = default_config) db =
  let stats = fresh_stats () in
  let txn = fresh_txn () in
  {
    db;
    ddl_gen = 0;
    rules_rev = [];
    rules_by_name = Str_map.empty;
    rule_count = 0;
    index = Rule_index.create ~generation:0 ();
    priorities = Priority.empty;
    txn;
    commit_hook = None;
    seq = 0;
    clock = Selection.make_clock ();
    last_considered = Str_map.empty;
    config;
    procedures = Procedures.create ();
    stats;
    note = engine_note stats txn;
    tracing = false;
    trace = [];
    wall_clock = None;
    rule_metrics = Hashtbl.create 16;
    stmts = new_statements ();
  }

(* A session engine for the concurrent server: an independent
   transaction context over the same committed state.  The rule catalog
   (rule values, priorities, discrimination index), procedures, config
   and selection clock are shared — persistent maps make the sharing
   safe for the catalog fields, and the mutable Rule.t plan caches are
   write-once-per-generation (a race merely re-plans).
   Transaction state, stats, metrics and traces start fresh; the
   statement state is the caller's.  Forks must not execute DDL (rule
   DDL would mutate the *shared* discrimination index), so the server
   keeps DDL on the parent and forks only committed snapshots. *)
let fork t stmts =
  if Option.is_some t.txn.txn_start then
    Errors.raise_error
      (Errors.Transaction_error "cannot fork inside a transaction");
  let stats = fresh_stats () in
  let txn = fresh_txn () in
  {
    db = t.db;
    ddl_gen = t.ddl_gen;
    rules_rev = t.rules_rev;
    rules_by_name = t.rules_by_name;
    rule_count = t.rule_count;
    index = t.index;
    priorities = t.priorities;
    txn;
    commit_hook = None;
    seq = t.seq;
    clock = t.clock;
    last_considered = t.last_considered;
    config = t.config;
    procedures = t.procedures;
    stats;
    note = engine_note stats txn;
    tracing = false;
    trace = [];
    wall_clock = None;
    rule_metrics = Hashtbl.create 16;
    stmts;
  }

let statements t = t.stmts
let statement_counts s = (s.hits, s.misses, s.invalidations)
let database t = t.db
let config t = t.config
let stats t = t.stats
let set_commit_hook t hook = t.commit_hook <- hook

(* {2 Plans}

   Every operation the engine runs — a statement, a prepared statement,
   a rule action — is compiled to a [Dml.cop], and a rule condition to
   a compiled predicate.  Everything downstream runs plans. *)

let plan_condition t cond : Rule.condition =
  let cp = Compile.compile_predicate t.db cond in
  fun ~db ~note resolve -> Compile.run_predicate ~db ~note resolve cp

(* Rule plans are keyed on the DDL generation: a plan is reusable only
   against the catalog it was built for. *)

(* Fetch (or build) the plan of a rule's condition. *)
let condition_plan t (rule : Rule.t) cond =
  let key = t.ddl_gen in
  let pl = rule.Rule.plans in
  match pl.Rule.cond_plan with
  | Some (k, cp) when k = key -> cp
  | _ ->
    let cp = plan_condition t cond in
    pl.Rule.cond_plan <- Some (key, cp);
    cp

(* Fetch (or build) the plans of a rule's action block, so a cascade's
   n-th firing re-enters them instead of re-planning. *)
let action_plan t (rule : Rule.t) ops =
  let key = t.ddl_gen in
  let pl = rule.Rule.plans in
  match pl.Rule.action_plan with
  | Some (k, cops) when k = key -> cops
  | _ ->
    let cops = List.map (Dml.compile_op t.db) ops in
    pl.Rule.action_plan <- Some (key, cops);
    cops

(* {2 Statement cache and prepared statements}

   A statement state's plan table, shape memo and prepared registry,
   as the interface's plans section describes them.  Every way to a
   plan — [cached_cop], the shape memo's [bound_cop] and EXECUTE's
   [prepared_cop] — goes through [reuse_plan], so all count the same
   hits, misses and invalidations. *)

(* Serve [op]'s plan from its validity-keyed slot, whose current
   entry is [found]: a plan built for the current DDL generation is a
   hit; a stale one counts as an invalidation and is re-planned and
   [store]d; an empty slot is a miss. *)
let reuse_plan ?param_kinds t op found ~store =
  let st = t.stats and s = t.stmts in
  let key = t.ddl_gen in
  match found with
  | Some (k, cop) when k = key ->
    st.stmt_cache_hits <- st.stmt_cache_hits + 1;
    s.hits <- s.hits + 1;
    cop
  | _ ->
    if Option.is_some found then begin
      st.stmt_cache_invalidations <- st.stmt_cache_invalidations + 1;
      s.invalidations <- s.invalidations + 1
    end
    else begin
      st.stmt_cache_misses <- st.stmt_cache_misses + 1;
      s.misses <- s.misses + 1
    end;
    let cop = Dml.compile_op ?param_kinds t.db op in
    store (key, cop);
    cop

(* The plan-table key of a parameterized operation bound to [args]. *)
let plan_key op args =
  let kinds =
    String.init (Array.length args) (fun i ->
        match Compile.lit_kind args.(i) with
        | `Num -> 'n'
        | `Str -> 's'
        | `Bool -> 'b'
        | `Null -> 'z')
  in
  kinds ^ "|" ^ Pretty.op_str op

(* The compiled plan of the parameterized [op] under [key]. *)
let table_plan t key op args =
  reuse_plan
    ~param_kinds:(Array.map Compile.lit_kind args)
    t op (Lru.find t.stmts.plans key)
    ~store:(Lru.add t.stmts.plans key)

let cached_cop t (op : Ast.op) =
  let op, args = Ast.parameterize_op op in
  let cop = table_plan t (plan_key op args) op args in
  if Array.length args = 0 then cop else Dml.bind cop args

(* Non-mutating probe for EXPLAIN: what would executing this statement
   find in the cache right now? *)
let stmt_cache_lookup t (op : Ast.op) =
  let op, args = Ast.parameterize_op op in
  match Lru.peek t.stmts.plans (plan_key op args) with
  | Some (k, _) when k = t.ddl_gen -> `Hit
  | Some _ -> `Stale
  | None -> `Miss

let stmt_cache_size s = Lru.length s.plans

(* Equal literals, floats bit for bit (0.0 and -0.0 print apart). *)
let same_literal a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int x, Value.Int y -> x = y
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Null, Value.Null -> true
  | (Value.Float _ | Value.Int _ | Value.Str _ | Value.Bool _ | Value.Null), _ ->
    false

(* The memo entry for [seg]'s shape, if its pinned slots hold the
   values [literals] gives them. *)
let find_shape s (seg : Sqlf.Lexer.segment) literals =
  let pinned_match (j, v) = same_literal literals.(seg.first_slot + j) v in
  match Lru.find s.shapes seg.key with
  | Some (Shaped_op { so_pinned; _ }) when not (Array.for_all pinned_match so_pinned) ->
    None
  | found -> found

let record_shape s (seg : Sqlf.Lexer.segment) literals stmt lits =
  let entry =
    match (stmt : Ast.statement) with
    | Ast.Stmt_begin | Ast.Stmt_commit | Ast.Stmt_rollback -> Some (Shaped_stmt stmt)
    | Ast.Stmt_op op ->
      let op, nodes, frame = Ast.parameterize_nodes op in
      let slots =
        Array.map
          (fun node ->
            match List.assq_opt node lits with
            | Some j -> j - seg.first_slot
            | None -> -1)
          nodes
      in
      let pinned =
        List.init seg.nslots Fun.id
        |> List.filter (fun j -> not (Array.mem j slots))
        |> List.map (fun j -> (j, literals.(seg.first_slot + j)))
        |> Array.of_list
      in
      Some
        (Shaped_op
           {
             so_op = op;
             so_key = plan_key op frame;
             so_frame = frame;
             so_slots = slots;
             so_pinned = pinned;
           })
    | _ -> None
  in
  Option.iter (Lru.add s.shapes seg.key) entry;
  entry

(* A memoized operation bound to one statement's literals. *)
type bound = { bd_op : Ast.op; bd_params : Value.t array; bd_key : string }

let bind_shape shaped (seg : Sqlf.Lexer.segment) literals =
  match shaped with
  | Shaped_stmt stmt -> `Statement stmt
  | Shaped_op { so_op; so_key; so_frame; so_slots; _ } ->
    let params = Array.copy so_frame in
    Array.iteri
      (fun i j -> if j >= 0 then params.(i) <- literals.(seg.first_slot + j))
      so_slots;
    `Op { bd_op = so_op; bd_params = params; bd_key = so_key }

let bound_cop t b = table_plan t b.bd_key b.bd_op b.bd_params

let prepare s ~name (op : Ast.op) =
  if Hashtbl.mem s.prepared name then
    Errors.raise_error (Errors.Duplicate_prepared name);
  Hashtbl.replace s.prepared name
    {
      pr_name = name;
      pr_op = op;
      pr_nparams = Ast.param_count_op op;
      pr_compiled = None;
    }

let find_prepared s name =
  match Hashtbl.find_opt s.prepared name with
  | Some p -> p
  | None -> Errors.raise_error (Errors.Unknown_prepared name)

let deallocate s = function
  | Some name ->
    if not (Hashtbl.mem s.prepared name) then
      Errors.raise_error (Errors.Unknown_prepared name);
    Hashtbl.remove s.prepared name
  | None -> Hashtbl.reset s.prepared

let prepared_names s =
  Hashtbl.fold (fun name _ acc -> name :: acc) s.prepared []
  |> List.sort String.compare

let prepared_nparams (p : prepared) = p.pr_nparams
let prepared_op (p : prepared) = p.pr_op

(* Fetch (or build) a prepared statement's plan — same validity
   discipline as [cached_cop], same counters. *)
let prepared_cop t (p : prepared) =
  reuse_plan t p.pr_op p.pr_compiled ~store:(fun entry ->
      p.pr_compiled <- Some entry)

let bind_params (p : prepared) (args : Value.t list) =
  let got = List.length args in
  if got <> p.pr_nparams then
    Errors.raise_error
      (Errors.Prepared_arity
         { name = p.pr_name; expected = p.pr_nparams; got });
  Array.of_list args

let in_transaction t = Option.is_some t.txn.txn_start
let tables_read t = t.txn.tables_read
let set_tracing t on = t.tracing <- on
let set_clock t clock = t.wall_clock <- clock
let has_clock t = Option.is_some t.wall_clock
let trace t = List.rev_map snd t.trace
let timed_trace t = List.rev t.trace

let record t ev =
  if t.tracing then
    let stamp =
      match t.wall_clock with None -> None | Some now -> Some (now ())
    in
    t.trace <- (stamp, ev) :: t.trace

let metrics_for t name =
  match Hashtbl.find_opt t.rule_metrics name with
  | Some m -> m
  | None ->
    let m =
      {
        m_considered = 0;
        m_fired = 0;
        m_cond_seconds = 0.0;
        m_action_seconds = 0.0;
        m_effect_tuples = 0;
      }
    in
    Hashtbl.add t.rule_metrics name m;
    m

(* Time a thunk against the rule clock, charging the elapsed wall time
   through [charge] even when the thunk raises (a failing condition or
   action still consumed the time).  Without a clock this is just the
   call. *)
let timed t charge f =
  match t.wall_clock with
  | None -> f ()
  | Some now -> (
    let t0 = now () in
    match f () with
    | v ->
      charge (now () -. t0);
      v
    | exception e ->
      charge (now () -. t0);
      raise e)

let pp_event ppf = function
  | Ev_external { effect_size } ->
    Fmt.pf ppf "external transition (%d tuples affected)" effect_size
  | Ev_considered { rule; condition_held } ->
    Fmt.pf ppf "considered %s: condition %s" rule
      (if condition_held then "held" else "false")
  | Ev_fired { rule; effect_size } ->
    Fmt.pf ppf "fired %s (%d tuples affected)" rule effect_size
  | Ev_rollback { rule } -> Fmt.pf ppf "rollback by %s" rule
  | Ev_abort { reason } -> Fmt.pf ppf "transaction aborted: %s" reason
  | Ev_quiescent -> Fmt.string ppf "quiescent"

(* Report rows in rule-creation order, so the report is stable across
   runs regardless of hash-table iteration order.  Rules dropped since
   their metrics accumulated are omitted (drop_rule clears them). *)
let rule_report t =
  List.filter_map
    (fun r ->
      match Hashtbl.find_opt t.rule_metrics r.Rule.name with
      | None -> None
      | Some m ->
        Some
          {
            rr_rule = r.Rule.name;
            rr_considered = m.m_considered;
            rr_fired = m.m_fired;
            rr_cond_seconds = m.m_cond_seconds;
            rr_action_seconds = m.m_action_seconds;
            rr_effect_tuples = m.m_effect_tuples;
          })
    (List.rev t.rules_rev)

(* JSONL trace export: one JSON object per event, oldest first.  The
   encoder is hand-rolled (the toolchain has no JSON library) but emits
   standards-compliant output: strings are escaped, the timestamp field
   is omitted entirely when no clock is installed so traces taken with
   timing off are byte-deterministic. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let trace_jsonl t =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i (stamp, ev) ->
      Buffer.add_string buf (Printf.sprintf "{\"seq\":%d" i);
      (match stamp with
      | None -> ()
      | Some ts -> Buffer.add_string buf (Printf.sprintf ",\"t\":%.6f" ts));
      let field name value =
        Buffer.add_string buf (Printf.sprintf ",%s:%s" (json_string name) value)
      in
      (match ev with
      | Ev_external { effect_size } ->
        field "event" (json_string "external");
        field "effect_size" (string_of_int effect_size)
      | Ev_considered { rule; condition_held } ->
        field "event" (json_string "considered");
        field "rule" (json_string rule);
        field "condition_held" (string_of_bool condition_held)
      | Ev_fired { rule; effect_size } ->
        field "event" (json_string "fired");
        field "rule" (json_string rule);
        field "effect_size" (string_of_int effect_size)
      | Ev_rollback { rule } ->
        field "event" (json_string "rollback");
        field "rule" (json_string rule)
      | Ev_abort { reason } ->
        field "event" (json_string "abort");
        field "reason" (json_string reason)
      | Ev_quiescent -> field "event" (json_string "quiescent"));
      Buffer.add_string buf "}\n")
    (timed_trace t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Catalog operations                                                  *)

let find_rule t name = Str_map.find_opt name t.rules_by_name

let get_rule t name =
  match find_rule t name with
  | Some r -> r
  | None -> Errors.raise_error (Errors.Unknown_rule name)

let rules t = List.rev t.rules_rev
let rules_rev t = t.rules_rev
let priorities t = t.priorities

(* The discrimination index, rebuilt from the catalog when table/index
   DDL has bumped [ddl_gen] past the generation it was built against.
   Rule DDL maintains it incrementally without touching the
   generation. *)
let live_index t =
  if Rule_index.generation t.index <> t.ddl_gen then
    t.index <-
      Rule_index.rebuild ~generation:t.ddl_gen
        (List.filter (fun r -> r.Rule.active) t.rules_rev);
  t.index

(* Rules defined mid-transaction start with empty transition
   information: they have seen no transition yet. *)
let create_rule t def =
  if Option.is_some (find_rule t def.Ast.rule_name) then
    Errors.raise_error (Errors.Duplicate_rule def.Ast.rule_name);
  (* validate table/column references in the transition predicates *)
  List.iter
    (fun pred ->
      let check_col table col =
        let schema = Database.schema t.db table in
        match col with
        | None -> ()
        | Some c -> ignore (Schema.column_index schema c)
      in
      match pred with
      | Ast.Tp_inserted table | Ast.Tp_deleted table -> check_col table None
      | Ast.Tp_updated (table, col) | Ast.Tp_selected (table, col) ->
        check_col table col)
    def.Ast.trans_preds;
  t.seq <- t.seq + 1;
  let rule = Rule.create ~seq:t.seq def in
  t.rules_rev <- rule :: t.rules_rev;
  t.rules_by_name <- Str_map.add rule.Rule.name rule t.rules_by_name;
  t.rule_count <- t.rule_count + 1;
  Rule_index.add (live_index t) rule;
  rule

(* Dropping a rule must clear every per-rule map keyed on its name —
   including the selection-recency bookkeeping: a leaked
   [last_considered] entry would make a later rule recreated under the
   same name inherit the old rule's recency tick and be mis-ranked by
   the recency-based strategies.  [considered0] is the abort-restore
   snapshot of the same map, so it is cleared too (a drop between a
   snapshot and an abort must not resurrect the stale tick). *)
let drop_rule t name =
  let rule = get_rule t name in
  if rule.Rule.active then Rule_index.remove (live_index t) rule;
  t.rules_rev <-
    List.filter (fun r -> not (String.equal r.Rule.name name)) t.rules_rev;
  t.rules_by_name <- Str_map.remove name t.rules_by_name;
  t.rule_count <- t.rule_count - 1;
  t.priorities <- Priority.remove_rule t.priorities name;
  t.last_considered <- Str_map.remove name t.last_considered;
  t.txn.considered0 <- Str_map.remove name t.txn.considered0;
  Hashtbl.remove t.rule_metrics name

let set_rule_active t name active =
  let rule = get_rule t name in
  if rule.Rule.active <> active then begin
    let idx = live_index t in
    rule.Rule.active <- active;
    (* only active rules are registered in the discrimination index *)
    if active then Rule_index.add idx rule else Rule_index.remove idx rule
  end

let declare_priority t ~high ~low =
  ignore (get_rule t high);
  ignore (get_rule t low);
  t.priorities <- Priority.declare t.priorities ~high ~low

let register_procedure t name fn = Procedures.register t.procedures name fn

(* ------------------------------------------------------------------ *)
(* Transactions and external operations                                *)

let begin_txn t =
  if in_transaction t then
    Errors.raise_error (Errors.Transaction_error "transaction already open");
  t.txn.txn_start <- Some t.db;
  t.txn.pending <- Effect.empty;
  t.txn.txn_effect <- Effect.empty;
  t.txn.considered0 <- t.last_considered;
  t.txn.tables_read <- Effect.Col_set.empty;
  t.trace <- [];
  t.stats.transactions <- t.stats.transactions + 1

let require_txn t =
  if not (in_transaction t) then
    Errors.raise_error (Errors.Transaction_error "no open transaction")

(* Execute a block of planned operations against the current state,
   returning the composite effect and any select results.  Each
   operation sees the state produced by its predecessors; transition
   tables resolve through [resolver_of], which differs between external
   blocks (no transition tables) and rule actions.  [params] is the
   EXECUTE parameter frame (absent for rule actions). *)
let run_cops t ~resolver_of ?params (cops : Dml.cop list) =
  List.fold_left
    (fun (eff, results) cop ->
      let r =
        Dml.exec_cop ~track_selects:t.config.track_selects ~note:t.note ?params
          (resolver_of t.db) t.db cop
      in
      t.db <- r.Dml.db;
      let eff = Effect.compose eff (Effect.of_affected r.Dml.affected) in
      let results =
        match r.Dml.result with Some rel -> rel :: results | None -> results
      in
      (eff, results))
    (Effect.empty, []) cops
  |> fun (eff, results) -> (eff, List.rev results)

(* Evaluate a select plan against the current state, untracked, with
   transition tables resolved through [resolve].  The caller guarantees
   the operation is a select. *)
let run_select t ?params resolve (cop : Dml.cop) =
  let r =
    Dml.exec_cop ~track_selects:false ~note:t.note ?params resolve t.db cop
  in
  match r.Dml.result with
  | Some rel -> rel
  | None -> assert false (* select operations always produce a relation *)

(* Execute externally-generated operations inside the open transaction
   (they extend the current external transition).  Section 2.1 requires
   operation blocks to execute indivisibly, so a failing operation must
   not leave its predecessors' mutations behind: the whole block's
   effects are applied and recorded in [pending], or none are. *)
let submit_cops t ?params (cops : Dml.cop list) =
  require_txn t;
  let db0 = t.db in
  match run_cops t ~resolver_of:(fun _ -> Eval.no_transitions) ?params cops with
  | eff, results ->
    t.txn.pending <- Effect.compose t.txn.pending eff;
    t.txn.txn_effect <- Effect.compose t.txn.txn_effect eff;
    results
  | exception e ->
    t.db <- db0;
    raise e

let submit_ops t ops = submit_cops t (List.map (Dml.compile_op t.db) ops)

(* ------------------------------------------------------------------ *)
(* Rule processing (Figure 1)                                          *)

(* The state of Figure 1's loop between two rule considerations.  It
   is a persistent value: [step] returns a new one and leaves the old
   one valid, so an explorer of selection orders branches by keeping
   it. *)
type processing = {
  p_db : Database.t; (* the current state *)
  p_woken : (Rule.t * Effect.t) Str_map.t;
      (* every rule woken so far, with its transition information; a
         rule never woken has empty information and cannot be
         triggered *)
  p_shared : Effect.t;
      (* the composite effect of the whole transition since the
         external one began: a rule woken later starts from it *)
  p_considered : Str_set.t; (* considered in the current state *)
  p_steps : int; (* actions executed *)
}

type step = Next of processing | Rollback

exception Rolled_back_exc

(* Restore the exact transaction-start state and close the transaction:
   database, pending effect (and with it the old rows a later
   transition's rules would read), and the selection bookkeeping a
   retry must not see. *)
let restore_txn_start t =
  (match t.txn.txn_start with Some db0 -> t.db <- db0 | None -> assert false);
  t.txn.txn_start <- None;
  t.txn.pending <- Effect.empty;
  t.txn.txn_effect <- Effect.empty;
  t.last_considered <- t.txn.considered0

let rollback_to_txn_start t =
  restore_txn_start t;
  t.stats.rollbacks <- t.stats.rollbacks + 1

(* An error aborted the transaction: record it (observably — the trace
   survives until the next [begin_txn] and the abort count is a
   statistic of its own), then restore the start state. *)
let abort_txn t exn =
  let reason =
    match exn with Errors.Error e -> Errors.to_string e | e -> Printexc.to_string e
  in
  record t (Ev_abort { reason });
  Log.info (fun m -> m "transaction aborted: %s" reason);
  restore_txn_start t;
  t.stats.aborts <- t.stats.aborts + 1

(* The plans of the operation block denoted by a rule's action: either
   its literal block or the block computed by an external procedure
   (Section 5.2). *)
let action_block t (rule : Rule.t) resolve =
  match Rule.action rule with
  | Ast.Act_rollback -> assert false
  | Ast.Act_block ops -> action_plan t rule ops
  | Ast.Act_call name ->
    Fault.hit Fault.Procedure_call;
    let fn = Procedures.find t.procedures name in
    let query s = run_select t resolve (Dml.compile_op t.db (Ast.Select_op s)) in
    List.map (Dml.compile_op t.db) (fn { Procedures.query; rule_name = rule.Rule.name })

(* Fold [f] over the rules effect [e] wakes: the rules the
   discrimination index registers on a (table, op, column) key [e]
   touches.  A rule [e] does not wake cannot be triggered by it. *)
let wake t e f acc =
  Str_set.fold
    (fun name acc ->
      match find_rule t name with Some r -> f r acc | None -> acc)
    (Rule_index.matching (live_index t) e)
    acc

(* [e] restricted to the tables whose information rule [r] keeps: its
   own (the Section 4.3 pruning, "we need only save the subset of that
   information relevant to the particular rule").  [None] means none of
   the rule's tables is touched; restriction visits only [e]'s
   tables. *)
let scoped (r : Rule.t) e =
  let e = Effect.restrict e (Rule.relevant r) in
  if Effect.is_empty e then None else Some e

(* Wake [r] unless it is awake already: it starts from the composite
   [shared], restricted to its scope — the information stepwise
   composition from the external transition would have built for it,
   since restriction commutes with composition. *)
let admit shared (r : Rule.t) woken =
  if Str_map.mem r.Rule.name woken then woken
  else
    let info = Option.value ~default:Effect.empty (scoped r shared) in
    Str_map.add r.Rule.name (r, info) woken

(* Figure 1's init-trans-info: complete the external transition and
   wake the rules its effect concerns.  The pending effect already
   carries the old rows, so it is the transition information. *)
let start t =
  require_txn t;
  let pending = t.txn.pending in
  t.stats.transitions <- t.stats.transitions + 1;
  if t.tracing then
    record t (Ev_external { effect_size = Effect.cardinality pending });
  Log.debug (fun m ->
      m "processing rules for external transition %a" Effect.pp pending);
  t.txn.pending <- Effect.empty;
  {
    p_db = t.db;
    p_woken = wake t pending (admit pending) Str_map.empty;
    p_shared = pending;
    p_considered = Str_set.empty;
    p_steps = 0;
  }

(* The triggered rules not yet considered in the current state. *)
let candidates p =
  Str_map.fold
    (fun name (r, info) acc ->
      if
        r.Rule.active
        && (not (Str_set.mem name p.p_considered))
        && Effect.satisfies_any info (Rule.trans_preds r)
      then r :: acc
      else acc)
    p.p_woken []

(* Consider [rule], one of [candidates p]: evaluate its condition and,
   if it holds, run its action and apply Figure 1's modify-trans-info —
   the acting rule's information restarts from its own transition,
   every other woken rule's is composed with it, and rules the
   action's effect wakes start from the composite. *)
let step t p (rule : Rule.t) =
  t.db <- p.p_db;
  let name = rule.Rule.name in
  let p = { p with p_considered = Str_set.add name p.p_considered } in
  t.last_considered <-
    Str_map.add name (Selection.tick t.clock) t.last_considered;
  let info = snd (Str_map.find name p.p_woken) in
  let resolve = Transition_tables.resolver info t.db in
  t.stats.conditions_evaluated <- t.stats.conditions_evaluated + 1;
  let m = metrics_for t name in
  m.m_considered <- m.m_considered + 1;
  let cond_holds =
    match Rule.condition rule with
    | None -> true
    | Some cond ->
      Fault.hit Fault.Rule_condition;
      timed t
        (fun dt -> m.m_cond_seconds <- m.m_cond_seconds +. dt)
        (fun () -> condition_plan t rule cond ~db:t.db ~note:t.note resolve)
  in
  record t (Ev_considered { rule = name; condition_held = cond_holds });
  Log.debug (fun m -> m "considered %s: condition %b" name cond_holds);
  if not cond_holds then Next p
  else if Rule.is_rollback rule then begin
    record t (Ev_rollback { rule = name });
    Log.info (fun m -> m "rule %s requested rollback" name);
    Rollback
  end
  else begin
    let steps = p.p_steps + 1 in
    if steps > t.config.max_steps then
      (* [steps] is the true count of attempted action executions (the
         limit check counts the action it is about to run); the abort
         wrapper in [process_rules] restores the transaction-start
         state *)
      Errors.raise_error (Errors.Rule_limit_exceeded { rule = name; steps });
    t.stats.rule_firings <- t.stats.rule_firings + 1;
    t.stats.transitions <- t.stats.transitions + 1;
    Fault.hit Fault.Rule_action;
    (* the action's transition tables are based on the acting rule's
       information and the evolving current state *)
    let eff, _ =
      timed t
        (fun dt -> m.m_action_seconds <- m.m_action_seconds +. dt)
        (fun () ->
          run_cops t
            ~resolver_of:(fun db -> Transition_tables.resolver info db)
            (action_block t rule resolve))
    in
    t.txn.txn_effect <- Effect.compose t.txn.txn_effect eff;
    let size = Effect.cardinality eff in
    m.m_fired <- m.m_fired + 1;
    m.m_effect_tuples <- m.m_effect_tuples + size;
    record t (Ev_fired { rule = name; effect_size = size });
    Log.debug (fun m -> m "fired %s with effect %a" name Effect.pp eff);
    let shared = Effect.compose p.p_shared eff in
    let woken =
      Str_map.mapi
        (fun n ((r, info) as entry) ->
          match scoped r eff with
          | Some e when String.equal n name -> (r, e)
          | None when String.equal n name -> (r, Effect.empty)
          | Some e -> (r, Effect.compose info e)
          | None -> entry)
        p.p_woken
    in
    Next
      {
        p_db = t.db;
        p_woken = wake t eff (admit shared) woken;
        p_shared = shared;
        (* a new state: every triggered rule becomes considerable again *)
        p_considered = Str_set.empty;
        p_steps = steps;
      }
  end

(* Figure 1: select an eligible rule by the configured strategy and
   consider it, until no candidate remains (quiescence) or a rollback
   action fires. *)
let process_rules_exn t =
  let last_considered name =
    Option.value (Str_map.find_opt name t.last_considered) ~default:0
  in
  let rec loop p =
    let examined = Str_map.cardinal p.p_woken in
    t.stats.candidates_considered <- t.stats.candidates_considered + examined;
    t.stats.rules_skipped <- t.stats.rules_skipped + (t.rule_count - examined);
    match
      Selection.choose t.config.strategy t.priorities ~last_considered
        (candidates p)
    with
    | None -> record t Ev_quiescent
    | Some rule -> (
      match step t p rule with
      | Next p -> loop p
      | Rollback ->
        rollback_to_txn_start t;
        raise Rolled_back_exc)
  in
  loop (start t)

(* Section 5.3 rule triggering point: complete the current external
   transition, process rules, and (on success) begin a new transition
   within the same transaction.  Any error raised during rule
   processing — a failing condition or action, a divergent rule set
   hitting the step limit, an unknown procedure — aborts the whole
   transaction: the database, pending effect and transition
   information are restored to the transaction-start state before the
   error is re-raised. *)
let process_rules t =
  match process_rules_exn t with
  | () -> Committed
  | exception Rolled_back_exc -> Rolled_back
  | exception e ->
    if in_transaction t then abort_txn t e;
    raise e

let commit t =
  match process_rules t with
  | Committed -> (
    (* commit finalization is itself an injection site, and the commit
       hook (WAL logging) runs here too: after rule processing
       succeeded, while the transaction-start snapshot is still held.
       A failure in either must still restore the exact start state —
       for the hook this is the write-ahead invariant's flip side: a
       transaction whose log record did not become durable never
       happened, so its in-memory effects must vanish too. *)
    match
      Fault.hit Fault.Commit_point;
      match t.commit_hook with
      | None -> ()
      | Some hook ->
        let before =
          match t.txn.txn_start with Some db -> db | None -> assert false
        in
        hook { txl_before = before; txl_after = t.db; txl_effect = t.txn.txn_effect }
    with
    | () ->
      t.txn.txn_start <- None;
      t.txn.txn_effect <- Effect.empty;
      Committed
    | exception e ->
      abort_txn t e;
      raise e)
  | Rolled_back -> Rolled_back

let rollback_txn t =
  require_txn t;
  rollback_to_txn_start t

(* The paper's default behaviour: one externally-generated operation
   block, executed as one transaction with rule processing before
   commit. *)
let execute_block_cops t ?params (cops : Dml.cop list) =
  begin_txn t;
  try
    let results = submit_cops t ?params cops in
    let outcome = commit t in
    (outcome, results)
  with e ->
    (* an error inside the block aborts the transaction ([commit] has
       already aborted and closed it for rule-processing errors) *)
    if in_transaction t then abort_txn t e;
    raise e

let execute_block t ops = execute_block_cops t (List.map (Dml.compile_op t.db) ops)

(* Evaluate a select plan outside any transaction and rule context (no
   transition tables). *)
let query_cop t ?params (cop : Dml.cop) =
  run_select t ?params Eval.no_transitions cop

let query t (s : Ast.select) = query_cop t (Dml.compile_op t.db (Ast.Select_op s))

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

(* EXPLAIN must report what the executor will actually do: it is a
   plan-only run of the statement's compiled plan, compiled afresh so
   the statement cache's counters stay untouched, and planning leaves
   the scan/probe statistics untouched too. *)
let explain_op t (op : Ast.op) =
  Dml.explain Eval.no_transitions t.db (Dml.compile_op t.db op)

(* The discrimination-index keys a rule is registered under, rendered
   for EXPLAIN RULE.  Derived from the definition, so reported for
   deactivated rules too (which are unregistered until reactivated). *)
let rule_index_keys t name =
  let rule = get_rule t name in
  List.map Rule_index.key_to_string (Rule_index.keys_of_rule rule)

(* Plan a rule's condition as it would be evaluated at a rule
   processing point, one plan per outermost embedded select — the
   units the evaluator plans independently (sub-selects nested inside
   one are planned, and shown, as part of it).  The condition is
   planned under empty transition information: transition tables
   materialize as empty relations while base tables keep their current
   contents, so the base-table access paths shown are the ones
   condition evaluation would actually use. *)
let explain_rule t name =
  let rule = get_rule t name in
  match Rule.condition rule with
  | None -> []
  | Some cond ->
    let rec outermost acc e =
      Ast.fold_expr ~expr:outermost ~select:(fun acc s -> s :: acc) acc e
    in
    let resolve = Transition_tables.resolver Effect.empty t.db in
    let plan s =
      let ctx = Compile.make t.db in
      let cs = Compile.compile_select ctx s in
      let rt =
        Compile.make_rt ~db:t.db ~slots:(Compile.slot_count ctx) resolve
      in
      Compile.plan_select rt cs
    in
    List.map (fun s -> (Sqlf.Pretty.select_str s, plan s)) (List.rev (outermost [] cond))

(* DDL is not part of the transition model: it applies outside
   transactions. *)
let create_table t schema =
  if in_transaction t then
    Errors.raise_error
      (Errors.Transaction_error "DDL inside a transaction is not supported");
  t.db <- Database.create_table t.db schema;
  t.ddl_gen <- t.ddl_gen + 1

let drop_table t name =
  if in_transaction t then
    Errors.raise_error
      (Errors.Transaction_error "DDL inside a transaction is not supported");
  (* rules referring to the table in their transition predicates become
     dangling; reject if any exist *)
  List.iter
    (fun r ->
      if Rule.relevant r name then
        Errors.semantic "cannot drop table %S: rule %S is triggered by it" name
          r.Rule.name)
    t.rules_rev;
  t.db <- Database.drop_table t.db name;
  t.ddl_gen <- t.ddl_gen + 1

(* Index DDL is likewise rejected inside transactions: the retained
   pre-transition states (transition tables, rollback) each carry the
   index set current when they were snapshotted, and changing indexes
   mid-transaction would make probe decisions differ between states. *)
let create_index t ~ix_name ~table ~column ~kind =
  if in_transaction t then
    Errors.raise_error
      (Errors.Transaction_error "DDL inside a transaction is not supported");
  t.db <- Database.create_index t.db ~ix_name ~table ~column ~kind;
  t.ddl_gen <- t.ddl_gen + 1

let drop_index t ix_name =
  if in_transaction t then
    Errors.raise_error
      (Errors.Transaction_error "DDL inside a transaction is not supported");
  t.db <- Database.drop_index t.db ix_name;
  t.ddl_gen <- t.ddl_gen + 1

(* ------------------------------------------------------------------ *)
(* Durability support                                                  *)

(* The checkpointable essence of an engine: the database state plus the
   rule catalog as *data*.  Rule.t values carry plan caches (closures)
   that cannot be marshalled, so the image stores (definition, seq,
   active) triples and restoration rebuilds the rules — the caches
   refill lazily on first consideration.  Everything else in [t] is
   either derivable (metrics, stats, traces start empty in a recovered
   process) or transaction-scoped state that a quiescent engine does
   not have. *)
type durable_image = {
  di_db : Database.t;
  di_rules : (Ast.rule_def * int * bool) list; (* def, seq, active *)
  di_priorities : (string * string) list; (* (high, low) pairs *)
  di_seq : int;
  di_ddl_gen : int;
}

let durable_image t =
  if in_transaction t then
    Errors.raise_error
      (Errors.Transaction_error "cannot snapshot inside a transaction");
  {
    di_db = t.db;
    di_rules =
      List.map (fun r -> (r.Rule.def, r.Rule.seq, r.Rule.active)) (rules t);
    di_priorities = Priority.pairs t.priorities;
    di_seq = t.seq;
    di_ddl_gen = t.ddl_gen;
  }

let of_durable_image ?config img =
  let t = create ?config img.di_db in
  List.iter
    (fun (def, seq, active) ->
      let r = Rule.create ~seq def in
      r.Rule.active <- active;
      t.rules_rev <- r :: t.rules_rev;
      t.rules_by_name <- Str_map.add r.Rule.name r t.rules_by_name;
      t.rule_count <- t.rule_count + 1)
    img.di_rules;
  t.priorities <-
    List.fold_left
      (fun p (high, low) -> Priority.declare p ~high ~low)
      Priority.empty img.di_priorities;
  t.seq <- img.di_seq;
  t.ddl_gen <- img.di_ddl_gen;
  t.index <-
    Rule_index.rebuild ~generation:t.ddl_gen
      (List.filter (fun r -> r.Rule.active) t.rules_rev);
  t

(* WAL replay applies physical tuple operations below the transition
   model — no transition, no rule processing — so it swaps whole
   database states in. *)
let restore_database t db =
  if in_transaction t then
    Errors.raise_error
      (Errors.Transaction_error "cannot restore inside a transaction");
  t.db <- db
