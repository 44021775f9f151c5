(* The set-oriented rule execution engine: the semantics of Section 4
   and the algorithm of Figure 1.

   A transaction consists of one externally-generated operation block
   followed by rule processing just before commit.  Rule processing
   repeatedly selects a triggered rule whose condition holds and
   executes its action; the acting rule's transition information
   restarts from its own transition while every other rule's
   information is composed with the new effect (Figure 1's
   init-trans-info / modify-trans-info).  A rollback action restores
   the transaction's start state.

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
  optimize : bool; (* uncorrelated-subquery caching in the evaluator *)
  prune_info : bool;
      (* keep, per rule, only the transition information on tables its
         predicates mention (the Section 4.3 optimization remark) *)
  rule_index : bool;
      (* consult the discrimination index so each transition touches
         only rules registered on the affected (table, op, column)
         keys; off = the literal Figure 1 linear scan over the whole
         catalog, retained as a differential oracle *)
}

let default_config =
  {
    max_steps = 10_000;
    strategy = Selection.Creation_order;
    track_selects = false;
    optimize = true;
    prune_info = true;
    rule_index = true;
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
      (* rules the discrimination index excluded from candidate scans;
         always 0 under the linear-scan oracle *)
  mutable stmt_cache_hits : int;
      (* statement/prepared plans served without recompiling *)
  mutable stmt_cache_misses : int; (* first-time compilations *)
  mutable stmt_cache_invalidations : int;
      (* cached plans discarded because the DDL generation or a planner
         switch moved since compilation *)
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
  mutable trans_start : Database.t; (* state at current external transition start *)
  mutable pending : Effect.t; (* composite effect of the unprocessed external transition *)
  mutable txn_effect : Effect.t;
      (* composite effect of the whole transaction so far — external
         blocks and rule firings alike — maintained incrementally so
         the commit hook (WAL logging) never diffs database states *)
  mutable infos : Trans_info.t Str_map.t;
  mutable considered0 : int Str_map.t;
      (* [last_considered] at transaction start, restored on abort so a
         faulted-then-retried transaction sees the same selection state
         as a fault-free run under every strategy *)
}

let fresh_txn db =
  {
    txn_start = None;
    trans_start = db;
    pending = Effect.empty;
    txn_effect = Effect.empty;
    infos = Str_map.empty;
    considered0 = Str_map.empty;
  }

(* A prepared statement (PREPARE name AS <op>): parsed once, compiled
   lazily against the validity key, bound per EXECUTE.  The registry
   is engine-local and starts empty on [fork], which is what gives a
   server session its own statement namespace. *)
type prepared = {
  pr_name : string;
  pr_op : Ast.op;
  pr_nparams : int;
  mutable pr_compiled : (int * Dml.cop) option; (* (validity key, plan) *)
}

type t = {
  mutable db : Database.t;
  mutable ddl_gen : int;
      (* bumped by every DDL statement; compiled rule forms are keyed
         on it (plus the planner switches) so schema or index changes
         invalidate them *)
  mutable rules_rev : Rule.t list;
      (* newest first, so CREATE RULE is O(1): n creations build the
         catalog in O(n) instead of the O(n²) of appending *)
  mutable rules_by_name : Rule.t Str_map.t;
  mutable rule_count : int;
  mutable rule_index : Rule_index.t;
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
  mutable tracing : bool;
  mutable trace : (float option * event) list;
      (* newest first while accumulating; stamped with the wall clock
         when one is installed *)
  mutable wall_clock : (unit -> float) option;
      (* monotonic-seconds hook for trace timestamps and rule timing;
         [None] (the default) disables all timing *)
  rule_metrics : (string, metrics) Hashtbl.t;
  stmt_cache : (string, int * Dml.cop) Hashtbl.t;
      (* canonical SQL text -> (validity key, compiled plan): repeated
         unprepared statements reuse compiled plans too *)
  prepared : (string, prepared) Hashtbl.t;
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

let create ?(config = default_config) db =
  {
    db;
    ddl_gen = 0;
    rules_rev = [];
    rules_by_name = Str_map.empty;
    rule_count = 0;
    rule_index = Rule_index.create ~generation:0 ();
    priorities = Priority.empty;
    txn = fresh_txn db;
    commit_hook = None;
    seq = 0;
    clock = Selection.make_clock ();
    last_considered = Str_map.empty;
    config;
    procedures = Procedures.create ();
    stats = fresh_stats ();
    tracing = false;
    trace = [];
    wall_clock = None;
    rule_metrics = Hashtbl.create 16;
    stmt_cache = Hashtbl.create 64;
    prepared = Hashtbl.create 16;
  }

(* A session engine for the concurrent server: an independent
   transaction context over the same committed state.  The rule catalog
   (rule values, priorities, discrimination index), procedures, config
   and selection clock are shared — persistent maps make the sharing
   safe for the catalog fields, and the mutable Rule.t compiled-form
   caches are write-once-per-generation (a race merely recompiles).
   Transaction state, stats, metrics and traces start fresh.  Forks
   must not execute DDL: rule DDL would mutate the *shared*
   discrimination index behind the parent's back.  The server keeps
   DDL on the parent and forks sessions from committed snapshots
   only. *)
let fork t =
  if Option.is_some t.txn.txn_start then
    Errors.raise_error
      (Errors.Transaction_error "cannot fork inside a transaction");
  {
    db = t.db;
    ddl_gen = t.ddl_gen;
    rules_rev = t.rules_rev;
    rules_by_name = t.rules_by_name;
    rule_count = t.rule_count;
    rule_index = t.rule_index;
    priorities = t.priorities;
    txn = fresh_txn t.db;
    commit_hook = None;
    seq = t.seq;
    clock = t.clock;
    last_considered = t.last_considered;
    config = t.config;
    procedures = t.procedures;
    stats = fresh_stats ();
    tracing = false;
    trace = [];
    wall_clock = None;
    rule_metrics = Hashtbl.create 16;
    (* fresh per fork: each server session gets its own statement
       namespace and plan cache, and dropping the fork drops both *)
    stmt_cache = Hashtbl.create 64;
    prepared = Hashtbl.create 16;
  }

let database t = t.db
let transition_start t = t.txn.trans_start
let stats t = t.stats
let ddl_generation t = t.ddl_gen
let set_commit_hook t hook = t.commit_hook <- hook

(* Access-path hooks for the evaluator: column metadata and index
   probes are served from the same database state the accompanying
   resolver reads (the snapshot at the start of the operation or
   condition evaluation), and every scan-vs-probe decision is counted
   in the engine statistics. *)
let access_for t db : Eval.access =
  {
    (Eval.db_access db) with
    Eval.acc_note =
      (fun ~table:_ -> function
        | `Seq_scan -> t.stats.seq_scans <- t.stats.seq_scans + 1
        | `Index_probe -> t.stats.index_probes <- t.stats.index_probes + 1
        | `Range_probe -> t.stats.range_probes <- t.stats.range_probes + 1
        | `Hash_join_build ->
          t.stats.hash_join_builds <- t.stats.hash_join_builds + 1
        | `Hash_join_probe ->
          t.stats.hash_join_probes <- t.stats.hash_join_probes + 1);
  }

(* The validity key for compiled rule forms: a compiled condition or
   action is reusable only against the catalog it was compiled for and
   the planner switches in force at compile time (join-equivalence
   links and probe candidates are selected statically; the cost-model
   switch changes which candidate shapes are even collected). *)
let gen_key t =
  (t.ddl_gen * 8)
  + (if !Eval.predicate_pushdown then 4 else 0)
  + (if !Eval.join_optimization then 2 else 0)
  + if !Eval.cost_model then 1 else 0

(* Fetch (or build) the compiled form of a rule's condition. *)
let compiled_condition t (rule : Rule.t) cond =
  let key = gen_key t in
  let cf = rule.Rule.compiled in
  match cf.Rule.cf_cond with
  | Some (k, cp) when k = key -> cp
  | _ ->
    let cp = Compile.compile_predicate t.db cond in
    cf.Rule.cf_cond <- Some (key, cp);
    cp

(* Fetch (or build) the compiled form of a rule's action block, so a
   cascade's n-th firing re-enters closures instead of re-walking the
   AST. *)
let compiled_action t (rule : Rule.t) ops =
  let key = gen_key t in
  let cf = rule.Rule.compiled in
  match cf.Rule.cf_action with
  | Some (k, cops) when k = key -> cops
  | _ ->
    let cops = List.map (Dml.compile_op t.db) ops in
    cf.Rule.cf_action <- Some (key, cops);
    cops

(* {2 Statement cache and prepared statements}

   The statement cache maps canonical statement text to a compiled
   plan, keyed (like compiled rule forms) on [gen_key]: a hit serves
   the plan without recompiling; a stale entry — DDL generation or a
   planner switch moved — counts as an invalidation and recompiles in
   place.  Prepared statements reuse the same validity discipline but
   live in a separate per-name registry so DEALLOCATE and the server's
   per-session namespace have something to address. *)

let stmt_cache_max = 512
(* wholesale reset when the cache would exceed this; an LRU is not
   worth its bookkeeping for a cache this small *)

let cached_cop t (op : Ast.op) =
  let text = Pretty.op_str op in
  let key = gen_key t in
  match Hashtbl.find_opt t.stmt_cache text with
  | Some (k, cop) when k = key ->
    t.stats.stmt_cache_hits <- t.stats.stmt_cache_hits + 1;
    cop
  | Some _ ->
    t.stats.stmt_cache_invalidations <- t.stats.stmt_cache_invalidations + 1;
    let cop = Dml.compile_op t.db op in
    Hashtbl.replace t.stmt_cache text (key, cop);
    cop
  | None ->
    t.stats.stmt_cache_misses <- t.stats.stmt_cache_misses + 1;
    if Hashtbl.length t.stmt_cache >= stmt_cache_max then
      Hashtbl.reset t.stmt_cache;
    let cop = Dml.compile_op t.db op in
    Hashtbl.replace t.stmt_cache text (key, cop);
    cop

(* Non-mutating probe for EXPLAIN: what would executing this statement
   find in the cache right now? *)
let stmt_cache_lookup t (op : Ast.op) =
  match Hashtbl.find_opt t.stmt_cache (Pretty.op_str op) with
  | Some (k, _) when k = gen_key t -> `Hit
  | Some _ -> `Stale
  | None -> `Miss

let stmt_cache_size t = Hashtbl.length t.stmt_cache
let stmt_cache_clear t = Hashtbl.reset t.stmt_cache

let prepare t ~name (op : Ast.op) =
  if Hashtbl.mem t.prepared name then
    Errors.raise_error (Errors.Duplicate_prepared name);
  Hashtbl.replace t.prepared name
    {
      pr_name = name;
      pr_op = op;
      pr_nparams = Ast.param_count_op op;
      pr_compiled = None;
    }

let find_prepared t name =
  match Hashtbl.find_opt t.prepared name with
  | Some p -> p
  | None -> Errors.raise_error (Errors.Unknown_prepared name)

let has_prepared t name = Hashtbl.mem t.prepared name

let deallocate t = function
  | Some name ->
    if not (Hashtbl.mem t.prepared name) then
      Errors.raise_error (Errors.Unknown_prepared name);
    Hashtbl.remove t.prepared name
  | None -> Hashtbl.reset t.prepared

let prepared_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.prepared []
  |> List.sort String.compare

let prepared_nparams (p : prepared) = p.pr_nparams
let prepared_op (p : prepared) = p.pr_op

(* Fetch (or build) a prepared statement's plan — same validity
   discipline as [cached_cop], same counters. *)
let prepared_cop t (p : prepared) =
  let key = gen_key t in
  match p.pr_compiled with
  | Some (k, cop) when k = key ->
    t.stats.stmt_cache_hits <- t.stats.stmt_cache_hits + 1;
    cop
  | Some _ ->
    t.stats.stmt_cache_invalidations <- t.stats.stmt_cache_invalidations + 1;
    let cop = Dml.compile_op t.db p.pr_op in
    p.pr_compiled <- Some (key, cop);
    cop
  | None ->
    t.stats.stmt_cache_misses <- t.stats.stmt_cache_misses + 1;
    let cop = Dml.compile_op t.db p.pr_op in
    p.pr_compiled <- Some (key, cop);
    cop

let bind_params (p : prepared) (args : Value.t list) =
  let got = List.length args in
  if got <> p.pr_nparams then
    Errors.raise_error
      (Errors.Prepared_arity
         { name = p.pr_name; expected = p.pr_nparams; got });
  Array.of_list args

let in_transaction t = Option.is_some t.txn.txn_start
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
  if Rule_index.generation t.rule_index <> t.ddl_gen then
    t.rule_index <-
      Rule_index.rebuild ~generation:t.ddl_gen
        (List.filter (fun r -> r.Rule.active) t.rules_rev);
  t.rule_index

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
  t.txn.infos <- Str_map.remove name t.txn.infos;
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
  t.txn.trans_start <- t.db;
  t.txn.pending <- Effect.empty;
  t.txn.txn_effect <- Effect.empty;
  t.txn.considered0 <- t.last_considered;
  t.trace <- [];
  t.stats.transactions <- t.stats.transactions + 1

let require_txn t =
  if not (in_transaction t) then
    Errors.raise_error (Errors.Transaction_error "no open transaction")

(* Execute an operation block against the current state, returning the
   composite effect and any select results.  Each operation sees the
   state produced by its predecessors; transition tables resolve
   through [resolver_of], which differs between external blocks (no
   transition tables) and rule actions. *)
let run_steps t ~resolver_of ~exec items =
  List.fold_left
    (fun (eff, results) item ->
      let resolve = resolver_of t.db in
      let access = access_for t t.db in
      let r = exec ~access resolve t.db item in
      t.db <- r.Dml.db;
      let eff = Effect.compose eff (Effect.of_affected r.Dml.affected) in
      let results =
        match r.Dml.result with Some rel -> rel :: results | None -> results
      in
      (eff, results))
    (Effect.empty, []) items
  |> fun (eff, results) -> (eff, List.rev results)

let run_ops t ~resolver_of (ops : Ast.op list) =
  run_steps t ~resolver_of
    ~exec:(fun ~access resolve db op ->
      Dml.exec_op ~track_selects:t.config.track_selects
        ~optimize:t.config.optimize ~access resolve db op)
    ops

(* The compiled counterpart: same per-operation resolver/access/state
   threading, entering cached compiled operations.  [params] is the
   EXECUTE parameter frame (absent for rule actions). *)
let run_cops t ~resolver_of ?params (cops : Dml.cop list) =
  run_steps t ~resolver_of
    ~exec:(fun ~access resolve db cop ->
      Dml.exec_cop ~track_selects:t.config.track_selects
        ~optimize:t.config.optimize ~access ?params resolve db cop)
    cops

let external_resolver db : Eval.resolver = Eval.base_resolver db

(* Execute externally-generated operations inside the open transaction
   (they extend the current external transition).  Section 2.1 requires
   operation blocks to execute indivisibly, so a failing operation must
   not leave its predecessors' mutations behind: the whole block's
   effects are applied and recorded in [pending], or none are. *)
let submit_ops t (ops : Ast.op list) =
  require_txn t;
  let db0 = t.db in
  match run_ops t ~resolver_of:external_resolver ops with
  | eff, results ->
    t.txn.pending <- Effect.compose t.txn.pending eff;
    t.txn.txn_effect <- Effect.compose t.txn.txn_effect eff;
    results
  | exception e ->
    t.db <- db0;
    raise e

(* Compiled counterpart of [submit_ops]: statement-cache / prepared
   plans entering an open transaction, with the same indivisibility. *)
let submit_cops t ?params (cops : Dml.cop list) =
  require_txn t;
  let db0 = t.db in
  match run_cops t ~resolver_of:external_resolver ?params cops with
  | eff, results ->
    t.txn.pending <- Effect.compose t.txn.pending eff;
    t.txn.txn_effect <- Effect.compose t.txn.txn_effect eff;
    results
  | exception e ->
    t.db <- db0;
    raise e

(* ------------------------------------------------------------------ *)
(* Rule processing (Figure 1)                                          *)

exception Rolled_back_exc

(* Restore the exact transaction-start state and close the transaction:
   database, pending effect, per-rule transition information, the
   current-transition snapshot (a stale [trans_start] would let a later
   inspection observe a discarded state), and the selection bookkeeping
   a retry must not see. *)
let restore_txn_start t =
  (match t.txn.txn_start with
  | Some db0 ->
    t.db <- db0;
    t.txn.trans_start <- db0
  | None -> assert false);
  t.txn.txn_start <- None;
  t.txn.pending <- Effect.empty;
  t.txn.txn_effect <- Effect.empty;
  t.txn.infos <- Str_map.empty;
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

let info_of t name =
  Option.value (Str_map.find_opt name t.txn.infos) ~default:Trans_info.empty

(* The operation block denoted by a rule's action: either its literal
   block or the block computed by an external procedure (Section 5.2). *)
let action_block t (rule : Rule.t) resolve =
  match Rule.action rule with
  | Ast.Act_rollback -> assert false
  | Ast.Act_block ops -> ops
  | Ast.Act_call name ->
    Fault.hit Fault.Procedure_call;
    let fn = Procedures.find t.procedures name in
    fn { Procedures.query = (fun s -> Eval.eval_select resolve s);
         rule_name = rule.Rule.name }

let process_rules_exn t =
  require_txn t;
  t.stats.transitions <- t.stats.transitions + 1;
  record t (Ev_external { effect_size = Effect.cardinality t.txn.pending });
  Log.debug (fun m ->
      m "processing rules for external transition %a" Effect.pp t.txn.pending);
  (* Figure 1: initialize every rule's transition information from the
     external transition's composite effect.  With pruning on
     (Section 4.3), a rule whose predicates mention none of the touched
     tables gets empty information without any per-effect work, and a
     partially relevant rule gets the restriction of the effect to its
     tables.

     With the discrimination index on, only rules registered on a
     (table, op, column) key the effect touches get an entry at all:
     [info_of] defaults missing entries to empty information, a rule
     whose keys the composite never touches can never become triggered,
     and transition-table materialization filters by table — so the
     omission is semantically invisible while the init cost drops from
     O(all rules) to O(matching rules).  [shared] accumulates the full
     composite of the transition so a rule woken later in processing
     (by a rule firing that touches its keys) can catch up to exactly
     the information the linear scan would have built for it. *)
  let use_index = t.config.rule_index in
  let all_rules = if use_index then [] else rules t in
  let shared = ref Trans_info.empty in
  let touched = Effect.tables t.txn.pending in
  let relevant_to r =
    List.exists (fun tbl -> Effect.Col_set.mem tbl touched) (Rule.relevant_tables r)
  in
  let initial = lazy (Trans_info.init t.txn.pending t.txn.trans_start) in
  let init_for r =
    if not t.config.prune_info then Lazy.force initial
    else if not (relevant_to r) then Trans_info.empty
    else Trans_info.init (Effect.restrict t.txn.pending (Rule.relevant r)) t.txn.trans_start
  in
  if use_index then begin
    shared := Lazy.force initial;
    let woken = Rule_index.matching (live_index t) t.txn.pending in
    t.txn.infos <-
      Rule_index.Str_set.fold
        (fun name m ->
          match find_rule t name with
          | None -> m
          | Some r -> Str_map.add name (init_for r) m)
        woken Str_map.empty
  end
  else
    t.txn.infos <-
      List.fold_left
        (fun m r -> Str_map.add r.Rule.name (init_for r) m)
        Str_map.empty all_rules;
  t.txn.pending <- Effect.empty;
  let steps = ref 0 in
  let considered = ref Str_set.empty in
  let rec loop () =
    (* the candidate scan: with the index on, only rules holding
       transition information (the woken set) are examined — a rule
       with no entry has empty information and cannot be triggered *)
    let candidates =
      if use_index then
        Str_map.fold
          (fun name info acc ->
            match find_rule t name with
            | Some r
              when r.Rule.active
                   && (not (Str_set.mem name !considered))
                   && Trans_info.triggered info (Rule.trans_preds r) ->
              r :: acc
            | _ -> acc)
          t.txn.infos []
      else
        List.filter
          (fun r ->
            r.Rule.active
            && (not (Str_set.mem r.Rule.name !considered))
            && Trans_info.triggered (info_of t r.Rule.name) (Rule.trans_preds r))
          all_rules
    in
    let examined = if use_index then Str_map.cardinal t.txn.infos else t.rule_count in
    t.stats.candidates_considered <- t.stats.candidates_considered + examined;
    t.stats.rules_skipped <- t.stats.rules_skipped + (t.rule_count - examined);
    let last_considered name =
      Option.value (Str_map.find_opt name t.last_considered) ~default:0
    in
    match
      Selection.choose t.config.strategy t.priorities ~last_considered
        candidates
    with
    | None ->
      (* quiescence: no triggered rule remains to consider *)
      record t Ev_quiescent
    | Some rule ->
      considered := Str_set.add rule.Rule.name !considered;
      t.last_considered <-
        Str_map.add rule.Rule.name (Selection.tick t.clock) t.last_considered;
      let info = info_of t rule.Rule.name in
      let resolve = Transition_tables.resolver info t.db in
      t.stats.conditions_evaluated <- t.stats.conditions_evaluated + 1;
      let m = metrics_for t rule.Rule.name in
      m.m_considered <- m.m_considered + 1;
      let cond_holds =
        match Rule.condition rule with
        | None -> true
        | Some cond ->
          Fault.hit Fault.Rule_condition;
          timed t
            (fun dt -> m.m_cond_seconds <- m.m_cond_seconds +. dt)
            (fun () ->
              if !Compile.enabled then
                Compile.run_predicate ~access:(access_for t t.db)
                  ~use_cache:t.config.optimize resolve
                  (compiled_condition t rule cond)
              else
                let cache =
                  if t.config.optimize then Some (Eval.make_cache ()) else None
                in
                Eval.eval_predicate ?cache ~access:(access_for t t.db) resolve
                  [] cond)
      in
      record t (Ev_considered { rule = rule.Rule.name; condition_held = cond_holds });
      Log.debug (fun m ->
          m "considered %s: condition %b" rule.Rule.name cond_holds);
      if not cond_holds then loop ()
      else if Rule.is_rollback rule then begin
        record t (Ev_rollback { rule = rule.Rule.name });
        Log.info (fun m -> m "rule %s requested rollback" rule.Rule.name);
        rollback_to_txn_start t;
        raise Rolled_back_exc
      end
      else begin
        incr steps;
        if !steps > t.config.max_steps then
          (* [!steps] is the true count of attempted action executions
             (the limit check counts the action it is about to run);
             the abort wrapper in [process_rules] restores the
             transaction-start state *)
          Errors.raise_error
            (Errors.Rule_limit_exceeded { rule = rule.Rule.name; steps = !steps });
        t.stats.rule_firings <- t.stats.rule_firings + 1;
        t.stats.transitions <- t.stats.transitions + 1;
        let old_db = t.db in
        Fault.hit Fault.Rule_action;
        (* the action's transition tables are based on the acting
           rule's information and the evolving current state *)
        let eff, _ =
          timed t
            (fun dt -> m.m_action_seconds <- m.m_action_seconds +. dt)
            (fun () ->
              let resolver_of db = Transition_tables.resolver info db in
              match Rule.action rule with
              | Ast.Act_block ops when !Compile.enabled ->
                run_cops t ~resolver_of (compiled_action t rule ops)
              | _ ->
                let ops = action_block t rule resolve in
                run_ops t ~resolver_of ops)
        in
        t.txn.txn_effect <- Effect.compose t.txn.txn_effect eff;
        m.m_fired <- m.m_fired + 1;
        m.m_effect_tuples <- m.m_effect_tuples + Effect.cardinality eff;
        record t
          (Ev_fired { rule = rule.Rule.name; effect_size = Effect.cardinality eff });
        Log.debug (fun m ->
            m "fired %s with effect %a" rule.Rule.name Effect.pp eff);
        (* Figure 1: the acting rule's information restarts from its
           own transition; every other rule's is extended.  With
           pruning on, rules irrelevant to the touched tables keep
           their information untouched. *)
        let touched = Effect.tables eff in
        let relevant_to r =
          List.exists
            (fun tbl -> Effect.Col_set.mem tbl touched)
            (Rule.relevant_tables r)
        in
        let effect_for r =
          if t.config.prune_info then Effect.restrict eff (Rule.relevant r)
          else eff
        in
        if use_index then begin
          (* extend the shared composite, then (1) extend every already
             woken rule exactly as the linear scan would, (2) wake
             rules whose keys this effect touches by restricting the
             shared composite — the same information stepwise extension
             from the external transition would have built, since
             restriction commutes with init/extend — and (3) restart
             the acting rule unconditionally: even a firing whose
             effect misses the rule's own keys starts a new composite
             transition for it, otherwise it would stay triggered
             forever. *)
          shared := Trans_info.extend !shared eff old_db;
          t.txn.infos <-
            Str_map.fold
              (fun name info m ->
                if String.equal name rule.Rule.name then m
                else
                  match find_rule t name with
                  | None -> Str_map.add name info m
                  | Some r ->
                    if t.config.prune_info && not (relevant_to r) then
                      Str_map.add name info m
                    else
                      Str_map.add name
                        (Trans_info.extend info (effect_for r) old_db)
                        m)
              t.txn.infos Str_map.empty;
          let woken = Rule_index.matching (live_index t) eff in
          t.txn.infos <-
            Rule_index.Str_set.fold
              (fun name m ->
                if Str_map.mem name m || String.equal name rule.Rule.name then m
                else
                  match find_rule t name with
                  | None -> m
                  | Some r ->
                    let info =
                      if t.config.prune_info then
                        Trans_info.restrict !shared (Rule.relevant r)
                      else !shared
                    in
                    Str_map.add name info m)
              woken t.txn.infos;
          t.txn.infos <-
            Str_map.add rule.Rule.name
              (Trans_info.init (effect_for rule) old_db)
              t.txn.infos
        end
        else
          t.txn.infos <-
            List.fold_left
              (fun m r ->
                if String.equal r.Rule.name rule.Rule.name then
                  Str_map.add r.Rule.name (Trans_info.init (effect_for r) old_db) m
                else if t.config.prune_info && not (relevant_to r) then m
                else
                  Str_map.add r.Rule.name
                    (Trans_info.extend (info_of t r.Rule.name) (effect_for r) old_db)
                    m)
              t.txn.infos all_rules;
        (* new state: every triggered rule becomes considerable again *)
        considered := Str_set.empty;
        loop ()
      end
  in
  loop ()

(* Section 5.3 rule triggering point: complete the current external
   transition, process rules, and (on success) begin a new transition
   within the same transaction.  Any error raised during rule
   processing — a failing condition or action, a divergent rule set
   hitting the step limit, an unknown procedure — aborts the whole
   transaction: the database, pending effect, transition information
   and transition-start snapshot are restored to the transaction-start
   state before the error is re-raised. *)
let process_rules t =
  match process_rules_exn t with
  | () ->
    t.txn.trans_start <- t.db;
    Committed
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
      t.txn.infos <- Str_map.empty;
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
let execute_block t (ops : Ast.op list) =
  begin_txn t;
  try
    let results = submit_ops t ops in
    let outcome = commit t in
    (outcome, results)
  with e ->
    (* an error inside the block aborts the transaction ([commit] has
       already aborted and closed it for rule-processing errors) *)
    if in_transaction t then abort_txn t e;
    raise e

(* Compiled counterpart of [execute_block]: one transaction running
   cached / prepared plans, rule processing before commit as usual. *)
let execute_block_cops t ?params (cops : Dml.cop list) =
  begin_txn t;
  try
    let results = submit_cops t ?params cops in
    let outcome = commit t in
    (outcome, results)
  with e ->
    if in_transaction t then abort_txn t e;
    raise e

(* Evaluate a query outside any rule context.  Top-level queries are
   one-shot, so their compiled form is built, run and discarded — the
   win here is the positional evaluation itself, not caching. *)
let query t (s : Ast.select) =
  if !Compile.enabled then
    Compile.eval_select ~access:(access_for t t.db) (external_resolver t.db)
      t.db s
  else Eval.eval_select ~access:(access_for t t.db) (external_resolver t.db) s

(* Evaluate a cached / prepared select plan outside any transaction —
   the compiled-path counterpart of [query].  The caller guarantees the
   compiled operation is a select. *)
let query_cop t ?params (cop : Dml.cop) =
  let r =
    Dml.exec_cop ~track_selects:false ~optimize:t.config.optimize
      ~access:(access_for t t.db) ?params
      (external_resolver t.db)
      t.db cop
  in
  match r.Dml.result with
  | Some rel -> rel
  | None -> assert false (* select operations always produce a relation *)

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

(* Planning must not perturb the engine's scan/probe statistics: it is
   the same access record with the note hook silenced. *)
let explain_access t db : Eval.access =
  { (access_for t db) with Eval.acc_note = (fun ~table:_ _ -> ()) }

(* EXPLAIN must report what the executor will actually do, so it plans
   through whichever path execution would take. *)
let explain_op t (op : Ast.op) =
  if !Compile.enabled then
    Compile.plan_op ~access:(explain_access t t.db) (external_resolver t.db)
      t.db op
  else Eval.plan_op ~access:(explain_access t t.db) (external_resolver t.db) op

(* Collect the outermost embedded selects of a condition expression —
   the units the evaluator plans independently.  Sub-selects nested
   inside a collected select are planned (and shown) as part of it. *)
let rec embedded_selects (e : Ast.expr) : Ast.select list =
  match e with
  | Ast.Lit _ | Ast.Param _ | Ast.Col _ -> []
  | Ast.Neg e | Ast.Not e | Ast.Is_null e | Ast.Is_not_null e ->
    embedded_selects e
  | Ast.Binop (_, a, b)
  | Ast.Cmp (_, a, b)
  | Ast.And (a, b)
  | Ast.Or (a, b)
  | Ast.Like (a, b) ->
    embedded_selects a @ embedded_selects b
  | Ast.Between (a, b, c) ->
    embedded_selects a @ embedded_selects b @ embedded_selects c
  | Ast.In_list (e, es) | Ast.Not_in_list (e, es) ->
    embedded_selects e @ List.concat_map embedded_selects es
  | Ast.In_select (e, s) | Ast.Not_in_select (e, s) ->
    embedded_selects e @ [ s ]
  | Ast.Exists s | Ast.Scalar_select s -> [ s ]
  | Ast.Agg (_, e) -> ( match e with None -> [] | Some e -> embedded_selects e)
  | Ast.Fn (_, es) -> List.concat_map embedded_selects es
  | Ast.Case (arms, else_) ->
    List.concat_map (fun (c, v) -> embedded_selects c @ embedded_selects v) arms
    @ (match else_ with None -> [] | Some e -> embedded_selects e)

(* Plan a rule's condition as it would be evaluated at a rule
   processing point.  The condition is planned under empty transition
   information: transition tables materialize as empty relations while
   base tables keep their current contents, so the base-table access
   paths shown are the ones condition evaluation would actually use. *)
(* The discrimination-index keys a rule is registered under, rendered
   for EXPLAIN RULE.  Derived from the definition, so reported for
   deactivated rules too (which are unregistered until reactivated). *)
let rule_index_keys t name =
  let rule = get_rule t name in
  List.map Rule_index.key_to_string (Rule_index.keys_of_rule rule)

let explain_rule t name =
  let rule = get_rule t name in
  match Rule.condition rule with
  | None -> []
  | Some cond ->
    let access = explain_access t t.db in
    let resolve = Transition_tables.resolver Trans_info.empty t.db in
    let plan s =
      if !Compile.enabled then Compile.plan_select ~access resolve t.db s
      else Eval.plan_select ~access resolve s
    in
    List.map
      (fun s -> (Sqlf.Pretty.select_str s, plan s))
      (embedded_selects cond)

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
      let mentions =
        List.exists
          (fun p ->
            match p with
            | Ast.Tp_inserted t' | Ast.Tp_deleted t'
            | Ast.Tp_updated (t', _) | Ast.Tp_selected (t', _) ->
              String.equal t' name)
          (Rule.trans_preds r)
      in
      if mentions then
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
   rule catalog as *data*.  Rule.t values carry compiled-closure caches
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
  t.rule_index <-
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
  t.db <- db;
  t.txn.trans_start <- db
