(** The set-oriented rule execution engine: the semantics of paper
    Section 4 and the algorithm of Figure 1.

    A transaction consists of one externally-generated operation block
    followed by rule processing just before commit.  Rule processing
    repeatedly selects a triggered rule whose condition holds and
    executes its action; the acting rule's transition information
    restarts from its own transition while every other rule's is
    composed with the new effect ([init-trans-info] /
    [modify-trans-info]).  Transition information is an {!Effect.t},
    whose deleted and updated entries carry the old rows the
    transition tables read.  A [rollback] action restores the
    transaction's start state.

    Section 5.3 rule triggering points are supported: a transaction may
    interleave several externally-generated operation sequences with
    explicit {!process_rules} calls; each call completes the current
    external transition, processes rules to quiescence, and starts a
    new transition.  {!execute_block} packages the paper's default
    one-block-one-transaction behaviour. *)

open Relational
module Ast = Sqlf.Ast
module Eval = Sqlf.Eval

type config = {
  max_steps : int;
      (** Upper bound on rule-action executions per transaction: the
          run-time guard the paper suggests (Section 4.1, footnote 7)
          against divergent rule sets.  Exceeding it rolls back and
          raises [Rule_limit_exceeded]. *)
  strategy : Selection.strategy;
  track_selects : bool;
      (** Section 5.1: maintain the [S] effect component so rules can
          be triggered by data retrieval. *)
}
(** A transition wakes only the rules the {!Rule_index}
    discrimination index registers on a (table, op, column) key it
    touches, so each transition initializes, extends and scans
    O(matching rules). *)

val default_config : config
(** 10000 steps, creation-order selection, no select tracking. *)

type outcome = Committed | Rolled_back

type stats = {
  mutable transactions : int;
  mutable transitions : int;  (** external + rule-generated *)
  mutable rule_firings : int;  (** actions executed *)
  mutable conditions_evaluated : int;
  mutable rollbacks : int;
      (** rule-requested rollbacks and explicit {!rollback_txn} calls *)
  mutable aborts : int;
      (** transactions undone because an error was raised mid-flight *)
  mutable seq_scans : int;
      (** base-table accesses answered by a full scan *)
  mutable index_probes : int;
      (** base-table accesses answered by an index probe *)
  mutable range_probes : int;
      (** base-table accesses answered by an ordered-index range probe *)
  mutable hash_join_builds : int;
      (** hash-join build sides constructed by the join executor *)
  mutable hash_join_probes : int;
      (** probes into built join tables (one per partial row) *)
  mutable candidates_considered : int;
      (** rules examined for triggering across candidate scans *)
  mutable rules_skipped : int;
      (** rules the discrimination index excluded from candidate scans *)
  mutable stmt_cache_hits : int;
      (** statement/prepared plans served without recompiling *)
  mutable stmt_cache_misses : int;  (** first-time statement compilations *)
  mutable stmt_cache_invalidations : int;
      (** cached plans discarded because the DDL generation moved since
          compilation *)
}

(** One step of an execution trace (Section 6 tooling: understanding
    what rules did during a transaction). *)
type event =
  | Ev_external of { effect_size : int }
      (** an external transition completed and rule processing began *)
  | Ev_considered of { rule : string; condition_held : bool }
  | Ev_fired of { rule : string; effect_size : int }
  | Ev_rollback of { rule : string }
  | Ev_abort of { reason : string }
      (** an error aborted the transaction; all its effects were undone
          and the exact transaction-start state restored *)
  | Ev_quiescent

(** Immutable snapshot of one rule's accumulated metrics (Section 6
    tooling).  Counts are always maintained; the wall-time fields stay
    [0.] until a clock is installed with {!set_clock}. *)
type rule_report_row = {
  rr_rule : string;
  rr_considered : int;  (** times selected for consideration *)
  rr_fired : int;  (** times the action ran *)
  rr_cond_seconds : float;  (** cumulative condition-evaluation time *)
  rr_action_seconds : float;  (** cumulative action time *)
  rr_effect_tuples : int;  (** cumulative size of the action effects *)
}

type t

(** What a commit hook observes: the state the transaction started
    from, the state it commits, and the composite net effect connecting
    them (external blocks and rule firings already folded together via
    effect composition, Definition 2.1). *)
type txn_log = {
  txl_before : Database.t;
  txl_after : Database.t;
  txl_effect : Effect.t;
}

val create : ?config:config -> Database.t -> t
val database : t -> Database.t

val config : t -> config

type statements
(** A statement state ({!section-plans}); engines sharing one must run
    on one thread. *)

val new_statements : unit -> statements
val statements : t -> statements

val statement_counts : statements -> int * int * int
(** Plan-table hits, misses and invalidations through the state. *)

val fork : t -> statements -> t
(** A session engine for the concurrent server: an independent
    transaction context (fresh transaction state, stats, metrics,
    traces) over the same committed database state, sharing the rule
    catalog, priorities, discrimination index, procedures, config and
    selection clock.  The persistent data structures make the sharing
    copy-free.  The fork runs its statements through the given
    statement state.  A fork must not execute DDL (rule DDL would
    mutate the shared discrimination index behind the parent's back) —
    the server keeps DDL on the parent engine and forks sessions from
    committed snapshots only.  Raises [Transaction_error] inside a
    transaction. *)

val stats : t -> stats
val in_transaction : t -> bool

val tables_read : t -> Effect.Col_set.t
(** The base tables the engine's plans scanned or probed since the last
    {!begin_txn}: statements, rule conditions and actions, subqueries
    and procedure queries, failed statements and aborted rule
    processing included.  EXPLAIN reads none.  The server's
    serializable read claims. *)

val set_tracing : t -> bool -> unit
(** Enable per-transaction execution traces (off by default). *)

val set_clock : t -> (unit -> float) option -> unit
(** Install (or remove) the wall-clock hook — monotonic seconds, e.g.
    [Unix.gettimeofday] — used to timestamp trace events and accumulate
    per-rule condition/action times.  [None] (the default) disables all
    timing: no clock reads happen anywhere on the execution path. *)

val has_clock : t -> bool

val trace : t -> event list
(** The trace of the most recent transaction, oldest event first. *)

val timed_trace : t -> (float option * event) list
(** Like {!trace}, with each event's clock stamp ([None] when no clock
    was installed at record time). *)

val trace_jsonl : t -> string
(** The trace rendered as JSON Lines, one object per event, oldest
    first: [{"seq":N,"t":...,"event":"fired","rule":...,...}].  The
    ["t"] field is omitted when no clock was installed, making
    clock-off traces byte-deterministic. *)

val rule_report : t -> rule_report_row list
(** Accumulated per-rule metrics, in rule-creation order.  Metrics
    persist across transactions (they are lifetime counters, like
    {!stats}); dropped rules disappear from the report. *)

val pp_event : Format.formatter -> event -> unit

(** {2 Catalog} *)

val create_rule : t -> Ast.rule_def -> Rule.t
(** Validates the definition (including that transition predicates name
    existing tables/columns) and installs the rule.  A rule defined
    mid-transaction starts with empty transition information. *)

val drop_rule : t -> string -> unit
val set_rule_active : t -> string -> bool -> unit
val find_rule : t -> string -> Rule.t option

val rules : t -> Rule.t list
(** The catalog in creation order (materialized: O(n)). *)

val rules_rev : t -> Rule.t list
(** The catalog newest-first — the engine's internal representation,
    shared (not copied), so [create_rule] is observably O(1): the new
    list's tail is physically the previous list.  Exposed for the
    structural bulk-creation tests. *)

val priorities : t -> Priority.t

val declare_priority : t -> high:string -> low:string -> unit
(** Both rules must exist; raises [Priority_cycle] on a cycle. *)

val register_procedure : t -> string -> Procedures.procedure -> unit

(** {2 Transactions} *)

val begin_txn : t -> unit
val submit_ops : t -> Ast.op list -> Eval.relation list
(** Plan the operations (uncached) and {!submit_cops} them. *)

val process_rules : t -> outcome
(** Section 5.3 triggering point: complete the current external
    transition, run rules to quiescence, and (on success) begin a new
    transition within the same transaction.  [Rolled_back] means a
    rollback action fired and the whole transaction was undone.

    Exception safety: any error raised during rule processing aborts
    the whole transaction — the database, pending effect, transition
    information and transition-start snapshot are restored to the
    transaction-start state, an {!Ev_abort} event is recorded and the
    abort counted in {!stats} — before the error is re-raised. *)

(** {3 Figure 1, one step at a time}

    {!process_rules} is {!start}, then {!step} on the rule
    {!Selection.choose} picks from {!candidates}, until none is left.
    The state is persistent: an explorer of every selection order steps
    one state once per choice. *)

type processing = private {
  p_db : Database.t;  (** the current state *)
  p_woken : (Rule.t * Effect.t) Map.Make(String).t;
      (** the woken rules and their transition information *)
  p_shared : Effect.t;  (** the composite of the whole transition *)
  p_considered : Set.Make(String).t;  (** considered in this state *)
  p_steps : int;  (** actions executed *)
}

type step = Next of processing | Rollback

val start : t -> processing
(** [init-trans-info]: complete the external transition and wake the
    rules its effect concerns. *)

val candidates : processing -> Rule.t list
(** The woken, active, triggered rules not yet considered in this
    state. *)

val step : t -> processing -> Rule.t -> step
(** Consider one candidate: evaluate its condition and, if it holds,
    run its action and apply [modify-trans-info].  On [Rollback] the
    caller undoes the transaction.  Raises [Rule_limit_exceeded] past
    [config.max_steps] actions. *)

val commit : t -> outcome
(** Process rules, then commit and close the transaction.  Shares the
    abort-on-error contract of {!process_rules}: an error anywhere
    before the transaction closes restores the exact transaction-start
    state. *)

val rollback_txn : t -> unit
(** Abort the open transaction, restoring its start state. *)

val execute_block : t -> Ast.op list -> outcome * Eval.relation list
(** Plan the operations (uncached) and {!execute_block_cops} them. *)

(** {2 Queries and DDL} *)

val query : t -> Ast.select -> Eval.relation
(** Plan the query (uncached) and {!query_cop} it. *)

(** {2:plans Plans, the statement cache and prepared statements}

    Every statement, prepared statement and rule action runs as a
    compiled {!Dml.cop} plan, and every rule condition as a compiled
    predicate ({!Sqlf.Compile}).  The statement cache is one plan table
    of at most {!stmt_cache_max} plans, evicting the least recently
    used.  It is keyed on the {e parameterized} statement
    ({!Ast.parameterize_op}) with its parameters' kinds, so statements
    that differ only in the literals of bindable positions share a
    plan and bind those literals into its parameter frame.  Plans are
    keyed (like rule plans) on the DDL generation: a hit serves the
    plan without recompiling; a stale entry counts as an invalidation
    and recompiles in place.

    In front of the plan table sits the shape memo (also an LRU of
    {!stmt_cache_max} entries) used by [System.exec_with]: it maps a
    statement's shape ({!Sqlf.Lexer.shape}) to the parameterized
    statement, its plan key and a slot map — each literal slot is
    either bound to a parameter or pinned to the value the plan was
    compiled with.  A memo hit neither parses nor prints nor compiles.
    Both paths reach the plan table the same way and count the same
    [stmt_cache_*] statistics.

    Prepared statements (PREPARE name AS <op>) reuse the same validity
    discipline in a per-name registry.  The three structures make one
    {!statements} value: an engine is created with its own, and
    {!fork} is handed one, so a server session's forks share one
    namespace and one set of plans, dropped when the session ends. *)

module Dml = Sqlf.Dml

val stmt_cache_max : int

val cached_cop : t -> Ast.op -> Dml.cop
(** The plan for [op], runnable without [params]: the parameterized
    plan, served from the plan table when valid, (re)compiled and
    cached otherwise, updating the [stmt_cache_*] counters in {!stats},
    with [op]'s literals bound ({!Dml.bind}). *)

val stmt_cache_lookup : t -> Ast.op -> [ `Hit | `Stale | `Miss ]
(** Non-mutating probe (for EXPLAIN): what would executing this
    statement find in the plan table right now? *)

val stmt_cache_size : statements -> int

type shaped
(** A shape-memo entry. *)

val find_shape :
  statements -> Sqlf.Lexer.segment -> Value.t array -> shaped option
(** The memo entry for the segment's shape, when its pinned slots hold
    the same values in [literals] (the shape's literal vector).  Does
    not touch the plan table or its counters. *)

val record_shape :
  statements ->
  Sqlf.Lexer.segment ->
  Value.t array ->
  Ast.statement ->
  (Ast.expr * int) list ->
  shaped option
(** Memoize the statement parsed from the segment, given its literal
    nodes and their slots ({!Sqlf.Parser.parse_script_traced}):
    BEGIN, COMMIT, ROLLBACK and data manipulation are memoized, other
    statements give [None]. *)

(** A memoized operation, its parameter frame bound from one
    statement's literals, and its plan-table key. *)
type bound = private { bd_op : Ast.op; bd_params : Value.t array; bd_key : string }

val bind_shape :
  shaped ->
  Sqlf.Lexer.segment ->
  Value.t array ->
  [ `Statement of Ast.statement | `Op of bound ]
(** What a statement of the entry's shape with these literals is: a
    transaction-control statement, or the parameterized operation
    with its parameter frame. *)

val bound_cop : t -> bound -> Dml.cop
(** The bound operation's plan from the plan table, counted as by
    {!cached_cop}. *)

type prepared
(** A prepared statement: parsed once, compiled lazily against the
    validity key, bound per EXECUTE. *)

val prepare : statements -> name:string -> Ast.op -> unit
(** Register [op] under [name].  Raises [Duplicate_prepared] if the
    name is taken. *)

val find_prepared : statements -> string -> prepared
(** Raises [Unknown_prepared]. *)

val deallocate : statements -> string option -> unit
(** [Some name] drops one prepared statement (raises
    [Unknown_prepared]); [None] drops them all (DEALLOCATE ALL). *)

val prepared_names : statements -> string list
(** Registered names, sorted. *)

val prepared_nparams : prepared -> int
val prepared_op : prepared -> Ast.op

val prepared_cop : t -> prepared -> Dml.cop
(** The prepared statement's plan, compiled at most once per validity
    key — same counters as {!cached_cop}. *)

val bind_params : prepared -> Value.t list -> Value.t array
(** Check EXECUTE argument arity against the statement's parameter
    count (raises [Prepared_arity]) and build the parameter frame. *)

val submit_cops : t -> ?params:Value.t array -> Dml.cop list -> Eval.relation list
(** Execute externally-generated operations inside the open
    transaction, extending the current external transition.  Returns
    the result rows of any select operations.  [params] is the EXECUTE
    parameter frame.

    Exception safety (paper Section 2.1: blocks execute indivisibly):
    if any operation raises, the database is restored to its state at
    the start of the block before the error propagates — the block has
    no effect, nothing reaches the pending transition, and the
    transaction remains open. *)

val execute_block_cops :
  t -> ?params:Value.t array -> Dml.cop list -> outcome * Eval.relation list
(** The paper's default behaviour: one externally-generated operation
    block executed as one transaction with rule processing before
    commit.  Any error aborts the transaction — restoring the exact
    pre-transaction state and recording the abort — before
    re-raising. *)

val query_cop : t -> ?params:Value.t array -> Dml.cop -> Eval.relation
(** Evaluate a select plan outside any transaction and rule context (no
    transition tables).  The caller guarantees the operation is a
    select. *)

(** {2 EXPLAIN} *)

val explain_op : t -> Ast.op -> Eval.source_plan list
(** Plan a DML operation without executing it: a plan-only run of its
    compiled plan ({!Dml.explain}), so the plan is the executor's own
    decisions.  Planning never mutates the database and perturbs
    neither the scan/probe statistics nor the statement cache. *)

val rule_index_keys : t -> string -> string list
(** The discrimination-index keys the rule registers under, rendered
    ([insert(t)], [update(t.c)], …) for EXPLAIN RULE.  Derived from the
    definition, so also reported for deactivated rules (which are
    unregistered until reactivated).  Raises [Unknown_rule]. *)

val explain_rule : t -> string -> (string * Eval.source_plan list) list
(** Plan a rule's condition as it would be evaluated at a rule
    processing point: one entry per outermost embedded select of the
    condition, paired with its rendered source text.  Transition tables
    are taken as empty (no transition has occurred) while base tables
    keep their current contents.  Empty for a condition-less rule;
    raises [Unknown_rule] for an unknown name. *)

val create_table : t -> Schema.table -> unit
(** DDL applies outside transactions only. *)

val drop_table : t -> string -> unit
(** Rejected while rules are triggered by the table. *)

val create_index :
  t -> ix_name:string -> table:string -> column:string -> kind:Index.kind ->
  unit
(** Build a secondary index over a column — [`Hash] for equality/IN
    probes, [`Ordered] for those plus range and prefix-LIKE probes.
    Like all DDL this is rejected inside a transaction, which keeps the
    index set uniform across the pre-transition states the engine
    retains. *)

val drop_index : t -> string -> unit
(** Index names are database-wide, so only the name is needed. *)

(** {2 Durability hooks}

    The engine has no knowledge of files or logs; a durability layer
    attaches through three narrow seams: a commit hook observing every
    committed transition, a marshal-safe image of the quiescent engine
    for checkpoints, and state restoration for WAL replay. *)

val set_commit_hook : t -> (txn_log -> unit) option -> unit
(** Install (or remove) the commit hook.  It runs at the commit point —
    after rule processing succeeded and the {!Fault.Commit_point} site
    passed, while the transaction-start snapshot is still held — and is
    the write-ahead seam: if the hook raises (a WAL append failure),
    the transaction aborts and the exact start state is restored, so a
    transition is in memory iff its log record was durably appended
    (modulo a crash between fsync and return, which recovery resolves
    in favour of the log). *)

(** Marshal-safe image of a quiescent engine: the database state plus
    the rule catalog as data ((definition, seq, active) triples and
    priority pairs — rule plans are process-local and rebuilt
    lazily after restoration). *)
type durable_image = {
  di_db : Database.t;
  di_rules : (Ast.rule_def * int * bool) list;
  di_priorities : (string * string) list;
  di_seq : int;
  di_ddl_gen : int;
}

val durable_image : t -> durable_image
(** Raises [Transaction_error] inside a transaction: checkpoints cover
    committed states only. *)

val of_durable_image : ?config:config -> durable_image -> t
(** Rebuild an engine from a checkpoint image.  Statistics, metrics and
    traces start empty; registered procedures must be re-registered by
    the host (they are code, not data). *)

val restore_database : t -> Database.t -> unit
(** Replace the engine's database state (and transition-start snapshot)
    outside any transaction — the WAL-replay primitive.  Raises
    [Transaction_error] inside a transaction. *)
