(** The concurrent-session server: many client sessions over one
    engine, with snapshot reads and first-committer-wins commits.

    Committed state lives in a primary engine that never runs
    transactions itself.  Sessions work on {!Core.Engine.fork}s — pointer
    copies thanks to the persistent storage: reads evaluate against a
    cached snapshot fork with no locks held, and a transaction runs
    entirely on its own fork, validated at commit against the committed
    state: a handle it deleted or updated must still hold the very row
    its fork started from, as every published write installs a new row
    (first committer wins; inserts never collide because handles come
    from a process-global counter).  That is SNAPSHOT ISOLATION.  With
    [config.track_selects] on, the server runs SERIALIZABLE: each
    commit additionally claims, at table granularity, the base tables
    its plans actually scanned or probed ({!Core.Engine.tables_read}:
    statements, failed ones included, and rule conditions, actions,
    subqueries and procedure queries) and conflicts when a concurrent
    transition wrote a claimed table.  DDL conflicts with every
    transaction open across it.  A winning transaction is made durable
    by a group-commit round, which writes the commits that piled up
    meanwhile as one WAL record, and then applied to the primary under
    the next version, strictly in claim order. *)

open Core

type mode =
  | Memory  (** no durability; for tests and pure-concurrency runs *)
  | Wal_sync  (** each group-commit round is one WAL record + fsync *)
  | Wal_nosync  (** each group-commit round is one WAL record, no fsync *)

val mode_name : mode -> string

type stats = {
  mutable sv_connections : int;
  mutable sv_requests : int;
  mutable sv_commits : int;  (** published transactions, DDL excluded *)
  mutable sv_conflicts : int;  (** serialization failures *)
  mutable sv_errors : int;  (** requests answered with [err] *)
  mutable sv_internal_errors : int;
      (** requests that raised outside SQL's errors (an injected fault, a
          failed assertion), answered with [err internal: ...] and logged
          to stderr *)
  mutable sv_disconnects : int;  (** sessions that died mid-conversation *)
  mutable sv_checkpoint_failures : int;
}

type t

val create :
  ?config:Engine.config -> ?checkpoint_interval:int -> ?data_dir:string ->
  mode -> t
(** [data_dir] is required for the WAL modes (the directory is created
    and recovered as in {!Durability.Durable.open_dir}) and ignored for
    [Memory].  [config.track_selects] selects the isolation level:
    snapshot isolation when off (the default), serializable when on. *)

val system : t -> System.t
(** The primary system — the committed state.  Callers must not run
    transactions on it; use sessions. *)

val version : t -> int
(** The committed version: the number of published transitions. *)

val stats : t -> stats
val group_stats : t -> Durability.Group_commit.stats option

val group_pending : t -> int option
(** Commits queued for the next group round ([None] in [Memory]) —
    test synchronization for paused rounds. *)

val set_group_paused : t -> bool -> unit
(** Hold the group-commit leader before it collects a round — lets
    tests deterministically build batches bigger than one.  No effect
    in [Memory] mode. *)

val close : t -> unit
(** Close the durable store (WAL modes).  Stop any listener first. *)

(** {1 Sessions}

    The embedded face of the server: what the socket front-end drives,
    exposed directly so tests and benchmarks can run sessions in
    process (each from its own thread). *)

type session

val open_session : t -> session
val close_session : t -> session -> unit
(** Rolls back the session's open transaction, if any. *)

val exec_stmt : t -> session -> Ast.statement -> System.exec_result
(** Route one parsed statement for this session: [begin] forks a
    transaction, statements inside it run on the fork, [commit]
    validates and publishes (the result is rewritten to
    ["committed at version N"] so clients can order commits), a select
    or an EXECUTE of a prepared select outside a transaction reads the
    session's snapshot, other DML outside a transaction autocommits
    through the same fork-validate-publish path, and DDL — rejected
    inside server transactions — executes on the primary and conflicts
    with every concurrent transaction.  Every fork runs its statements
    through the session's one statement state (plans, shape memo,
    prepared statements).  {!exec_script} calls it for every statement
    it does not run as a memoized operation. *)

val exec_script : t -> session -> string -> (string, string) result
(** Run a [';']-separated script through [System.exec_with] with the
    session's statement state and {!exec_stmt}'s routing: statements
    of known shapes run from the session's plans without parsing.
    Rendered results joined by newlines, or the first error
    (statements before it keep their effects, as in the embedded
    REPL; a syntax error anywhere runs nothing). *)

val render_stats : t -> string

(** {1 The socket front-end}

    Line protocol (see {!Protocol}): one request line in — a SQL script
    or a ['\']-meta command ([\q], [\stats], [\version],
    [\checkpoint]) — one framed [ok]/[err] response out; a line over
    1 MiB is answered [err request too long] and the connection goes
    on.  SIGPIPE is ignored process-wide at {!start}, so a client that
    dies mid-conversation surfaces as [EPIPE]/[ECONNRESET] on its own
    connection: the handler rolls back the session's open transaction,
    counts a disconnect, and closes — other sessions never notice. *)

type listener

val start : ?host:string -> ?port:int -> t -> listener
(** Bind and listen ([port 0] — the default — picks an ephemeral port),
    accepting each connection onto its own thread. *)

val port : listener -> int
val stop : listener -> unit
(** Close the listening socket, shut down live connections, join all
    threads. *)
