(** A durable system: {!Core.System} plus write-ahead logging and
    periodic checkpoints over a data directory.

    One WAL record per committed transition (DDL statement or
    transaction net effect), appended and fsynced at the engine's
    commit point before the in-memory commit completes; checkpoints
    write the full engine image, rotate the log, and prune superseded
    generations.  {!Recovery.restore} (or {!open_dir}, which calls it)
    rebuilds exactly the durable committed prefix after a crash. *)

open Core

type t

val open_dir :
  ?config:Engine.config ->
  ?checkpoint_interval:int ->
  ?sync:bool ->
  string ->
  t * Recovery.info
(** Open (creating if needed) a data directory: recover its state, open
    the current WAL generation for appending (truncating any torn
    tail), and attach the logging hooks.  [checkpoint_interval] enables
    automatic checkpoints after that many records (taken between
    transactions, never inside one).  [sync:false] drops every fsync —
    for measuring the durability overhead, not for data anyone loves.
    Raises [Semantic_error] on a non-positive interval. *)

val system : t -> System.t
(** The underlying system — queries and programmatic access.  Executing
    statements through it logs normally (the hooks live on the system);
    only auto-checkpointing needs {!exec}. *)

val exec : t -> string -> System.exec_result list
(** Execute a script through the logged system, then auto-checkpoint if
    the interval says so and no transaction is open. *)

val exec_one : t -> string -> System.exec_result

val checkpoint : t -> unit
(** Write a checkpoint now: publish the engine image under the next
    generation, start that generation's empty WAL, prune older
    generations.  Raises [Transaction_error] while a transaction is
    open — checkpoints capture committed states only. *)

val checkpoint_due : t -> bool
(** Whether the records-since-checkpoint counter has reached the
    configured interval.  The server consults this under its own state
    lock (a checkpoint must capture a moment with no commits in
    flight), so the decision and the act are exposed separately. *)

(** {1 Server write path}

    The concurrent server manages commits itself — conflict-checking
    session transactions against the committed state and applying
    winners to its primary engine — so it appends records directly
    instead of going through the engine commit hook.  All appends and
    checkpoints serialize on an internal I/O lock. *)

val dml_of_log : Engine.txn_log -> Relational.Wal.dml list
(** The physical net effect of a committed transaction, grounded
    against its before/after states: deletes of pre-existing handles,
    updates with their after images, inserts present in the after
    state — the exact op list a [Txn]/[Batch] record carries. *)

val append_txn_batch : t -> Relational.Wal.dml list list -> unit
(** Append a whole group-commit batch as ONE record carrying the
    current global handle counter — one frame, one CRC and, unless
    [sync:false], one fsync.  Recovery therefore replays all member
    transactions or none: a torn frame discards the entire batch. *)

(** Observability for the REPL's [.wal status]. *)
type status = {
  st_dir : string;
  st_gen : int;
  st_next_seq : int;
  st_wal_bytes : int;
  st_wal_records : int;
  st_records_since_ckpt : int;
  st_checkpoints : int list;
  st_sync : bool;
}

val status : t -> status
val pp_status : Format.formatter -> status -> unit

val dir : t -> string
val generation : t -> int

val close : t -> unit
(** Detach the hooks and close the log.  Idempotent.  The underlying
    system remains usable in memory; further mutations are no longer
    logged. *)
