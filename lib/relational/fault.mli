(** Deterministic fault injection for exception-safety testing.

    The engine's atomicity guarantees (paper Sections 2.1 and 4: blocks
    are indivisible, rollback restores the exact transaction-start
    state) must hold when an error is raised at any point of statement
    or rule execution.  The execution layers therefore call {!hit} at
    each interesting point; a test harness arms a countdown so the n-th
    hit raises {!Injected}, then checks the engine recovered to a
    well-defined state.  Injection is countdown-based and deterministic
    — randomness belongs in the (seeded) workload generator driving the
    harness, not here.

    Outside tests the module stays disabled and a [hit] is a single
    ref read. *)

(** Where a fault can be injected. *)
type site =
  | Dml_op  (** start of [Dml.exec_cop], the one entry point of every data manipulation operation *)
  | Query_eval
      (** a top-level compiled select — [Compile.eval_select], a select
          or INSERT ... SELECT plan run by [Dml] (queries, procedure
          reads) *)
  | Rule_condition  (** rule condition evaluation in the engine *)
  | Rule_action  (** rule action execution in the engine *)
  | Procedure_call  (** external procedure invocation (Section 5.2) *)
  | Commit_point  (** commit finalization, after rule processing succeeded *)
  | Wal_append
      (** before a WAL record's bytes reach the file: a crash here loses
          the record entirely *)
  | Wal_fsync
      (** after a WAL record is written, flushed and fsynced: a crash
          here leaves the record durable even though the writer never
          saw the append return *)
  | Checkpoint_write  (** before the checkpoint temp file is written *)
  | Checkpoint_rename
      (** after the temp file is durable, before the atomic rename
          publishes it *)

exception Injected of site
(** The injected fault.  Deliberately not an {!Errors.Error}: harnesses
    must be able to tell an induced fault from a genuine engine
    error. *)

val all_sites : site list

val engine_sites : site list
(** The sites on the in-memory execution path (DML, rules, commit) —
    the PR 2 exception-safety surface.  A purely in-memory workload
    never passes a durability site, so coverage assertions for such
    harnesses quantify over this list. *)

val durability_sites : site list
(** The sites on the WAL/checkpoint path, passed only when a durable
    sink is attached. *)

val site_name : site -> string

val enable : bool -> unit
(** Master switch.  [enable true] turns hit counting on (without
    arming); [enable false] disables counting and disarms. *)

val arm : int -> unit
(** [arm n] (n >= 1) enables the module and makes the [n]-th subsequent
    {!hit} raise {!Injected}; earlier hits only count.  After the fault
    fires the module returns to counting-only mode. *)

val disarm : unit -> unit
(** Cancel a pending countdown and zero the observation counter;
    counting stays in whatever state {!enable} chose. *)

val reset : unit -> unit
(** Return the module to its pristine disabled state: disabled,
    disarmed, observation counter and last-injected site cleared.  The
    countdown is process-global mutable state, so every harness that
    arms it must call [reset] from a [Fun.protect] finalizer —
    otherwise a test aborted between [arm] and the fault (an alcotest
    failure, an interrupted qcheck shrink run) leaks an armed countdown
    into the next test.  Cumulative per-site counts are kept (see
    {!reset_site_counts}). *)

val observed_hits : unit -> int
(** Hits observed since the last {!arm} or {!disarm}. *)

val injected : unit -> site option
(** Site of the most recent injected fault, if any since {!arm}. *)

val site_count : site -> int
(** Cumulative hits per site since {!reset_site_counts}; a harness uses
    this to prove every site was actually exercised. *)

val reset_site_counts : unit -> unit

val hit : site -> unit
(** Called by the execution layers at each injection site.  No-op when
    the module is disabled; raises {!Injected} when an armed countdown
    reaches zero. *)
