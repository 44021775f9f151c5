(** Drive a registered scenario with generated traffic.

    Three drivers share one deterministic transaction stream (all
    blocks are generated up front from the profile's seed, so a run is
    reproducible from [seed] alone):

    - {!run_short}: in-memory differential — the same blocks executed
      on an indexed system and a scan (index-free) twin, with
      per-transaction result comparison and invariant checks.  This is
      the [dune runtest] short mode.
    - {!soak}: durable — a live fault-injection phase (PR 2 sites armed
      mid-run, abort-restores-snapshot asserted, fsync-point deaths
      survived by reopening) followed by a fork+SIGKILL crash phase
      (PR 5 harness), with invariants and scan/probe differential
      equivalence checked after every recovery.
    - {!throughput}: plain timed execution for the E17 benchmark and
      the CLI.

    All checks raise {!Check_failed}; drivers never assert through a
    test framework so the CLI and the benchmarks can reuse them. *)

open Core

exception Check_failed of string
(** An invariant violation or differential divergence, with scenario,
    context and detail in the message. *)

(** {2 Building blocks} *)

val setup_statements : ?indexes:bool -> Scenario.t -> Profile.t -> string list
(** The scenario's setup, optionally with [create index] statements
    filtered out ([indexes:false] builds the scan twin). *)

val build :
  ?indexes:bool -> ?config:Engine.config -> Scenario.t -> Profile.t ->
  System.t
(** A fresh in-memory system with the scenario's setup applied (one
    statement at a time — rule DDL must never share a script string
    with a following statement).  [config] overrides the scenario's
    engine configuration. *)

val gen_blocks : Scenario.t -> Profile.t -> string list
(** The profile's whole transaction stream: [txns] blocks from a fresh
    sampler seeded with [profile.seed]. *)

val state_digest : Scenario.t -> System.t -> string
(** Canonical value-only rendering of the scenario's observable tables
    (sorted rows, no handles) — comparable across independent systems
    and across recoveries.  Missing tables render as [<absent>]. *)

val check_invariants : Scenario.t -> context:string -> System.t -> unit
(** Evaluate every declared invariant; raise {!Check_failed} naming the
    first violated one. *)

(** One transaction's observable result: outcome plus select results
    with rows rendered and sorted (probe and scan twins may produce
    different physical row orders for the same unordered query), or
    the genuine-error string. *)
type block_result =
  | Done of Engine.outcome * (string list * string list) list
  | Failed of string

val run_block : System.t -> string -> block_result
(** Execute one generated block as one transaction.  Faults injected by
    an armed {!Core.Fault} countdown propagate ({!Fault.Injected} is
    not an engine error); genuine engine errors normalize to
    [Failed]. *)

val scenario_dir : string -> Scenario.t -> string
(** [scenario_dir root sc] is [root/<scenario name>], created empty:
    the scratch directory of one scenario's run, whatever an earlier
    run left there. *)

(** {2 Reports} *)

type report = {
  r_scenario : string;
  r_txns : int;  (** transactions driven (unique blocks, not retries) *)
  r_committed : int;
  r_rolled_back : int;
  r_injections : int;  (** live faults injected (soak only) *)
  r_fsync_deaths : int;  (** Wal_fsync deaths survived by reopening *)
  r_kills : int;  (** fork+SIGKILL crash/recovery rounds *)
  r_recoveries : int;  (** recoveries differentially checked *)
  r_checks : int;  (** invariant evaluations that held *)
}

val pp_report : Format.formatter -> report -> unit

(** {2 Drivers} *)

val run_short : ?check_every:int -> Scenario.t -> Profile.t -> report
(** The in-memory differential run described above.  [check_every]
    (default 4) sets how often digests and invariants are compared
    between per-transaction result checks. *)

val run_prepared_differential :
  ?check_every:int -> Scenario.t -> Profile.t -> report
(** The same stream executed directly and through PREPARE/EXECUTE:
    each generated statement has its bindable literals lifted into
    positional parameters ({!Ast.parameterize_op}), is prepared once
    per distinct shape, and runs by binding the lifted constants —
    asserting identical per-transaction results, value digests and
    invariants, and that repeated shapes were served from the
    prepared-plan cache. *)

val soak :
  dir:string -> ?kills:int -> ?fault_every:int -> Scenario.t -> Profile.t ->
  report
(** The durable fault+crash soak described above, using [dir] as the
    scratch root (created if needed; contents are disposable).  The
    transaction stream is driven twice — once through the live-fault
    phase, once as the crash phase's reference run — so the soak
    drives [2 * txns] transactions total.  [kills] (default 3) is the
    number of SIGKILL points; [fault_every] (default 5) arms a live
    fault on every n-th block of the fault phase. *)

val throughput : ?duration:float -> Scenario.t -> Profile.t -> float * int
(** Execute the stream (repeating it as needed) on an in-memory system
    for at least [duration] seconds (default 1.0) and return
    (transactions per second, transactions executed). *)
