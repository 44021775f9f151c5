(** Drive a scenario through the concurrent-session server.

    The generated transaction stream is partitioned round-robin over
    [clients] real TCP sessions, each wrapping its blocks in
    [begin; ...; commit] and retrying on serialization failure.  The
    run then proves serializability: commits report their publish
    versions, the committed blocks are replayed in that order on a
    plain in-memory system, and the value digests must match.  The
    server runs with [track_selects] on, which escalates it from
    snapshot isolation (write skew possible) to serializable:
    table-granularity read claims join the commit validation — without
    them the replay check genuinely fails under durable commit
    latencies, as rule conditions and scalar subqueries read tables
    their transaction never writes.  The
    scenario's invariants are checked on the server's primary system,
    and the server's conflict counter must agree with the clients'.

    All failures raise {!Runner.Check_failed}. *)

type report = {
  sd_scenario : string;
  sd_clients : int;
  sd_txns : int;  (** unique blocks driven, not retries *)
  sd_committed : int;
  sd_rolled_back : int;  (** rule-initiated rollbacks (net effect empty) *)
  sd_conflicts : int;  (** serialization failures, all retried *)
  sd_checks : int;  (** invariant evaluations + the replay differential *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  ?clients:int ->
  ?mode:Sopr_server.Server.mode ->
  ?data_dir:string ->
  Scenario.t ->
  Profile.t ->
  report
(** Defaults: 4 clients, {!Sopr_server.Server.Memory} (no [data_dir]
    needed).  WAL modes require [data_dir]: each scenario runs in its
    own directory [data_dir/<scenario>], emptied first, so it starts
    from no tables and rules whatever an earlier run left. *)
