(* The concurrent-session server: many client sessions multiplexed over
   one engine, with snapshot reads and first-committer-wins commits.

   The paper's semantics — a sequence of committed transitions, each
   one transaction's net effect — never required a single session; it
   only requires that the committed sequence LOOKS serial.  The server
   keeps exactly that: a PRIMARY engine holding the committed state
   (it never runs transactions itself), a monotone version counter
   and the version of the last DDL.  The committed database itself
   shows what changed since a transaction began.  Sessions work on
   [Engine.fork]s of the committed state:

   - Reads outside a transaction evaluate against a per-session
     snapshot fork, refreshed when the committed version moves.  The
     persistent storage makes the snapshot a pointer copy; readers
     never block writers and hold no locks while evaluating.

   - A transaction is a fork taken at some version v.  Its operations
     and rule processing run entirely on the fork.  At commit, a handle
     of the transaction's composite [Effect]'s write set (D ∪ U) whose
     committed row is gone, or is not physically the row of the fork's
     start state, was written after v.  Any such row, or any DDL after
     v, is a serialization failure and the transaction aborts with its
     exact snapshot restore.  First committer wins.  Inserts never
     collide — handles are minted from a process-global counter.

     Write-write validation alone is SNAPSHOT ISOLATION: write skew
     and phantoms are possible, because the effect does not record
     what a transaction READ — in particular a scalar subquery or a
     rule condition evaluated during rule processing leaves no trace in
     it at all.  When the engine is configured with [track_selects]
     the server escalates to SERIALIZABLE: every transaction also
     claims, at table granularity, the base tables its plans actually
     scanned or probed ([Engine.tables_read]) — its statements, failed
     ones included, and its rule processing: conditions, actions,
     subqueries and procedure queries.  A predicate that matched
     nothing still read its table, so it is claimed; a table the
     transaction never read cannot have shaped what it did.  A commit
     conflicts if a claimed table is no longer physically the table of
     the fork's start state: a transition after v WROTE it.  Table
     granularity over-approximates —
     disjoint-row writers to a table one of them reads will conflict
     and retry — which costs throughput under contention, never
     correctness.

   - A winning transaction becomes durable (a group-commit round's WAL
     append), and only THEN is applied to the primary and
     published under the next version.  The claim-to-publish window is
     tracked in [in_flight], so a concurrent committer conflicts with a
     transaction that is durable (or flushing) but not yet published.
     Publishes happen strictly in claim order, and a group-commit
     ticket is taken at claim time under the state lock, so claim
     order, WAL order and version order are one and the same — replay
     of the log reproduces exactly the published sequence.

   A script runs through [System.exec_with], the embedded shape-memo
   loop, with the server's routing; every fork a session takes runs
   through the session's one statement state (plans, shape memo,
   prepared registry), so a plan compiled on one fork serves the next.

   Locking: [lock] guards version/last_ddl/in-flight/open_txns/sessions
   and every primary-engine mutation; the durable layer's own I/O lock
   guards the disk (order: state lock first, never the reverse);
   group-commit tickets are taken (briefly, under the state lock) at
   claim time and awaited on its private mutex/condvar with neither
   lock held.  Session threads are systhreads — evaluation interleaves
   at safepoints within one domain, so the shared persistent
   structures need no further synchronization.  A session's statement
   state is used by its own thread only; the one mutable cache shared
   across sessions (compiled rule forms) is write-once per generation,
   where a race costs a recompile, not correctness. *)

open Core
module Ast = Sqlf.Ast
module Wal = Relational.Wal
module Fileio = Relational.Fileio
module Durable = Durability.Durable
module Group_commit = Durability.Group_commit

type mode = Memory | Wal_sync | Wal_nosync

let mode_name = function
  | Memory -> "memory"
  | Wal_sync -> "sync"
  | Wal_nosync -> "nosync"

type stats = {
  mutable sv_connections : int;
  mutable sv_requests : int;
  mutable sv_commits : int;  (* published transactions, DDL excluded *)
  mutable sv_conflicts : int;  (* serialization failures *)
  mutable sv_errors : int;  (* requests answered with err *)
  mutable sv_internal_errors : int;
      (* requests that raised outside SQL's errors, answered with
         err internal *)
  mutable sv_disconnects : int;  (* sessions that died mid-conversation *)
  mutable sv_checkpoint_failures : int;
}

(* The WAL modes' log and the group commit that is its one writer of
   transaction records: every commit joins a round, and a round is one
   [Wal.Batch] record, fsynced unless the mode is [Wal_nosync]. *)
type wal = { store : Durable.t; rounds : Group_commit.t }

type t = {
  lock : Mutex.t;
  commit_cond : Condition.t;  (* signalled whenever in_flight shrinks *)
  primary : System.t;
  wal : wal option;  (* [None] in [Memory] mode *)
  serializable : bool;  (* table-granularity read claims (track_selects) *)
  mutable version : int;
  mutable last_ddl : int;
      (* version of the newest DDL, which conflicts with every
         transaction started before it *)
  (* txn id, write set, tables written *)
  mutable in_flight : (int * Handle.Set.t * Effect.Col_set.t) list;
  mutable open_txns : int;  (* sessions with a transaction open *)
  mutable sessions : Engine.statements list;  (* of the open sessions *)
  mutable closed_counts : int * int * int;
      (* plan-table hits, misses and invalidations of closed sessions *)
  mutable next_session : int;
  mutable next_txn : int;
  stats : stats;
}

type session = {
  sid : int;
  mutable txn : System.t option;  (* the open transaction's fork *)
  mutable txn_id : int;
  mutable start_version : int;
  mutable committed_at : int;  (* version of this session's last commit *)
  mutable reader : (int * System.t) option;  (* cached snapshot fork *)
  stmts : Engine.statements;
      (* plans, shapes and prepared statements, shared by every fork
         the session takes *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?config ?checkpoint_interval ?data_dir mode =
  let wal, primary =
    match mode with
    | Memory -> (None, System.create ?config ())
    | Wal_sync | Wal_nosync ->
      let dir =
        match data_dir with
        | Some d -> d
        | None ->
          Errors.semantic "server mode %S requires a data directory"
            (mode_name mode)
      in
      let sync = mode <> Wal_nosync in
      let d, _info = Durable.open_dir ?config ?checkpoint_interval ~sync dir in
      let rounds = Group_commit.create ~flush:(Durable.append_txn_batch d) in
      (Some { store = d; rounds }, Durable.system d)
  in
  {
    lock = Mutex.create ();
    commit_cond = Condition.create ();
    primary;
    wal;
    serializable =
      (match config with
      | Some c -> c.Engine.track_selects
      | None -> false);
    version = 0;
    last_ddl = 0;
    in_flight = [];
    open_txns = 0;
    sessions = [];
    closed_counts = (0, 0, 0);
    next_session = 0;
    next_txn = 0;
    stats =
      {
        sv_connections = 0;
        sv_requests = 0;
        sv_commits = 0;
        sv_conflicts = 0;
        sv_errors = 0;
        sv_internal_errors = 0;
        sv_disconnects = 0;
        sv_checkpoint_failures = 0;
      };
  }

let system t = t.primary
let version t = with_lock t (fun () -> t.version)
let stats t = t.stats
let group_stats t = Option.map (fun w -> Group_commit.stats w.rounds) t.wal
let group_pending t = Option.map (fun w -> Group_commit.pending w.rounds) t.wal

let set_group_paused t paused =
  Option.iter (fun w -> Group_commit.set_paused w.rounds paused) t.wal

let close t = Option.iter (fun w -> Durable.close w.store) t.wal

(* ------------------------------------------------------------------ *)
(* Conflict detection                                                  *)

(* Tuples the transaction deleted or updated: the keys of D and U. *)
let writes_of (eff : Effect.t) =
  let add h _ s = Handle.Set.add h s in
  Effect.fold
    (fun _ (p : Effect.part) acc ->
      Handle.Map.fold add p.upd (Handle.Map.fold add p.del acc))
    eff Handle.Set.empty

(* Tables the transaction wrote — what later claimers' read claims are
   validated against. *)
let write_tables_of (eff : Effect.t) =
  Effect.fold
    (fun tbl (p : Effect.part) acc ->
      if
        Handle.Set.is_empty p.ins && Handle.Map.is_empty p.del
        && Handle.Map.is_empty p.upd
      then acc
      else Effect.Col_set.add tbl acc)
    eff Effect.Col_set.empty

(* Called with the state lock held.  What was published since the
   transaction forked [before] is told apart from the committed state
   now; what is claimed but not yet published is [in_flight].
   Handle-granularity write-write overlap gives snapshot isolation.
   [claims] (empty unless the server is serializable) is the
   transaction's table-granularity read set: a claimed table some
   concurrent transition wrote means the snapshot the transaction
   computed from may be stale, so it must retry.  The check is
   one-directional — a claimer checks transactions claimed before it,
   never the reverse — which is sound because publishes happen in claim
   order ({!await_publish_turn}): reads serialized BEFORE a write never
   needed to see it.  The cost is O(|writes| log n + |claims| +
   |in_flight|), however many commits or idle sessions there are. *)
let conflicts t ~start_version ~before ~writes ~claims =
  let now = Engine.database (System.engine t.primary) in
  (* Row identity is sound: every published write installs a new row. *)
  let written h =
    match (Database.find_row before h, Database.find_row now h) with
    | Some a, Some b -> a != b
    | None, None -> false
    | _ -> true
  in
  t.last_ddl > start_version
  || Handle.Set.exists written writes
  || Effect.Col_set.exists
       (fun tb -> Database.table now tb != Database.table before tb)
       claims
  || List.exists
       (fun (_, w, wt) ->
         not (Handle.Set.disjoint writes w && Effect.Col_set.disjoint claims wt))
       t.in_flight

(* ------------------------------------------------------------------ *)
(* The commit protocol                                                 *)

let serialization_failure () =
  Errors.raise_error
    (Errors.Transaction_error
       "serialization failure: a concurrent transaction committed a \
        conflicting write (retry the transaction)")

let unclaim t txn_id =
  t.in_flight <- List.filter (fun (id, _, _) -> id <> txn_id) t.in_flight;
  Condition.broadcast t.commit_cond

(* The in-flight validation is one-directional — a claimer checks the
   transactions claimed before it, never the other way round — so the
   serialization order must BE the claim order.  Publishes therefore
   wait until they are the oldest claim standing; a failed claim
   (durability error) releases its slot through {!unclaim}, which wakes
   the waiters.  Called with the state lock held. *)
let await_publish_turn t txn_id =
  let oldest () =
    match List.rev t.in_flight with
    | (id, _, _) :: _ -> id
    | [] -> txn_id
  in
  while oldest () <> txn_id do
    Condition.wait t.commit_cond t.lock
  done

(* A checkpoint needs a moment when no transaction sits between WAL
   append and primary apply: the image must not claim records the
   primary has not absorbed (cp_next_seq would then skip a durable but
   unapplied transaction).  Holding the state lock with [in_flight]
   empty is exactly that moment. *)
let maybe_checkpoint_locked t =
  match t.wal with
  | Some { store = d; _ } when Durable.checkpoint_due d && t.in_flight = [] -> (
    try Durable.checkpoint d
    with _ ->
      (* the committed transaction is already durable and published;
         a failed checkpoint only postpones log truncation *)
      t.stats.sv_checkpoint_failures <- t.stats.sv_checkpoint_failures + 1)
  | _ -> ()

(* The commit hook installed on every session fork.  Runs at the fork
   engine's commit point: a raise here makes the engine abort with its
   exact snapshot restore, which is how both serialization failures and
   failed WAL flushes surface to the session. *)
let session_commit_hook t session fork (txl : Engine.txn_log) =
  let eff = txl.Engine.txl_effect in
  let writes = writes_of eff in
  let wtables = write_tables_of eff in
  let claims =
    if t.serializable then Engine.tables_read fork else Effect.Col_set.empty
  in
  (* claim: conflict-check against the committed state and the
     claim-to-publish window, then enter that window.  A group-commit
     ticket is taken inside the same critical section, so WAL batch
     order is identical to claim order — and hence to publish/version
     order, since publishes wait their claim turn.  Without this a
     transaction claiming just before a round closes could queue into
     the NEXT round, stalling every later claimer of the current round
     behind a second fsync. *)
  let ops, ticket =
    with_lock t (fun () ->
        if
          conflicts t ~start_version:session.start_version
            ~before:txl.Engine.txl_before ~writes ~claims
        then begin
          t.stats.sv_conflicts <- t.stats.sv_conflicts + 1;
          serialization_failure ()
        end;
        let ops = Durable.dml_of_log txl in
        t.in_flight <- (session.txn_id, writes, wtables) :: t.in_flight;
        let ticket =
          Option.map (fun w -> (w.rounds, Group_commit.enqueue w.rounds ops)) t.wal
        in
        (ops, ticket))
  in
  (* make it durable — outside the state lock, so the round's append
     and fsync never block readers or other claims *)
  Option.iter
    (fun (rounds, tk) ->
      try Group_commit.await rounds tk
      with e ->
        with_lock t (fun () -> unclaim t session.txn_id);
        raise e)
    ticket;
  (* publish: apply to the primary and expose the new version, strictly
     in claim order *)
  with_lock t (fun () ->
      await_publish_turn t session.txn_id;
      unclaim t session.txn_id;
      let eng = System.engine t.primary in
      Engine.restore_database eng (Wal.apply (Engine.database eng) ops);
      t.version <- t.version + 1;
      session.committed_at <- t.version;
      t.stats.sv_commits <- t.stats.sv_commits + 1;
      maybe_checkpoint_locked t)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let open_session t =
  let stmts = Engine.new_statements () in
  with_lock t (fun () ->
      t.next_session <- t.next_session + 1;
      t.stats.sv_connections <- t.stats.sv_connections + 1;
      t.sessions <- stmts :: t.sessions;
      {
        sid = t.next_session;
        txn = None;
        txn_id = 0;
        start_version = 0;
        committed_at = 0;
        reader = None;
        stmts;
      })

(* Fork a transaction context from the committed state.  The fork (a
   pointer copy thanks to persistent storage) happens under the state
   lock so the snapshot is consistent with its recorded version. *)
let start_txn t session =
  let sys =
    with_lock t (fun () ->
        let eng = Engine.fork (System.engine t.primary) session.stmts in
        session.start_version <- t.version;
        t.next_txn <- t.next_txn + 1;
        session.txn_id <- t.next_txn;
        t.open_txns <- t.open_txns + 1;
        System.of_engine eng)
  in
  let eng = System.engine sys in
  Engine.set_commit_hook eng (Some (session_commit_hook t session eng));
  Engine.begin_txn eng;
  session.txn <- Some sys;
  sys

let end_txn t session =
  if Option.is_some session.txn then begin
    session.txn <- None;
    with_lock t (fun () -> t.open_txns <- t.open_txns - 1)
  end

let add_counts (h, m, i) stmts =
  let h', m', i' = Engine.statement_counts stmts in
  (h + h', m + m', i + i')

let close_session t session =
  (match session.txn with
  | Some sys ->
    (try Engine.rollback_txn (System.engine sys) with _ -> ());
    end_txn t session
  | None -> ());
  session.reader <- None;
  with_lock t (fun () ->
      if List.memq session.stmts t.sessions then begin
        t.closed_counts <- add_counts t.closed_counts session.stmts;
        t.sessions <- List.filter (( != ) session.stmts) t.sessions
      end)

(* The snapshot a non-transactional read evaluates against: cached per
   session, re-forked (under the lock, a pointer copy) whenever the
   committed version has moved.  Evaluation happens with no lock held. *)
let reader_sys t session =
  with_lock t (fun () ->
      match session.reader with
      | Some (v, sys) when v = t.version -> sys
      | _ ->
        let sys =
          System.of_engine (Engine.fork (System.engine t.primary) session.stmts)
        in
        session.reader <- Some (t.version, sys);
        sys)

(* ------------------------------------------------------------------ *)
(* Statement routing                                                   *)

(* DDL executes on the primary, under the state lock, and moves
   [last_ddl], which conflicts with everything: a session transaction
   forked before the DDL carries the old catalog and must not commit
   over the new one.  The durable layer's DDL hook logs the statement
   write-ahead as in the embedded system. *)
let exec_ddl t stmt =
  with_lock t (fun () ->
      let r = System.exec_statement t.primary stmt in
      t.version <- t.version + 1;
      t.last_ddl <- t.version;
      maybe_checkpoint_locked t;
      r)

(* Run [run] on the session's open transaction [sys], keeping the
   session's transaction bookkeeping in sync with the engine's: commit,
   rollback, a fired rollback rule, or an aborting error all close the
   engine transaction, and the session must notice whichever way the
   statement ended. *)
let in_txn t session sys run =
  Fun.protect
    ~finally:(fun () ->
      if not (Engine.in_transaction (System.engine sys)) then end_txn t session)
    (fun () -> run sys)

(* An operation arriving outside any transaction is an implicit
   single-operation transaction — the paper's default
   one-block-one-transaction behaviour, served through the same fork +
   conflict-check + publish path as explicit transactions. *)
let autocommit t session run =
  let sys = start_txn t session in
  match
    let r = run sys in
    (r, Engine.commit (System.engine sys))
  with
  | r, Engine.Committed ->
    end_txn t session;
    (match r with System.Relation _ -> r | _ -> System.Outcome Engine.Committed)
  | _, Engine.Rolled_back ->
    end_txn t session;
    System.Outcome Engine.Rolled_back
  | exception e ->
    if Engine.in_transaction (System.engine sys) then
      (try Engine.rollback_txn (System.engine sys) with _ -> ());
    end_txn t session;
    raise e

(* Route one operation, which [run] executes on the fork chosen: the
   open transaction's; outside one, a select reads the session's
   snapshot and anything else autocommits. *)
let exec_op t session op run =
  match (session.txn, op) with
  | Some sys, _ -> in_txn t session sys run
  | None, Ast.Select_op _ -> run (reader_sys t session)
  | None, (Ast.Insert _ | Ast.Delete _ | Ast.Update _) -> autocommit t session run

let exec_stmt t session (stmt : Ast.statement) =
  let run sys = System.exec_statement sys stmt in
  match (stmt, session.txn) with
  | Ast.Stmt_op op, _ -> exec_op t session op run
  | Ast.Stmt_execute (name, _), _ ->
    let p = Engine.find_prepared session.stmts name in
    exec_op t session (Engine.prepared_op p) run
  | _, Some _ when System.is_ddl stmt ->
    (* even rule DDL, which the engine allows mid-transaction, is
       rejected here: on a fork it would mutate the shared
       discrimination index behind the primary's back *)
    Errors.raise_error
      (Errors.Transaction_error "DDL inside a server transaction is not supported")
  | _, None when System.is_ddl stmt -> exec_ddl t stmt
  | Ast.Stmt_begin, None ->
    ignore (start_txn t session);
    System.Msg "transaction started"
  | (Ast.Stmt_commit | Ast.Stmt_rollback | Ast.Stmt_process_rules), None ->
    Errors.raise_error (Errors.Transaction_error "no open transaction")
  | Ast.Stmt_commit, Some sys -> (
    match in_txn t session sys run with
    | System.Outcome Engine.Committed ->
      (* surfacing the commit version lets clients order their commits
         against other sessions' (the differential harness replays in
         this order) *)
      System.Msg (Printf.sprintf "committed at version %d" session.committed_at)
    | r -> r)
  | _, Some sys -> in_txn t session sys run
  | _, None ->
    (* SHOW, DESCRIBE, EXPLAIN, PREPARE and DEALLOCATE: on the snapshot,
       with no locks held during evaluation *)
    run (reader_sys t session)

let route t session = function
  | `Statement stmt -> exec_stmt t session stmt
  | `Op (b : Engine.bound) ->
    exec_op t session b.bd_op (fun sys -> System.exec_bound sys b)

(* Statements before a failing one keep their effects (matching the
   embedded REPL); the error is reported and the rest of the script
   skipped. *)
let exec_script t session text =
  match System.exec_with (route t session) session.stmts text with
  | results -> Ok (String.concat "\n" (List.map System.render_result results))
  | exception Errors.Error e -> Error (Errors.to_string e)

(* ------------------------------------------------------------------ *)
(* Meta commands and stats rendering                                   *)

let render_stats t =
  let s = t.stats in
  let base =
    with_lock t (fun () ->
        let hits, misses, invalidations =
          List.fold_left add_counts t.closed_counts t.sessions
        in
        Printf.sprintf
          "version: %d\nconnections: %d\nrequests: %d\ncommits: %d\n\
           conflicts: %d\nerrors: %d\ninternal errors: %d\ndisconnects: %d\n\
           open transactions: %d\nstmt cache hits: %d\nstmt cache misses: %d\n\
           stmt cache invalidations: %d"
          t.version s.sv_connections s.sv_requests s.sv_commits s.sv_conflicts
          s.sv_errors s.sv_internal_errors s.sv_disconnects
          t.open_txns hits misses invalidations)
  in
  match group_stats t with
  | None -> base
  | Some g ->
    Printf.sprintf
      "%s\ngroup commit: %d batches, %d txns, max batch %d" base
      g.Group_commit.gc_batches g.Group_commit.gc_txns g.Group_commit.gc_max_batch

let checkpoint_now t =
  match t.wal with
  | None -> Error "no data directory (in-memory server)"
  | Some { store = d; _ } ->
    with_lock t (fun () ->
        if t.in_flight <> [] then
          Error "commits in flight; retry"
        else
          match Durable.checkpoint d with
          | () -> Ok (Printf.sprintf "checkpoint written (generation %d)"
                        (Durable.generation d))
          | exception Errors.Error e -> Error (Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* The socket front-end                                                *)

(* The longest request line read, in bytes. *)
let max_request = 1 lsl 20

(* [input_line]'s scan of a channel's buffer, which it fills as needed:
   [n > 0] when a newline ends the first [n] buffered bytes, [-n] when
   [n] are buffered without one (buffer full or input ended), [0] at
   the end of input. *)
external scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* One request line through [ic]'s buffer, collected in [buf]: [None]
   for a line over [max_request] bytes, read on to its newline and
   dropped a buffer at a time.  As with [input_line], the last line
   may lack its newline. *)
let read_request ic buf =
  Buffer.clear buf;
  let rec scan over =
    let n = scan_line ic in
    if n = 0 && Buffer.length buf = 0 && not over then raise End_of_file;
    Buffer.add_channel buf ic (abs n);
    let len = Buffer.length buf - Bool.to_int (n > 0) in
    let over = over || len > max_request in
    if over then Buffer.reset buf;
    if n < 0 then scan over else if over then None else Some (Buffer.sub buf 0 len)
  in
  scan false

(* One request line in ([None]: over [max_request]), one framed
   response out.  [`Quit] closes the conversation cleanly. *)
let handle_request t session line =
  t.stats.sv_requests <- t.stats.sv_requests + 1;
  match Option.map String.trim line with
  | None -> `Reply (Error "request too long")
  | Some "" -> `Reply (Ok "")
  | Some ("\\q" | "\\quit") -> `Quit
  | Some "\\stats" -> `Reply (Ok (render_stats t))
  | Some "\\version" -> `Reply (Ok (string_of_int (version t)))
  | Some "\\checkpoint" -> `Reply (checkpoint_now t)
  | Some other when other.[0] = '\\' ->
    `Reply (Error (Printf.sprintf "unknown meta command %S" other))
  | Some sql -> `Reply (exec_script t session sql)

(* A client that vanishes mid-conversation — closed socket, reset
   connection, broken pipe on our response — is a per-connection event:
   roll back its open transaction, count it, close the descriptor.
   SIGPIPE is ignored process-wide (see [serve]) so the failure arrives
   as EPIPE from write, never as a fatal signal. *)
let connection_dead = function
  | End_of_file -> true
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> true
  | Sys_error _ -> true
  | _ -> false

(* A request that raised outside SQL's errors — an injected fault, a
   failed assertion — is a server fault, not the client's: count it and
   log it to stderr. *)
let internal_error t session e =
  t.stats.sv_internal_errors <- t.stats.sv_internal_errors + 1;
  Printf.eprintf "sopr-server: session %d: internal error: %s\n%!" session.sid
    (Printexc.to_string e)

let handle_connection t fd =
  let session = open_session t in
  let ic = Unix.in_channel_of_descr fd in
  let buf = Buffer.create 256 in
  let clean = ref false in
  (try
     let rec loop () =
       match read_request ic buf with
       | line -> (
         match handle_request t session line with
         | `Quit ->
           Protocol.write_response fd ~ok:true "bye";
           clean := true
         | `Reply (Ok body) ->
           Protocol.write_response fd ~ok:true body;
           loop ()
         | `Reply (Error msg) ->
           t.stats.sv_errors <- t.stats.sv_errors + 1;
           Protocol.write_response fd ~ok:false msg;
           loop ()
         | exception e ->
           internal_error t session e;
           Protocol.write_response fd ~ok:false ("internal: " ^ Printexc.to_string e);
           loop ())
       | exception e when connection_dead e -> ()
     in
     loop ()
   with e -> if not (connection_dead e) then internal_error t session e);
  if not !clean then t.stats.sv_disconnects <- t.stats.sv_disconnects + 1;
  close_session t session;
  try Unix.close fd with Unix.Unix_error _ -> ()

type listener = {
  l_server : t;
  l_fd : Unix.file_descr;
  l_port : int;
  mutable l_thread : Thread.t;
  mutable l_conns : (Unix.file_descr * Thread.t) list;
  l_conns_lock : Mutex.t;
  mutable l_stopping : bool;
}

let port l = l.l_port

let accept_loop l =
  let rec loop () =
    match Unix.accept l.l_fd with
    | fd, _addr ->
      (* register under the lock BEFORE the thread can finish, and let
         the thread deregister itself, so the list tracks live
         connections only (not the total ever accepted) *)
      Mutex.lock l.l_conns_lock;
      let th =
        Thread.create
          (fun () ->
            handle_connection l.l_server fd;
            let me = Thread.id (Thread.self ()) in
            Mutex.lock l.l_conns_lock;
            l.l_conns <-
              List.filter (fun (_, t) -> Thread.id t <> me) l.l_conns;
            Mutex.unlock l.l_conns_lock)
          ()
      in
      l.l_conns <- (fd, th) :: l.l_conns;
      Mutex.unlock l.l_conns_lock;
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      () (* the listening socket was closed: shutting down *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* Ignore SIGPIPE for the whole process: a client that disconnects
   before reading its response must surface as EPIPE on our write (a
   per-connection error), not kill the server.  Idempotent. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let start ?(host = "127.0.0.1") ?(port = 0) t =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let l =
    {
      l_server = t;
      l_fd = fd;
      l_port = bound_port;
      l_thread = Thread.self () (* replaced below *);
      l_conns = [];
      l_conns_lock = Mutex.create ();
      l_stopping = false;
    }
  in
  l.l_thread <- Thread.create (fun () -> accept_loop l) ();
  l

let stop l =
  if not l.l_stopping then begin
    l.l_stopping <- true;
    (* closing the descriptor does not wake a thread blocked in accept;
       shutting the listening socket down does (the accept returns
       EINVAL), and the close follows once the loop has exited *)
    (try Unix.shutdown l.l_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Thread.join l.l_thread;
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    Mutex.lock l.l_conns_lock;
    let conns = l.l_conns in
    l.l_conns <- [];
    Mutex.unlock l.l_conns_lock;
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> try Thread.join th with _ -> ()) conns
  end
