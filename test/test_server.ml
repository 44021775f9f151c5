(* The concurrent-session server: sessions, snapshot reads,
   first-committer-wins validation, group commit, and the socket
   front-end.

   Four families:
   - unit tests for the signal-safe write helper (EINTR storms) and the
     group-commit leader/follower protocol (batching, collective
     failure);
   - session semantics over an in-memory server: snapshot isolation,
     conflict detection, rules on session transactions, DDL fencing,
     and generated schedules whose commit verdicts must equal the
     write-set history rule's;
   - durability: batches as single WAL records, fsync/append failures
     failing every member with exact snapshot restore, and recovery;
   - the socket layer: dead clients, and the two concurrency harnesses
     (concurrent sessions ≡ serial replay; SIGKILL under group commit
     keeps every batch all-or-none). *)

open Core
module Server = Sopr_server.Server
module Client = Sopr_server.Client
module Fileio = Relational.Fileio
module Wal = Relational.Wal
module Fault = Relational.Fault
module Durable = Durability.Durable
module Recovery = Durability.Recovery
module Group_commit = Durability.Group_commit

(* ------------------------------------------------------------------ *)
(* Scratch directories (same contract as the recovery harness)         *)

let scratch_root = Filename.get_temp_dir_name ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

let in_dir label f =
  incr dir_counter;
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "sopr-server-%d-%03d-%s" (Unix.getpid ()) !dir_counter
         label)
  in
  rm_rf d;
  mkdir_p d;
  match f d with
  | v ->
    rm_rf d;
    v
  | exception e ->
    Printf.eprintf "server harness: keeping failing data directory %s\n%!" d;
    raise e

(* Poll for an asynchronous condition (thread scheduling is not ours to
   command); fails the test after ~5s. *)
let eventually ?(timeout = 5.0) what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.002;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Session conveniences                                                 *)

let sx srv sess sql =
  match Server.exec_script srv sess sql with
  | Ok body -> body
  | Error e -> Alcotest.failf "unexpected error for %S: %s" sql e

let sx_err srv sess sql =
  match Server.exec_script srv sess sql with
  | Ok body -> Alcotest.failf "expected an error for %S, got: %s" sql body
  | Error e -> e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec probe i = i + m <= n && (String.sub s i m = sub || probe (i + 1)) in
  probe 0

(* Value-only canonical state: sorted row renderings per table, so it
   is comparable across systems whose handle orders differ (concurrent
   sessions interleave handle allocation; a serial replay does not). *)
let value_digest sys tables =
  String.concat "\n"
    (List.map
       (fun tbl ->
         let _cols, rows = System.query sys ("select * from " ^ tbl) in
         let rendered =
           List.sort compare
             (List.map
                (fun row ->
                  String.concat "|"
                    (Array.to_list (Array.map Value.to_string row)))
                rows)
         in
         tbl ^ ":" ^ String.concat ";" rendered)
       tables)

(* ------------------------------------------------------------------ *)
(* write_fully under an EINTR storm (the signal-safety regression)     *)

(* A pipe with a deliberately slow reader keeps the writer blocked in
   [write]; an interval timer then delivers SIGALRM every 2ms, so the
   blocked syscalls keep returning EINTR (OCaml installs handlers
   without SA_RESTART) and partial writes abound (the payload is far
   larger than the pipe buffer).  [write_fully] must deliver every byte
   anyway.  Before the EINTR retry existed, this test dies with
   [Unix_error (EINTR, "write", _)] out of the durability path's old
   bare [Unix.write] loop. *)
let test_write_fully_eintr () =
  let r, w = Unix.pipe () in
  let total = 4 * 1024 * 1024 in
  let payload = String.init total (fun i -> Char.chr ((i * 131) land 0xff)) in
  let received = Buffer.create total in
  let reader =
    Thread.create
      (fun () ->
        let buf = Bytes.create 8192 in
        let rec loop () =
          Thread.delay 0.0002;
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        in
        loop ())
      ()
  in
  let ticks = ref 0 in
  let old_alrm =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr ticks))
  in
  let set_timer v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
  in
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.;
      ignore (Sys.signal Sys.sigalrm old_alrm);
      (try Unix.close w with Unix.Unix_error _ -> ());
      (try Thread.join reader with _ -> ());
      try Unix.close r with Unix.Unix_error _ -> ())
    (fun () ->
      set_timer 0.002;
      Fileio.write_fully w payload;
      set_timer 0.;
      Unix.close w;
      Thread.join reader);
  Alcotest.(check int) "every byte arrived" total (Buffer.length received);
  Alcotest.(check bool) "bytes intact" true (Buffer.contents received = payload);
  Alcotest.(check bool) "the signal storm actually fired" true (!ticks > 0)

(* ------------------------------------------------------------------ *)
(* Group commit: leader/follower protocol                              *)

let gc_ops i = [ Wal.L_delete { table = "t"; id = i } ]

let test_group_batching () =
  let flushed = ref [] in
  let flock = Mutex.create () in
  let g =
    Group_commit.create ~flush:(fun txns ->
        Mutex.lock flock;
        flushed := txns :: !flushed;
        Mutex.unlock flock)
  in
  Group_commit.set_paused g true;
  let n = 6 in
  let threads =
    List.init n (fun i -> Thread.create (fun () -> Group_commit.submit g (gc_ops i)) ())
  in
  eventually "all submitters queued" (fun () -> Group_commit.pending g = n);
  Group_commit.set_paused g false;
  List.iter Thread.join threads;
  let st = Group_commit.stats g in
  Alcotest.(check int) "one flush round" 1 st.Group_commit.gc_batches;
  Alcotest.(check int) "six transactions carried" n st.Group_commit.gc_txns;
  Alcotest.(check int) "batch size recorded" n st.Group_commit.gc_max_batch;
  let ids =
    List.concat_map
      (List.filter_map (function
        | [ Wal.L_delete { id; _ } ] -> Some id
        | _ -> None))
      !flushed
  in
  Alcotest.(check (list int))
    "every transaction flushed exactly once, in queue order"
    (List.init n Fun.id) (List.sort compare ids)

let test_group_failure_collective () =
  let g = Group_commit.create ~flush:(fun _ -> failwith "disk on fire") in
  Group_commit.set_paused g true;
  let n = 3 in
  let failures = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Group_commit.submit g (gc_ops i) with
            | () -> ()
            | exception Failure msg -> failures.(i) <- msg)
          ())
  in
  eventually "all submitters queued" (fun () -> Group_commit.pending g = n);
  Group_commit.set_paused g false;
  List.iter Thread.join threads;
  Array.iteri
    (fun i msg ->
      Alcotest.(check string)
        (Printf.sprintf "submitter %d got the flush failure" i)
        "disk on fire" msg)
    failures;
  Alcotest.(check int) "one failed round" 1
    (Group_commit.stats g).Group_commit.gc_batches

(* ------------------------------------------------------------------ *)
(* Session semantics (in-memory server)                                *)

let test_sessions_basics () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  ignore (sx srv a "create table t (a int, b int)");
  Alcotest.(check int) "DDL bumps the version" 1 (Server.version srv);
  ignore (sx srv a "insert into t values (1, 10)");
  Alcotest.(check int) "autocommit publishes" 2 (Server.version srv);
  Alcotest.(check bool) "snapshot read sees it" true
    (contains (sx srv a "select * from t") "(1 row)");
  let body = sx srv a "begin; insert into t values (2, 20); commit" in
  Alcotest.(check bool) "commit reports its version" true
    (contains body "committed at version 3");
  Alcotest.(check bool) "both rows visible" true
    (contains (sx srv a "select * from t") "(2 rows)");
  ignore (sx srv a "begin; insert into t values (3, 30); rollback");
  Alcotest.(check int) "rollback publishes nothing" 3 (Server.version srv);
  Alcotest.(check bool) "rolled-back row absent" true
    (contains (sx srv a "select * from t") "(2 rows)");
  Alcotest.(check bool) "commit without a transaction is an error" true
    (contains (sx_err srv a "commit") "no open transaction");
  Alcotest.(check int) "two write transactions committed" 2
    (Server.stats srv).Server.sv_commits;
  Server.close_session srv a

let test_snapshot_isolation () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore (sx srv a "create table t (a int); insert into t values (1)");
  Alcotest.(check bool) "b sees the seed" true
    (contains (sx srv b "select * from t") "(1 row)");
  ignore (sx srv a "begin; insert into t values (2)");
  Alcotest.(check bool) "b's snapshot ignores a's open transaction" true
    (contains (sx srv b "select * from t") "(1 row)");
  Alcotest.(check bool) "a's transaction sees its own insert" true
    (contains (sx srv a "select * from t") "(2 rows)");
  ignore (sx srv a "commit");
  Alcotest.(check bool) "b's snapshot refreshes after the commit" true
    (contains (sx srv b "select * from t") "(2 rows)");
  Server.close_session srv a;
  Server.close_session srv b

let test_first_committer_wins () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore
    (sx srv a
       "create table acc (id int, bal int); insert into acc values (1, 100); \
        insert into acc values (2, 200)");
  (* write-write conflict on the same tuple: first committer wins *)
  ignore (sx srv a "begin; update acc set bal = 5 where id = 1");
  ignore (sx srv b "begin; update acc set bal = 7 where id = 1");
  ignore (sx srv a "commit");
  let msg = sx_err srv b "commit" in
  Alcotest.(check bool) "loser gets a serialization failure" true
    (contains msg "serialization failure");
  Alcotest.(check int) "conflict counted" 1 (Server.stats srv).Server.sv_conflicts;
  Alcotest.(check bool) "the winner's value stands" true
    (contains (sx srv b "select bal from acc where id = 1") "5");
  (* disjoint tuples: both commit *)
  ignore (sx srv a "begin; update acc set bal = 11 where id = 1");
  ignore (sx srv b "begin; update acc set bal = 22 where id = 2");
  ignore (sx srv a "commit");
  ignore (sx srv b "commit");
  Alcotest.(check bool) "disjoint writers both committed" true
    (contains (sx srv a "select * from acc where bal = 22") "(1 row)");
  (* inserts allocate fresh handles and can never collide *)
  ignore (sx srv a "begin; insert into acc values (3, 300)");
  ignore (sx srv b "begin; insert into acc values (4, 400)");
  ignore (sx srv a "commit");
  ignore (sx srv b "commit");
  Alcotest.(check bool) "concurrent inserters both committed" true
    (contains (sx srv a "select * from acc") "(4 rows)");
  Server.close_session srv a;
  Server.close_session srv b

(* The serializable escalation.  A rule's scalar-subquery read of a
   table a concurrent transaction UPDATED is invisible to handle-level
   validation: the read leaves no trace in the effect, and the updated
   row is not in the reader's write set.  Under plain snapshot
   isolation the commit below goes through against a stale bound
   (write skew); with [track_selects] the server claims the tables the
   transaction's rule processing read, and must retry. *)
let skew_setup =
  "create table bounds (lo int); insert into bounds values (10); create \
   table staff (sid int, sal int); create rule clamp when inserted into \
   staff then update staff set sal = (select lo from bounds) where sal < \
   (select lo from bounds)"

let test_serializable_rule_reads () =
  (* default config: snapshot isolation — the anomaly commits *)
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore (sx srv a skew_setup);
  ignore (sx srv b "begin; insert into staff values (1, 0)");
  ignore (sx srv a "update bounds set lo = 25");
  ignore (sx srv b "commit");
  Alcotest.(check bool) "SI: the clamp used the stale bound (write skew)"
    true
    (contains (sx srv a "select sal from staff") "10");
  Server.close_session srv a;
  Server.close_session srv b;
  (* track_selects: serializable — the stale rule read conflicts *)
  let config = { Engine.default_config with Engine.track_selects = true } in
  let srv = Server.create ~config Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore (sx srv a skew_setup);
  ignore (sx srv b "begin; insert into staff values (1, 0)");
  ignore (sx srv a "update bounds set lo = 25");
  let msg = sx_err srv b "commit" in
  Alcotest.(check bool) "serializable: stale rule read is a conflict" true
    (contains msg "serialization failure");
  Alcotest.(check int) "conflict counted" 1
    (Server.stats srv).Server.sv_conflicts;
  ignore (sx srv b "begin; insert into staff values (1, 0); commit");
  Alcotest.(check bool) "the retry clamps against the fresh bound" true
    (contains (sx srv a "select sal from staff") "25");
  Server.close_session srv a;
  Server.close_session srv b

(* Serializable mode claims every table the transaction's plans
   scanned or probed, so a predicate that matched nothing, which leaves
   no trace in the effect, still claims its table against a concurrent
   writer. *)
let test_serializable_empty_predicate () =
  let commit_after_foreign_write config =
    let srv = Server.create ?config Server.Memory in
    let a = Server.open_session srv and b = Server.open_session srv in
    ignore (sx srv a "create table p (x int); create table q (y int)");
    ignore (sx srv a "begin; update p set x = 1 where x = 99; insert into q values (1)");
    ignore (sx srv b "insert into p values (99)");
    let r = Server.exec_script srv a "commit" in
    Server.close_session srv a;
    Server.close_session srv b;
    r
  in
  (match commit_after_foreign_write None with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot isolation refused the commit: %s" e);
  let config = { Engine.default_config with Engine.track_selects = true } in
  match commit_after_foreign_write (Some config) with
  | Ok body -> Alcotest.failf "serializable committed over a claimed table: %s" body
  | Error e ->
    Alcotest.(check bool) "the empty predicate's table is claimed" true
      (contains e "serialization failure")

(* Write skew through an external procedure (Section 5.2): T1's rule
   calls [p], whose query reads b and whose block writes c, while T2
   reads c and writes b.  Serially one of them sees the other's row;
   committed side by side over one snapshot, b = 0 and c = 0.  The
   procedure's query is a read of b like any other, so T1 must
   retry. *)
let test_serializable_procedure_reads () =
  let config = { Engine.default_config with Engine.track_selects = true } in
  let srv = Server.create ~config Server.Memory in
  System.register_procedure (Server.system srv) "p" (fun ctx ->
      let rel =
        ctx.Procedures.query (Parser.parse_select_string "select count(*) from b")
      in
      let n = match rel.Eval.rows with [ [| Value.Int n |] ] -> n | _ -> -1 in
      List.map
        (function Ast.Stmt_op op -> op | _ -> Alcotest.fail "expected DML")
        (Parser.parse_script (Printf.sprintf "insert into c values (%d)" n)));
  let a = Server.open_session srv and b = Server.open_session srv in
  ignore
    (sx srv a
       "create table a (x int); create table b (y int); create table c (z \
        int); create rule r when inserted into a then call p");
  ignore (sx srv a "begin; insert into a values (1)");
  ignore (sx srv b "begin; insert into b (select count(*) from c); commit");
  Alcotest.(check bool) "the procedure's read of b is a conflict" true
    (contains (sx_err srv a "commit") "serialization failure");
  ignore (sx srv a "begin; insert into a values (1); commit");
  Alcotest.(check bool) "the retry counts T2's row" true
    (contains (sx srv a "select * from c where z = 1") "(1 row)");
  Alcotest.(check bool) "T2 counted no row of c" true
    (contains (sx srv a "select * from b where y = 0") "(1 row)");
  Server.close_session srv a;
  Server.close_session srv b

let test_rules_on_sessions () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore
    (sx srv a
       "create table t (a int); create table log (n int); create rule audit \
        when inserted into t then insert into log (select count(*) from \
        inserted t)");
  ignore (sx srv b "begin; insert into t values (1); insert into t values (2); commit");
  Alcotest.(check bool) "the rule fired once on the session's net effect" true
    (contains (sx srv a "select * from log") "(1 row)");
  Alcotest.(check bool) "and saw the whole transition" true
    (contains (sx srv a "select n from log") "2");
  Server.close_session srv a;
  Server.close_session srv b

let test_ddl_fencing () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore (sx srv a "create table t (a int); insert into t values (1)");
  (* DDL is not allowed inside a server transaction: on a fork it would
     mutate the shared rule index behind the primary's back *)
  ignore (sx srv a "begin; insert into t values (2)");
  Alcotest.(check bool) "DDL rejected inside a transaction" true
    (contains
       (sx_err srv a "create rule r1 when inserted into t then rollback")
       "DDL inside a server transaction");
  ignore (sx srv a "commit");
  (* DDL conflicts with every concurrently-started transaction *)
  ignore (sx srv b "begin; update t set a = 9 where a = 1");
  ignore (sx srv a "create index t_a on t (a)");
  Alcotest.(check bool) "transaction spanning DDL fails validation" true
    (contains (sx_err srv b "commit") "serialization failure");
  Server.close_session srv a;
  Server.close_session srv b

(* First committer wins even when the winner's write leaves the value
   as it was: validation compares row identity, and every published
   write installs a new row. *)
let test_unchanged_value_conflicts () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv and b = Server.open_session srv in
  ignore (sx srv a "create table kv (id int, v int); insert into kv values (1, 10)");
  ignore (sx srv b "begin; select v from kv where id = 1");
  ignore (sx srv a "begin; update kv set v = v where id = 1; commit");
  ignore (sx srv b "update kv set v = v + 1 where id = 1");
  Alcotest.(check bool) "the concurrent update of the same row loses" true
    (contains (sx_err srv b "commit") "serialization failure");
  Server.close_session srv a;
  Server.close_session srv b

(* Validation needs no record of past commits: a transaction opened
   before 10,000 others still loses on a row one of them updated, and
   still commits a row none of them touched. *)
let test_long_open_transaction () =
  let srv = Server.create Server.Memory in
  let w = Server.open_session srv in
  ignore (sx srv w "create table kv (id int, v int)");
  for k = 1 to 64 do
    ignore (sx srv w (Printf.sprintf "insert into kv values (%d, 0)" k))
  done;
  let loser = Server.open_session srv and winner = Server.open_session srv in
  ignore (sx srv loser "begin; update kv set v = v + 1 where id = 1");
  ignore (sx srv winner "begin; update kv set v = v + 1 where id = 2");
  for i = 0 to 9_999 do
    let k = if i = 5_000 then 1 else 3 + (i mod 62) in
    ignore (sx srv w (Printf.sprintf "update kv set v = v + 1 where id = %d" k))
  done;
  Alcotest.(check bool) "the row another commit updated loses" true
    (contains (sx_err srv loser "commit") "serialization failure");
  Alcotest.(check bool) "the untouched row commits" true
    (contains (sx srv winner "commit") "committed at version");
  Alcotest.(check bool) "the winner's update is published" true
    (contains (sx srv w "select v from kv where id = 2") "1");
  List.iter (Server.close_session srv) [ w; loser; winner ]

(* ------------------------------------------------------------------ *)
(* Durable group commit                                                *)

(* Run [BEGIN; sql; COMMIT] on its own session from a thread; store
   [Ok body] or the exception. *)
type txn_result = T_ok of string | T_err of string | T_exn of exn

let txn_thread srv sql =
  Thread.create
    (fun result ->
      let sess = Server.open_session srv in
      (match Server.exec_script srv sess ("begin; " ^ sql ^ "; commit") with
      | Ok body -> result := T_ok body
      | Error e -> result := T_err e
      | exception e -> result := T_exn e);
      Server.close_session srv sess)

let three_queued srv =
  (* all three committers are blocked in the paused round: the group
     queue length is the authoritative signal *)
  match Server.group_pending srv with Some n -> n = 3 | None -> false

let test_group_commit_one_record () =
  in_dir "group-batch" @@ fun dir ->
  let srv = Server.create ~data_dir:dir Server.Wal_sync in
  let a = Server.open_session srv in
  ignore (sx srv a "create table t (a int, b int)");
  Server.set_group_paused srv true;
  let results = Array.init 3 (fun _ -> ref (T_err "not run")) in
  let threads =
    List.init 3 (fun i ->
        txn_thread srv
          (Printf.sprintf "insert into t values (%d, %d)" i (i * 10))
          results.(i))
  in
  eventually "three commits queued" (fun () -> three_queued srv);
  Server.set_group_paused srv false;
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match !r with
      | T_ok body ->
        Alcotest.(check bool)
          (Printf.sprintf "writer %d committed" i)
          true
          (contains body "committed at version")
      | T_err e -> Alcotest.failf "writer %d failed: %s" i e
      | T_exn e -> Alcotest.failf "writer %d raised: %s" i (Printexc.to_string e))
    results;
  let st =
    match Server.group_stats srv with Some s -> s | None -> assert false
  in
  Alcotest.(check int) "one flush round" 1 st.Group_commit.gc_batches;
  Alcotest.(check int) "batch of three" 3 st.Group_commit.gc_max_batch;
  (* on disk: the whole round is ONE Batch record (one frame, one CRC) *)
  let scan = Wal.read ~dir ~gen:0 in
  let batches =
    List.filter_map
      (fun r ->
        match r.Wal.payload with
        | Wal.Batch { txns; _ } -> Some (List.length txns)
        | Wal.Txn _ | Wal.Ddl _ -> None)
      scan.Wal.records
  in
  Alcotest.(check (list int)) "one batch record carrying all three" [ 3 ] batches;
  Server.close srv;
  (* and it recovers *)
  let sys, _info = Recovery.restore dir in
  let _cols, rows = System.query sys "select * from t" in
  Alcotest.(check int) "all three transactions recovered" 3 (List.length rows)

(* Without fsync, commits still go through group-commit rounds: two
   sessions' commits land as [Wal.Batch] records (no [Wal.Txn]), and the
   directory recovers to the state the server published. *)
let test_nosync_batches () =
  in_dir "nosync-batch" @@ fun dir ->
  let srv = Server.create ~data_dir:dir Server.Wal_nosync in
  let a = Server.open_session srv and b = Server.open_session srv in
  ignore (sx srv a "create table t (a int, b int)");
  ignore (sx srv a "begin; insert into t values (1, 10); commit");
  ignore
    (sx srv b
       "begin; insert into t values (2, 20); update t set b = 11 where a = 1; \
        commit");
  let digest = Recovery.fingerprint (Server.system srv) in
  Server.close srv;
  let kinds =
    List.map
      (fun r ->
        match r.Wal.payload with
        | Wal.Batch { txns; _ } -> Printf.sprintf "batch of %d" (List.length txns)
        | Wal.Txn _ -> "txn"
        | Wal.Ddl _ -> "ddl")
      (Wal.read ~dir ~gen:0).Wal.records
  in
  Alcotest.(check (list string)) "each commit is a batch record"
    [ "ddl"; "batch of 1"; "batch of 1" ] kinds;
  let sys, _info = Recovery.restore dir in
  Alcotest.(check string) "recovers to the published state" digest
    (Recovery.fingerprint sys)

let test_batch_fsync_failure_fails_all () =
  in_dir "batch-fsync" @@ fun dir ->
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let srv = Server.create ~data_dir:dir Server.Wal_sync in
  let a = Server.open_session srv in
  ignore (sx srv a "create table t (a int); insert into t values (0)");
  let digest_before = Recovery.fingerprint (Server.system srv) in
  let version_before = Server.version srv in
  Fault.enable true;
  Fault.disarm ();
  Server.set_group_paused srv true;
  let results = Array.init 3 (fun _ -> ref (T_err "not run")) in
  let threads =
    List.init 3 (fun i ->
        txn_thread srv
          (Printf.sprintf "insert into t values (%d)" (100 + i))
          results.(i))
  in
  eventually "three commits queued" (fun () -> three_queued srv);
  (* the round's single append hits Wal_append then Wal_fsync; arm the
     second so the batch IS written and fsynced, but the writer is told
     it failed — the strictest case: every member must abort in memory
     even though the record is durable *)
  Fault.arm 2;
  Server.set_group_paused srv false;
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match !r with
      | T_exn (Fault.Injected Fault.Wal_fsync) -> ()
      | T_ok body -> Alcotest.failf "writer %d committed through a failed batch: %s" i body
      | T_err e -> Alcotest.failf "writer %d got a soft error: %s" i e
      | T_exn e -> Alcotest.failf "writer %d raised %s" i (Printexc.to_string e))
    results;
  Fault.disarm ();
  Alcotest.(check string) "every member aborted with its exact snapshot restored"
    digest_before
    (Recovery.fingerprint (Server.system srv));
  Alcotest.(check int) "no version published" version_before (Server.version srv);
  Alcotest.(check int) "no commit counted" 1 (Server.stats srv).Server.sv_commits;
  Server.close srv;
  (* the frame reached disk before the injected failure: recovery reads
     it and resolves in favour of the log, the only defensible reading
     of a record that is durable *)
  let sys, _info = Recovery.restore dir in
  let _cols, rows = System.query sys "select * from t" in
  Alcotest.(check int) "recovery replays the durable batch" 4 (List.length rows)

let test_batch_append_failure_fails_all () =
  in_dir "batch-append" @@ fun dir ->
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let srv = Server.create ~data_dir:dir Server.Wal_sync in
  let a = Server.open_session srv in
  ignore (sx srv a "create table t (a int); insert into t values (0)");
  let digest_before = Recovery.fingerprint (Server.system srv) in
  Fault.enable true;
  Fault.disarm ();
  Server.set_group_paused srv true;
  let results = Array.init 3 (fun _ -> ref (T_err "not run")) in
  let threads =
    List.init 3 (fun i ->
        txn_thread srv
          (Printf.sprintf "insert into t values (%d)" (200 + i))
          results.(i))
  in
  eventually "three commits queued" (fun () -> three_queued srv);
  (* fail BEFORE any byte reaches the file: nothing durable, every
     member aborts, memory and disk agree the batch never happened *)
  Fault.arm 1;
  Server.set_group_paused srv false;
  List.iter Thread.join threads;
  Array.iter
    (fun r ->
      match !r with
      | T_exn (Fault.Injected Fault.Wal_append) -> ()
      | other ->
        Alcotest.failf "expected the injected append failure, got %s"
          (match other with
          | T_ok b -> "commit: " ^ b
          | T_err e -> "error: " ^ e
          | T_exn e -> Printexc.to_string e))
    results;
  Fault.disarm ();
  Alcotest.(check string) "exact snapshot restore" digest_before
    (Recovery.fingerprint (Server.system srv));
  (* the server is fully operational: the claim window drained, so the
     same transactions retry cleanly *)
  let b = Server.open_session srv in
  ignore (sx srv b "begin; insert into t values (201); commit");
  Alcotest.(check bool) "retry commits" true
    (contains (sx srv b "select * from t") "(2 rows)");
  Server.close srv;
  let sys, _info = Recovery.restore dir in
  let _cols, rows = System.query sys "select * from t" in
  Alcotest.(check int) "disk agrees: seed plus the retry only" 2
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* The socket layer: dead clients                                      *)

(* Prepared statements over sessions: the namespace is per-session
   (every fork a session takes shares the session's one registry, and
   other sessions have their own), a statement keeps its compiled plan
   across EXECUTEs and forks, and DDL from another session invalidates
   — never stales — a prepared plan. *)
let test_prepared_sessions () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore (sx srv a "create table t (a int, b int)");
  ignore (sx srv a "insert into t values (1, 10); insert into t values (2, 20)");
  ignore (sx srv a "prepare by_a as select b from t where a = ?");
  Alcotest.(check bool) "EXECUTE of a prepared select" true
    (contains (sx srv a "execute by_a (2)") "(1 row)");
  Alcotest.(check bool) "re-EXECUTE with another binding" true
    (contains (sx srv a "execute by_a (1)") "(1 row)");
  (* the namespace is the session's, not the server's *)
  Alcotest.(check bool) "other sessions do not see the name" true
    (contains (sx_err srv b "execute by_a (1)") "unknown prepared statement");
  ignore (sx srv b "prepare by_a as select a from t where b = ?");
  Alcotest.(check bool) "same name, independent statement" true
    (contains (sx srv b "execute by_a (20)") "(1 row)");
  (* prepared DML autocommits like any operation *)
  ignore (sx srv a "prepare ins as insert into t values (?, ?)");
  let v0 = Server.version srv in
  ignore (sx srv a "execute ins (3, 30)");
  Alcotest.(check int) "prepared DML publishes a version" (v0 + 1)
    (Server.version srv);
  (* DDL from another session: the next EXECUTE sees the new catalog *)
  ignore (sx srv b "create index t_a_ix on t (a)");
  Alcotest.(check bool) "prepared select survives foreign DDL" true
    (contains (sx srv a "execute by_a (3)") "(1 row)");
  (* EXECUTE inside an explicit transaction, then rollback *)
  ignore (sx srv a "begin; execute ins (4, 40); rollback");
  Alcotest.(check bool) "rolled-back prepared insert absent" true
    (contains (sx srv a "select * from t") "(3 rows)");
  (* PREPARE survives a rollback (session state, not txn state) *)
  ignore (sx srv a "begin; prepare tmp as select a from t; rollback");
  Alcotest.(check bool) "PREPARE is not transactional" true
    (contains (sx srv a "execute tmp") "(3 rows)");
  ignore (sx srv a "begin; prepare kept as select b from t where a = ?; commit");
  Alcotest.(check bool) "a statement prepared in a committed transaction runs after it"
    true
    (contains (sx srv a "execute kept (2)") "20");
  (* DEALLOCATE then re-PREPARE under the same name must not run the
     stale plan out of a cached fork *)
  ignore (sx srv a "deallocate by_a");
  ignore (sx srv a "prepare by_a as select a + 100 from t where a = ?");
  Alcotest.(check bool) "re-PREPARE replaces the plan" true
    (contains (sx srv a "execute by_a (1)") "101");
  Server.close_session srv a;
  Server.close_session srv b

(* The session's statement state over \stats: the counters are summed
   over sessions, and repeated shapes — autocommits on a fork apiece,
   reads on the snapshot — are served the plans the first of each
   compiled. *)
let stat_of body name =
  let prefix = name ^ ": " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body)
  with
  | Some line ->
    let n = String.length prefix in
    int_of_string (String.sub line n (String.length line - n))
  | None -> Alcotest.failf "no %S line in \\stats:\n%s" name body

let stmt_counts srv =
  let body = Server.render_stats srv in
  ( stat_of body "stmt cache hits",
    stat_of body "stmt cache misses",
    stat_of body "stmt cache invalidations" )

let test_stmt_cache_hit_ratio () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  ignore (sx srv a "create table t (k int, v int)");
  let h0, m0, i0 = stmt_counts srv in
  for i = 1 to 100 do
    ignore (sx srv a (Printf.sprintf "insert into t values (%d, %d)" i (i * 7)));
    ignore (sx srv a (Printf.sprintf "select v from t where k = %d" i))
  done;
  let h1, m1, i1 = stmt_counts srv in
  let hits = h1 - h0 and lookups = h1 - h0 + (m1 - m0) + (i1 - i0) in
  Alcotest.(check int) "one plan lookup per statement" 200 lookups;
  let ratio = float_of_int hits /. float_of_int lookups in
  Alcotest.(check bool)
    (Printf.sprintf "hit ratio %.3f >= 0.99" ratio)
    true (ratio >= 0.99);
  Server.close_session srv a;
  Alcotest.(check bool) "a closed session's counts stay in the sum" true
    (stmt_counts srv = (h1, m1, i1))

(* A plan cached by one session is invalidated by another session's DDL
   and re-planned against the new catalog: session A's reader snapshot
   and its open transaction both run [select * from t] from one plan;
   session B re-creates [t] with its columns in another order. *)
let test_foreign_ddl_replans () =
  let srv = Server.create Server.Memory in
  let a = Server.open_session srv in
  let b = Server.open_session srv in
  ignore (sx srv a "create table t (x int, y string); insert into t values (1, 'one')");
  let header body = List.hd (String.split_on_char '\n' body) in
  Alcotest.(check string) "A's snapshot reads x, y" "x | y  "
    (header (sx srv a "select * from t"));
  ignore (sx srv a "select * from t");
  ignore (sx srv a "begin");
  let h0, _, _ = stmt_counts srv in
  Alcotest.(check string) "A's transaction reads x, y" "x | y  "
    (header (sx srv a "select * from t"));
  let h1, _, i1 = stmt_counts srv in
  Alcotest.(check int) "the transaction's fork is served the snapshot's plan"
    (h0 + 1) h1;
  ignore (sx srv a "insert into t values (2, 'two')");
  ignore (sx srv b "drop table t; create table t (y string, x int)");
  ignore (sx srv b "insert into t values ('three', 3)");
  Alcotest.(check bool) "A's transaction still aborts on the DDL" true
    (contains (sx_err srv a "commit") "serialization failure");
  Alcotest.(check string) "A's next read shows the new columns" "y     | x"
    (header (sx srv a "select * from t"));
  let _, _, i2 = stmt_counts srv in
  Alcotest.(check bool) "the cached plan was invalidated" true (i2 > i1);
  Alcotest.(check bool) "and the re-planned read sees the new table" true
    (contains (sx srv a "select * from t") "three");
  Server.close_session srv a;
  Server.close_session srv b

(* A request line over the 1 MiB cap is read to its newline, answered
   [err request too long] and counted as an error; the connection goes
   on serving. *)
let test_request_too_long () =
  let srv = Server.create Server.Memory in
  let listener = Server.start ~port:0 srv in
  Fun.protect ~finally:(fun () -> Server.stop listener) @@ fun () ->
  let c = Client.connect ~port:(Server.port listener) () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let huge = "select " ^ String.make (2 * 1024 * 1024) '1' in
  (match Client.request c huge with
  | Ok body -> Alcotest.failf "a 2 MiB request succeeded: %s" body
  | Error e -> Alcotest.(check string) "answered" "request too long" e);
  (match Client.request c "create table t (a int); insert into t values (7); select a from t" with
  | Ok body -> Alcotest.(check bool) "the next request succeeds" true (contains body "7")
  | Error e -> Alcotest.failf "request after the long line failed: %s" e);
  match Client.request c "\\stats" with
  | Ok body ->
    Alcotest.(check int) "no disconnect" 0 (stat_of body "disconnects");
    Alcotest.(check int) "the long line counted as an error" 1 (stat_of body "errors")
  | Error e -> Alcotest.failf "stats failed: %s" e

let test_dead_client () =
  let srv = Server.create Server.Memory in
  let listener = Server.start ~port:0 srv in
  Fun.protect ~finally:(fun () -> Server.stop listener) @@ fun () ->
  let port = Server.port listener in
  let c1 = Client.connect ~port () in
  (match Client.request c1 "create table t (a int); insert into t values (1)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup failed: %s" e);
  (* client 2 opens a transaction, updates, and vanishes without a word:
     its open transaction must be rolled back and counted, with no
     collateral damage to other sessions *)
  let c2 = Client.connect ~port () in
  (match Client.request c2 "begin; update t set a = 99 where a = 1" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "begin/update failed: %s" e);
  Client.close c2;
  (* client 3 fires a request and slams the door without reading the
     response, so the server's answer meets a dead socket (EPIPE or
     ECONNRESET — and never SIGPIPE, which is ignored) *)
  let fd3 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd3 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Sopr_server.Protocol.send_line fd3 "select * from t";
  Unix.close fd3;
  eventually "both disconnects observed" (fun () ->
      (Server.stats srv).Server.sv_disconnects >= 2);
  (* the dead session's transaction is gone: the row is untouched and
     not write-locked in any sense — a new transaction wins cleanly *)
  (match Client.request c1 "begin; update t set a = 2 where a = 1; commit" with
  | Ok body ->
    Alcotest.(check bool) "post-disconnect commit succeeds" true
      (contains body "committed at version")
  | Error e -> Alcotest.failf "post-disconnect commit failed: %s" e);
  (match Client.request c1 "select a from t" with
  | Ok body ->
    Alcotest.(check bool) "dead client's update was rolled back" true
      (contains body "2" && not (contains body "99"))
  | Error e -> Alcotest.failf "select failed: %s" e);
  Client.close c1

(* [\stats]' open-transaction count follows begin, rollback and a
   client that disconnects mid-transaction. *)
let test_open_transactions_stat () =
  let srv = Server.create Server.Memory in
  let listener = Server.start ~port:0 srv in
  Fun.protect ~finally:(fun () -> Server.stop listener) @@ fun () ->
  let open_txns () = stat_of (Server.render_stats srv) "open transactions" in
  let a = Server.open_session srv in
  ignore (sx srv a "create table kv (id int, v int); insert into kv values (1, 0)");
  Alcotest.(check int) "none open" 0 (open_txns ());
  ignore (sx srv a "begin; select v from kv where id = 1");
  Alcotest.(check int) "an idle transaction is open" 1 (open_txns ());
  ignore (sx srv a "rollback");
  Alcotest.(check int) "rollback closes it" 0 (open_txns ());
  let c = Client.connect ~port:(Server.port listener) () in
  (match Client.request c "begin; update kv set v = 1 where id = 1" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "begin/update failed: %s" e);
  Alcotest.(check int) "the client's transaction is open" 1 (open_txns ());
  Client.close c;
  eventually "the disconnect rolled the transaction back" (fun () ->
      (Server.stats srv).Server.sv_disconnects = 1 && open_txns () = 0);
  Server.close_session srv a

(* A request that raises outside SQL's errors — here a fault injected
   at query evaluation — is answered with [err internal: ...] and
   counted, and the server goes on serving: the same session and a new
   one both still work. *)
let test_internal_error_reply () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let srv = Server.create Server.Memory in
  let listener = Server.start ~port:0 srv in
  Fun.protect ~finally:(fun () -> Server.stop listener) @@ fun () ->
  let port = Server.port listener in
  let c1 = Client.connect ~port () in
  (match Client.request c1 "create table t (a int); insert into t values (1)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup failed: %s" e);
  (* a select passes the operation site, then the query site *)
  Fault.arm 2;
  (match Client.request c1 "select a from t" with
  | Ok body -> Alcotest.failf "expected an internal error, got %s" body
  | Error e ->
    Alcotest.(check bool) (Printf.sprintf "err internal reply (%s)" e) true
      (String.starts_with ~prefix:"internal: " e));
  Alcotest.(check bool) "the fault was at query evaluation" true
    (Fault.injected () = Some Fault.Query_eval);
  Fault.reset ();
  (match Client.request c1 "\\stats" with
  | Ok body ->
    Alcotest.(check bool) "stats count one internal error" true
      (contains body "internal errors: 1");
    Alcotest.(check bool) "not a disconnect" true (contains body "disconnects: 0")
  | Error e -> Alcotest.failf "stats failed: %s" e);
  (match Client.request c1 "select a from t" with
  | Ok body -> Alcotest.(check bool) "the session still works" true (contains body "(1 row)")
  | Error e -> Alcotest.failf "select after the fault failed: %s" e);
  let c2 = Client.connect ~port () in
  (match Client.request c2 "insert into t values (2); select a from t" with
  | Ok body -> Alcotest.(check bool) "a second session works" true (contains body "(2 rows)")
  | Error e -> Alcotest.failf "second session failed: %s" e);
  Client.close c1;
  Client.close c2

(* ------------------------------------------------------------------ *)
(* Differential: row-identity validation ≡ the write-set history rule  *)

(* Generated schedules interleave 2–4 sessions over two small tables;
   each commit's verdict on the server must equal a model that keeps
   every committed transition's write set — never pruned — and
   validates a commit against the transitions published after its
   start: any DDL, a shared deleted-or-updated handle, or (serializable)
   a claimed table that one of them wrote.  The model runs the same
   statements on its own embedded system, so its reads must equal the
   server's too. *)

type sched_op =
  | S_begin
  | S_read of string * int
  | S_update of string * int * bool  (* true: set v = v, value unchanged *)
  | S_delete of string * int
  | S_insert of string * int
  | S_commit
  | S_rollback
  | S_index

let sched_tables = [ "kv"; "kw" ]

let sched_setup =
  "create table kv (id int, v int); create table kw (id int, v int); insert \
   into kv values (1, 10), (2, 20), (3, 30), (4, 40); insert into kw values \
   (1, 10), (2, 20), (3, 30), (4, 40)"

let sched_sql step = function
  | S_begin -> "begin"
  | S_read (tb, k) -> Printf.sprintf "select v from %s where id = %d" tb k
  | S_update (tb, k, same) ->
    Printf.sprintf "update %s set v = %s where id = %d" tb
      (if same then "v" else "v + 1") k
  | S_delete (tb, k) -> Printf.sprintf "delete from %s where id = %d" tb k
  | S_insert (tb, k) -> Printf.sprintf "insert into %s values (%d, %d)" tb k step
  | S_commit -> "commit"
  | S_rollback -> "rollback"
  | S_index -> Printf.sprintf "create index ix%d on kv (id)" step

let gen_schedule st =
  let open QCheck.Gen in
  let n = int_range 2 4 st in
  let key = int_range 1 3 and tbl = oneofl sched_tables in
  let op =
    frequency
      [
        (6, return S_begin);
        (3, map2 (fun t k -> S_read (t, k)) tbl key);
        (4, map3 (fun t k same -> S_update (t, k, same)) tbl key bool);
        (1, map2 (fun t k -> S_delete (t, k)) tbl key);
        (1, map2 (fun t k -> S_insert (t, k)) tbl key);
        (4, return S_commit);
        (1, return S_rollback);
        (1, map (fun i -> if i = 0 then S_index else S_begin) (int_bound 3));
      ]
  in
  (n, list_size (int_range 20 50) (pair (int_bound (n - 1)) op) st)

let print_schedule (n, steps) =
  String.concat "\n"
    (Printf.sprintf "%d sessions" n
    :: List.mapi
         (fun i (s, op) -> Printf.sprintf "s%d: %s" s (sched_sql i op))
         steps)

(* The model's committed transitions, newest first. *)
type transition = {
  tr_version : int;
  tr_writes : Handle.Set.t;  (* deleted ∪ updated handles *)
  tr_tables : Effect.Col_set.t;  (* tables inserted, deleted or updated *)
  tr_ddl : bool;
}

exception Model_conflict of { after_ddl : bool }

type model = {
  m_sys : System.t;  (* the committed state *)
  m_serializable : bool;
  mutable m_version : int;
  mutable m_history : transition list;
}

let model_publish m txl ~start ~claims =
  let eff = txl.Engine.txl_effect in
  let add h _ acc = Handle.Set.add h acc in
  let writes =
    Effect.fold
      (fun _ p acc ->
        Handle.Map.fold add p.Effect.upd (Handle.Map.fold add p.Effect.del acc))
      eff Handle.Set.empty
  and tables =
    Effect.fold
      (fun tb p acc ->
        (* a part holding only reads ([track_selects]) wrote nothing *)
        if Handle.Set.is_empty p.Effect.ins && Handle.Map.is_empty p.Effect.del
           && Handle.Map.is_empty p.Effect.upd
        then acc
        else Effect.Col_set.add tb acc)
      eff Effect.Col_set.empty
  in
  let concurrent = List.filter (fun tr -> tr.tr_version > start) m.m_history in
  if
    List.exists
      (fun tr ->
        tr.tr_ddl
        || (not (Handle.Set.disjoint writes tr.tr_writes))
        || not (Effect.Col_set.disjoint claims tr.tr_tables))
      concurrent
  then
    raise (Model_conflict { after_ddl = List.exists (fun tr -> tr.tr_ddl) concurrent });
  let eng = System.engine m.m_sys in
  Engine.restore_database eng
    (Wal.apply (Engine.database eng) (Durable.dml_of_log txl));
  m.m_version <- m.m_version + 1;
  m.m_history <-
    { tr_version = m.m_version; tr_writes = writes; tr_tables = tables; tr_ddl = false }
    :: m.m_history

(* A model transaction: a fork of the committed state whose commit hook
   applies the history rule. *)
let model_begin m stmts =
  let fork = Engine.fork (System.engine m.m_sys) stmts in
  let start = m.m_version in
  Engine.set_commit_hook fork
    (Some
       (fun txl ->
         let claims =
           if m.m_serializable then Engine.tables_read fork else Effect.Col_set.empty
         in
         model_publish m txl ~start ~claims));
  Engine.begin_txn fork;
  System.of_engine fork

let render_all results = String.concat "\n" (List.map System.render_result results)

type sched_tally = {
  mutable sc_commits : int;
  mutable sc_conflicts : int;
  mutable sc_ddl_conflicts : int;  (* of them, with DDL among the concurrent *)
}

let sched_tally = { sc_commits = 0; sc_conflicts = 0; sc_ddl_conflicts = 0 }

let run_schedule ~serializable (n, steps) =
  let config = { Engine.default_config with Engine.track_selects = serializable } in
  let srv = Server.create ~config Server.Memory in
  let m =
    {
      m_sys = System.create ~config ();
      m_serializable = serializable;
      m_version = 0;
      m_history = [];
    }
  in
  let sessions = Array.init n (fun _ -> Server.open_session srv) in
  let stmts = Array.init n (fun _ -> Engine.new_statements ()) in
  (* each session's open model transaction *)
  let txns = Array.make n None in
  ignore (sx srv sessions.(0) sched_setup);
  ignore (System.exec m.m_sys sched_setup);
  let fail step what server model =
    QCheck.Test.fail_reportf "step %d (%s): server %s, model %s" step what server model
  in
  let show = function Ok body -> body | Error e -> "error " ^ e in
  (* the server's verdict on a commit must equal the model's *)
  let commit step s sql sys =
    let server = Server.exec_script srv sessions.(s) sql in
    let model =
      match Engine.commit (System.engine sys) with
      | Engine.Committed -> `Committed
      | Engine.Rolled_back -> `Rolled_back
      | exception Model_conflict { after_ddl } -> `Conflict after_ddl
    in
    txns.(s) <- None;
    match (server, model) with
    | Ok _, `Committed -> sched_tally.sc_commits <- sched_tally.sc_commits + 1
    | Error e, `Conflict after_ddl when contains e "serialization failure" ->
      sched_tally.sc_conflicts <- sched_tally.sc_conflicts + 1;
      if after_ddl then sched_tally.sc_ddl_conflicts <- sched_tally.sc_ddl_conflicts + 1
    | _ ->
      fail step sql (show server)
        (match model with
        | `Committed -> "committed"
        | `Rolled_back -> "rolled back"
        | `Conflict _ -> "serialization failure")
  in
  List.iteri
    (fun step (s, op) ->
      let sql = sched_sql step op in
      match (op, txns.(s)) with
      | S_begin, None ->
        ignore (sx srv sessions.(s) sql);
        txns.(s) <- Some (model_begin m stmts.(s))
      | (S_begin | S_index), Some _ | (S_commit | S_rollback), None -> ()
      | S_commit, Some sys -> commit step s sql sys
      | S_rollback, Some sys ->
        ignore (sx srv sessions.(s) sql);
        Engine.rollback_txn (System.engine sys);
        txns.(s) <- None
      | S_index, None ->
        ignore (sx srv sessions.(s) sql);
        ignore (System.exec m.m_sys sql);
        m.m_version <- m.m_version + 1;
        m.m_history <-
          {
            tr_version = m.m_version;
            tr_writes = Handle.Set.empty;
            tr_tables = Effect.Col_set.empty;
            tr_ddl = true;
          }
          :: m.m_history
      | S_read _, None ->
        let server = Server.exec_script srv sessions.(s) sql
        and model = Ok (render_all (System.exec m.m_sys sql)) in
        if server <> model then fail step sql (show server) (show model)
      | (S_read _ | S_update _ | S_delete _ | S_insert _), Some sys ->
        let server = Server.exec_script srv sessions.(s) sql
        and model = Ok (render_all (System.exec sys sql)) in
        if server <> model then fail step sql (show server) (show model)
      | (S_update _ | S_delete _ | S_insert _), None ->
        (* autocommit: one operation through the same validation *)
        let sys = model_begin m stmts.(s) in
        ignore (System.exec sys sql);
        commit step s sql sys)
    steps;
  let server = value_digest (Server.system srv) sched_tables
  and model = value_digest m.m_sys sched_tables in
  if server <> model then fail (List.length steps) "final state" server model;
  Array.iter (Server.close_session srv) sessions;
  true

(* 300 schedules per isolation level; the level's index salts the
   generator, so the two properties draw different schedules from one
   QCheck seed. *)
let prop_history_rule i serializable =
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "row-identity verdicts = history rule (%s)"
         (if serializable then "serializable" else "snapshot"))
    (QCheck.make ~print:print_schedule (fun st ->
         gen_schedule (Random.State.make [| Random.State.bits st; i |])))
    (run_schedule ~serializable)

let test_history_rule_not_vacuous () =
  let at_least what n got =
    Alcotest.(check bool) (Printf.sprintf "%s: %d >= %d" what got n) true (got >= n)
  in
  at_least "commits" 2000 sched_tally.sc_commits;
  at_least "serialization failures" 200 sched_tally.sc_conflicts;
  at_least "failures after DDL" 20 sched_tally.sc_ddl_conflicts

(* ------------------------------------------------------------------ *)
(* Differential: concurrent sessions ≡ serial replay                   *)

let diff_setup =
  [
    "create table acct (id int, bal int)";
    "create table counter (id int, n int)";
    "create table audit (n int)";
    "insert into counter values (0, 0)";
    "create rule tally when updated counter.n then insert into audit (select \
     n from new updated counter.n)";
  ]

let diff_tables = [ "acct"; "counter"; "audit" ]

let test_differential_concurrent_vs_serial () =
  let sessions = 4 and txns_per = 12 in
  let srv = Server.create Server.Memory in
  let s0 = Server.open_session srv in
  List.iter (fun sql -> ignore (sx srv s0 sql)) diff_setup;
  List.iter
    (fun s ->
      List.iter
        (fun k ->
          ignore
            (sx srv s0
               (Printf.sprintf "insert into acct values (%d, 0)" ((s * 10) + k))))
        [ 0; 1; 2 ])
    (List.init sessions Fun.id);
  (* each thread: bump a private row (usually conflict-free) and RMW the
     shared counter (the contention point), retrying on serialization
     failure; record each committed block with its published version *)
  let committed = ref [] in
  let clock = Mutex.create () in
  let record version block =
    Mutex.lock clock;
    committed := (version, block) :: !committed;
    Mutex.unlock clock
  in
  let parse_version body =
    (* "committed at version N" is the last line *)
    let n = String.length body in
    let rec last_line i = if i > 0 && body.[i - 1] <> '\n' then last_line (i - 1) else i in
    let line = String.sub body (last_line n) (n - last_line n) in
    match String.rindex_opt line ' ' with
    | Some i ->
      int_of_string
        (String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.failf "no version in %S" body
  in
  let worker s =
    let sess = Server.open_session srv in
    for k = 1 to txns_per do
      let row = (s * 10) + (k mod 3) in
      let block =
        Printf.sprintf
          "update acct set bal = bal + 1 where id = %d; update counter set n \
           = n + 1 where id = 0"
          row
      in
      let rec attempt tries =
        if tries > 200 then Alcotest.failf "worker %d starved" s;
        match
          Server.exec_script srv sess ("begin; " ^ block ^ "; commit")
        with
        | Ok body -> record (parse_version body) block
        | Error e when contains e "serialization failure" ->
          Thread.delay (0.0003 *. float_of_int (1 + (tries mod 5)));
          attempt (tries + 1)
        | Error e -> Alcotest.failf "worker %d: %s" s e
      in
      attempt 0
    done;
    Server.close_session srv sess
  in
  let threads =
    List.init sessions (fun s -> Thread.create worker s)
  in
  List.iter Thread.join threads;
  let total = sessions * txns_per in
  Alcotest.(check int) "every transaction eventually committed" total
    (List.length !committed);
  (* the shared counter proves no lost updates: snapshot reads plus
     first-committer-wins write validation serialize the RMW *)
  let final_n =
    match System.query_value (Server.system srv) "select n from counter" with
    | Value.Int n -> n
    | v -> Alcotest.failf "counter: %s" (Value.to_string v)
  in
  Alcotest.(check int) "no lost update on the contended counter" total final_n;
  (* serial replay in commit order on an embedded engine must reach the
     identical value state — the committed history IS serializable in
     version order *)
  let serial = System.create () in
  List.iter (fun sql -> ignore (System.exec serial sql)) diff_setup;
  List.iter
    (fun s ->
      List.iter
        (fun k ->
          ignore
            (System.exec serial
               (Printf.sprintf "insert into acct values (%d, 0)" ((s * 10) + k))))
        [ 0; 1; 2 ])
    (List.init sessions Fun.id);
  let in_order =
    List.sort (fun (v1, _) (v2, _) -> compare v1 v2) !committed
  in
  List.iter
    (fun (_v, block) -> ignore (System.exec serial ("begin; " ^ block ^ "; commit")))
    in_order;
  Alcotest.(check string) "concurrent history ≡ serial replay (value state)"
    (value_digest serial diff_tables)
    (value_digest (Server.system srv) diff_tables);
  Server.close_session srv s0

(* ------------------------------------------------------------------ *)
(* Crash: SIGKILL under group commit — per-batch all-or-none           *)

(* A forked child serves concurrent writers in sync WAL mode (every
   commit group-committed) and is SIGKILLed mid-stream; each
   transaction inserts K rows under one tag.  Whatever prefix survived,
   recovery must show every tag with 0 or K rows: a batch is one frame
   under one CRC, so no member transaction — and no prefix of one — can
   surface alone. *)
let test_sigkill_group_commit () =
  in_dir "crash-group" @@ fun root ->
  let dir = Filename.concat root "data" in
  let k_rows = 3 and writers = 4 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let srv = Server.create ~data_dir:dir Server.Wal_sync in
       let s = Server.open_session srv in
       ignore (sx srv s "create table m (tag int, seq int)");
       let worker w =
         let sess = Server.open_session srv in
         let i = ref 0 in
         while true do
           incr i;
           let tag = (w * 10000) + !i in
           let block =
             String.concat "; "
               (List.init k_rows (fun j ->
                    Printf.sprintf "insert into m values (%d, %d)" tag j))
           in
           ignore (Server.exec_script srv sess ("begin; " ^ block ^ "; commit"))
         done;
         ignore sess
       in
       let _threads = List.init writers (fun w -> Thread.create worker w) in
       (* die mid-activity once enough commits have published, with a
          hard cap so a wedged child cannot hang the suite *)
       let tries = ref 0 in
       while Server.version srv < 15 && !tries < 4000 do
         incr tries;
         Thread.delay 0.005
       done
     with _ -> ());
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    assert false
  | pid ->
    let _, status = Unix.waitpid [] pid in
    (match status with
    | Unix.WSIGNALED s when s = Sys.sigkill -> ()
    | _ -> Alcotest.fail "child did not die by SIGKILL");
    let scan = Wal.read ~dir ~gen:0 in
    Alcotest.(check bool) "no torn tail" false scan.Wal.torn;
    let batched_txns =
      List.fold_left
        (fun acc r ->
          match r.Wal.payload with
          | Wal.Batch { txns; _ } -> acc + List.length txns
          | Wal.Txn _ | Wal.Ddl _ -> acc)
        0 scan.Wal.records
    in
    Alcotest.(check bool) "the child committed through batches" true
      (batched_txns > 0);
    let sys, _info = Recovery.restore dir in
    let _cols, rows = System.query sys "select tag from m" in
    let counts = Hashtbl.create 64 in
    List.iter
      (fun row ->
        match row with
        | [| Value.Int tag |] ->
          Hashtbl.replace counts tag
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag))
        | _ -> Alcotest.fail "unexpected row shape")
      rows;
    Alcotest.(check bool) "some transactions survived" true
      (Hashtbl.length counts > 0);
    Hashtbl.iter
      (fun tag n ->
        if n <> k_rows then
          Alcotest.failf
            "transaction %d is torn: %d of %d rows survived the crash" tag n
            k_rows)
      counts

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "write_fully survives an EINTR storm" `Slow
      test_write_fully_eintr;
    Alcotest.test_case "group commit batches a paused round" `Quick
      test_group_batching;
    Alcotest.test_case "a failed flush fails every member" `Quick
      test_group_failure_collective;
    Alcotest.test_case "sessions: versions, autocommit, transactions" `Quick
      test_sessions_basics;
    Alcotest.test_case "snapshot isolation across sessions" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "first committer wins" `Quick test_first_committer_wins;
    Alcotest.test_case "serializable mode catches stale rule reads" `Quick
      test_serializable_rule_reads;
    Alcotest.test_case "serializable claims a predicate that matched nothing"
      `Quick test_serializable_empty_predicate;
    Alcotest.test_case "serializable claims a procedure's query" `Quick
      test_serializable_procedure_reads;
    Alcotest.test_case "rules fire on session transactions" `Quick
      test_rules_on_sessions;
    Alcotest.test_case "DDL fencing" `Quick test_ddl_fencing;
    Alcotest.test_case "an update that keeps the value still wins first" `Quick
      test_unchanged_value_conflicts;
    Alcotest.test_case "a transaction open across 10,000 commits" `Quick
      test_long_open_transaction;
    Helpers.qtest (prop_history_rule 0 false);
    Helpers.qtest (prop_history_rule 1 true);
    Alcotest.test_case "the history-rule differential is not vacuous" `Quick
      test_history_rule_not_vacuous;
    Alcotest.test_case "a group round is one WAL record" `Quick
      test_group_commit_one_record;
    Alcotest.test_case "nosync commits are batch records" `Quick
      test_nosync_batches;
    Alcotest.test_case "batch fsync failure fails every member" `Quick
      test_batch_fsync_failure_fails_all;
    Alcotest.test_case "batch append failure leaves nothing durable" `Quick
      test_batch_append_failure_fails_all;
    Alcotest.test_case "prepared statements are per-session" `Quick
      test_prepared_sessions;
    Alcotest.test_case "repeated shapes hit the session's plans" `Quick
      test_stmt_cache_hit_ratio;
    Alcotest.test_case "another session's DDL re-plans a cached plan" `Quick
      test_foreign_ddl_replans;
    Alcotest.test_case "an over-long request line is refused" `Quick
      test_request_too_long;
    Alcotest.test_case "dead clients roll back and disconnect" `Quick
      test_dead_client;
    Alcotest.test_case "\\stats counts open transactions" `Quick
      test_open_transactions_stat;
    Alcotest.test_case "an internal error is answered and counted" `Quick
      test_internal_error_reply;
    Alcotest.test_case "concurrent sessions equal serial replay" `Slow
      test_differential_concurrent_vs_serial;
    Alcotest.test_case "SIGKILL under group commit is all-or-none" `Slow
      test_sigkill_group_commit;
  ]
