(* The durability subsystem, proven by a kill-based recovery harness.

   The recovery invariant (stated in lib/durability/recovery.ml): after
   a crash at ANY point, [Recovery.restore] produces exactly the state
   of the committed-transition prefix whose WAL records were durable at
   the moment of death — nothing more, nothing less, and rule firings
   are never re-run on replay.

   Layers of this suite:

   - unit tests for the WAL frame format: the CRC-32 test vector,
     frame/scan round trips, torn tails at EVERY truncation offset of a
     multi-record image, corrupted bytes, and [open_append]'s
     truncate-then-resume behaviour;

   - unit tests for the checkpoint store: round trips, fallback past a
     corrupt newest generation, and the two checkpoint fault sites
     (both of which precede any state mutation, so a failed checkpoint
     leaves the store untouched and a retry just works);

   - targeted durability tests: live-equals-recovered fingerprints,
     replay of every DDL kind, write-ahead DDL fault windows,
     transaction-sensitive DDL, checkpoint-during-transaction
     rejection, and restore idempotence;

   - the systematic sweep: the PR 2 fault-injection workload driven
     through a durable system against an in-memory oracle, with a fault
     injected at hit point 1, 2, ... of every transaction.  An induced
     abort must leave disk describing the pre-transaction state; an
     injection at [Wal_fsync] (record durable, process died before the
     in-memory commit) is handled as process death — the store is
     reopened and must contain the committed transaction;

   - the crash harness: a forked child runs the workload and SIGKILLs
     itself at a chosen fault site; the parent restores the directory
     and checks it equals the reference prefix with the same number of
     durable transaction records.  A truncated-log corpus (every frame
     boundary, off-by-one cuts, random cuts, byte flips) covers the
     torn-tail windows a mid-[write] crash would leave.

   Data directories live under [SOPR_RECOVERY_DIR] when set (CI sets it
   so a failing directory can be uploaded as an artifact) and are kept
   on failure. *)

open Core
open Helpers
module Wal = Relational.Wal
module Checkpoint = Relational.Checkpoint
module Recovery = Durability.Recovery
module Durable = Durability.Durable
module FI = Test_fault_injection

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                  *)

let scratch_root =
  match Sys.getenv_opt "SOPR_RECOVERY_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.get_temp_dir_name ()

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

let fresh_dir label =
  incr dir_counter;
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "sopr-recovery-%d-%03d-%s" (Unix.getpid ()) !dir_counter
         label)
  in
  rm_rf d;
  mkdir_p d;
  d

(* Run [f] over a fresh directory: removed on success, kept (and named
   on stderr, for the CI artifact upload) on failure. *)
let in_dir label f =
  let d = fresh_dir label in
  match f d with
  | v ->
    rm_rf d;
    v
  | exception e ->
    Printf.eprintf "recovery harness: keeping failing data directory %s\n%!" d;
    raise e

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let flip_byte s pos =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* WAL frame format                                                     *)

let pp_record ppf (r : Wal.record) =
  match r.Wal.payload with
  | Wal.Ddl s -> Fmt.pf ppf "#%d ddl %S" r.Wal.seq s
  | Wal.Txn { handle_ctr; ops } ->
    Fmt.pf ppf "#%d txn ctr=%d ops=[%a]" r.Wal.seq handle_ctr
      (Fmt.list ~sep:Fmt.comma Wal.pp_dml)
      ops
  | Wal.Batch { handle_ctr; txns } ->
    Fmt.pf ppf "#%d batch ctr=%d txns=[%a]" r.Wal.seq handle_ctr
      (Fmt.list ~sep:Fmt.semi (Fmt.list ~sep:Fmt.comma Wal.pp_dml))
      txns

let record_t = Alcotest.testable pp_record ( = )

let sample_records =
  [
    { Wal.seq = 1; payload = Wal.Ddl "create table t (a int, b int)" };
    {
      Wal.seq = 2;
      payload =
        Wal.Txn
          {
            handle_ctr = 3;
            ops =
              [
                Wal.L_insert
                  { table = "t"; id = 1; row = [| vi 7; vnull |] };
                Wal.L_update { table = "t"; id = 1; row = [| vi 7; vi 8 |] };
                Wal.L_delete { table = "t"; id = 2 };
              ];
          };
    };
    (* an effect-free committed transaction still logs a record *)
    { Wal.seq = 3; payload = Wal.Txn { handle_ctr = 5; ops = [] } };
  ]

let sample_frames = List.map Wal.frame sample_records
let sample_image = Wal.file_header ^ String.concat "" sample_frames

(* Byte offsets at which a complete prefix of the image ends:
   [hdr; hdr+|f1|; hdr+|f1|+|f2|; ...]. *)
let boundaries_of frames =
  List.rev
    (List.fold_left
       (fun acc f -> (List.hd acc + String.length f) :: acc)
       [ String.length Wal.file_header ]
       frames)

let test_crc32 () =
  (* the standard CRC-32 check value (IEEE 802.3 / zlib polynomial) *)
  Alcotest.(check int) "check vector" 0xcbf43926 (Wal.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Wal.crc32 "");
  Alcotest.(check bool) "one-byte difference detected" true
    (Wal.crc32 "framed" <> Wal.crc32 "framee")

let test_frame_roundtrip () =
  let scan = Wal.scan_string sample_image in
  Alcotest.(check (list record_t)) "all records recovered" sample_records
    scan.Wal.records;
  Alcotest.(check bool) "not torn" false scan.Wal.torn;
  Alcotest.(check int) "valid prefix is the whole image"
    (String.length sample_image) scan.Wal.valid_len;
  List.iter2
    (fun r f ->
      Alcotest.(check int) "frame_size matches the frame" (String.length f)
        (Wal.frame_size r))
    sample_records sample_frames

(* Truncate the image at EVERY byte offset: the scan must return
   exactly the wholly-contained records, flag a torn tail iff the cut
   is not a frame boundary, and report the boundary as the valid
   prefix length. *)
let test_torn_tail_every_offset () =
  let hdr = String.length Wal.file_header in
  let boundaries = boundaries_of sample_frames in
  let total = String.length sample_image in
  for cut = 0 to total do
    let scan = Wal.scan_string (String.sub sample_image 0 cut) in
    let ctx = Printf.sprintf "cut at %d:" cut in
    if cut = 0 then begin
      (* an empty file: a crash between creation and the header write
         still recovers (as an empty log, not an error) *)
      Alcotest.(check bool) (ctx ^ " empty not torn") false scan.Wal.torn;
      Alcotest.(check int) (ctx ^ " no records") 0
        (List.length scan.Wal.records)
    end
    else if cut < hdr then begin
      Alcotest.(check bool) (ctx ^ " partial header is torn") true
        scan.Wal.torn;
      Alcotest.(check int) (ctx ^ " no records") 0
        (List.length scan.Wal.records);
      Alcotest.(check int) (ctx ^ " nothing valid") 0 scan.Wal.valid_len
    end
    else begin
      let contained = List.filter (fun b -> b <= cut) boundaries in
      let n = List.length contained - 1 in
      let last_boundary = List.nth contained n in
      Alcotest.(check (list record_t))
        (ctx ^ " wholly-contained records")
        (List.filteri (fun i _ -> i < n) sample_records)
        scan.Wal.records;
      Alcotest.(check bool)
        (ctx ^ " torn iff mid-frame")
        (cut <> last_boundary) scan.Wal.torn;
      Alcotest.(check int) (ctx ^ " valid prefix") last_boundary
        scan.Wal.valid_len
    end
  done

let test_corrupt_frame () =
  let boundaries = boundaries_of sample_frames in
  (* flip the last payload byte of the second frame: its CRC fails, the
     first record survives, the tail is discarded *)
  let b2 = List.nth boundaries 2 in
  let scan = Wal.scan_string (flip_byte sample_image (b2 - 1)) in
  Alcotest.(check (list record_t)) "valid prefix survives corruption"
    [ List.hd sample_records ] scan.Wal.records;
  Alcotest.(check bool) "corruption flagged" true scan.Wal.torn;
  Alcotest.(check int) "valid length stops before the bad frame"
    (List.nth boundaries 1) scan.Wal.valid_len;
  (* break the first frame's magic byte: nothing is readable *)
  let scan = Wal.scan_string (flip_byte sample_image (List.hd boundaries)) in
  Alcotest.(check int) "bad magic reads as empty" 0
    (List.length scan.Wal.records);
  Alcotest.(check bool) "bad magic is torn" true scan.Wal.torn

let test_open_append_truncates_torn_tail () =
  in_dir "append-torn" (fun dir ->
      let r1, r2, r3 =
        match sample_records with
        | [ a; b; c ] -> (a, b, c)
        | _ -> assert false
      in
      let w = Wal.create ~dir ~gen:0 () in
      Wal.append w r1;
      Wal.append w r2;
      Wal.close w;
      (* simulate a crash mid-append: half of the next frame *)
      let half = String.sub (Wal.frame r3) 0 (Wal.frame_size r3 / 2) in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644
          (Wal.path ~dir ~gen:0)
      in
      output_string oc half;
      close_out oc;
      let scan = Wal.read ~dir ~gen:0 in
      Alcotest.(check bool) "tail is torn" true scan.Wal.torn;
      Alcotest.(check (list record_t)) "records before the tear survive"
        [ r1; r2 ] scan.Wal.records;
      (* reopening truncates the tear and resumes cleanly *)
      let w = Wal.open_append ~dir ~gen:0 () in
      Alcotest.(check int) "writer resumes at the valid prefix"
        scan.Wal.valid_len (Wal.writer_size w);
      Wal.append w r3;
      Wal.close w;
      let scan = Wal.read ~dir ~gen:0 in
      Alcotest.(check bool) "log is whole again" false scan.Wal.torn;
      Alcotest.(check (list record_t)) "all three records readable"
        [ r1; r2; r3 ] scan.Wal.records;
      (* a missing generation reads as empty, not torn *)
      let scan = Wal.read ~dir ~gen:42 in
      Alcotest.(check bool) "missing file not torn" false scan.Wal.torn;
      Alcotest.(check int) "missing file empty" 0
        (List.length scan.Wal.records))

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                     *)

let test_checkpoint_roundtrip () =
  in_dir "ckpt" (fun dir ->
      Alcotest.(check bool) "missing dir has no generations" true
        (Checkpoint.generations ~dir:(Filename.concat dir "absent") = []);
      Alcotest.(check bool) "empty dir has no latest" true
        (Checkpoint.latest ~dir = None);
      Checkpoint.write ~dir ~gen:1 "payload one";
      Checkpoint.write ~dir ~gen:2 "payload two";
      Alcotest.(check (option string)) "read back" (Some "payload one")
        (Checkpoint.read ~dir ~gen:1);
      Alcotest.(check (list int)) "generations ascending" [ 1; 2 ]
        (Checkpoint.generations ~dir);
      Alcotest.(check (option (pair int string))) "latest wins"
        (Some (2, "payload two"))
        (Checkpoint.latest ~dir);
      (* a stray temp file (crash between write and rename) is ignored *)
      write_file (Filename.concat dir "checkpoint.tmp") "junk";
      Alcotest.(check (list int)) "tmp not a generation" [ 1; 2 ]
        (Checkpoint.generations ~dir);
      (* corrupt the newest: [latest] falls back to the previous one *)
      let p2 = Checkpoint.path ~dir ~gen:2 in
      write_file p2 (flip_byte (read_file p2) (String.length (read_file p2) - 1));
      Alcotest.(check (option string)) "corrupt snapshot unreadable" None
        (Checkpoint.read ~dir ~gen:2);
      Alcotest.(check (option (pair int string)))
        "latest skips the corrupt generation"
        (Some (1, "payload one"))
        (Checkpoint.latest ~dir);
      (* a truncated snapshot is equally invalid *)
      Checkpoint.write ~dir ~gen:3 "payload three";
      let p3 = Checkpoint.path ~dir ~gen:3 in
      let c3 = read_file p3 in
      write_file p3 (String.sub c3 0 (String.length c3 - 1));
      Alcotest.(check (option (pair int string))) "truncation detected"
        (Some (1, "payload one"))
        (Checkpoint.latest ~dir);
      Checkpoint.remove ~dir ~gen:2;
      Checkpoint.remove ~dir ~gen:3;
      Checkpoint.remove ~dir ~gen:3;
      (* removal is idempotent *)
      Alcotest.(check (list int)) "pruned" [ 1 ] (Checkpoint.generations ~dir))

let test_checkpoint_fault_sites () =
  FI.with_faults (fun () ->
      in_dir "ckpt-fault" (fun dir ->
          Checkpoint.write ~dir ~gen:1 "base";
          let tmp = Filename.concat dir "checkpoint.tmp" in
          (* site 1, [Checkpoint_write]: dies before the temp file *)
          Fault.arm 1;
          (match Checkpoint.write ~dir ~gen:2 "next" with
          | () -> Alcotest.fail "expected an injection"
          | exception Fault.Injected Fault.Checkpoint_write -> ()
          | exception Fault.Injected site ->
            Alcotest.failf "wrong site %s" (Fault.site_name site));
          Alcotest.(check bool) "no temp file written" false
            (Sys.file_exists tmp);
          Alcotest.(check (option (pair int string))) "previous still latest"
            (Some (1, "base"))
            (Checkpoint.latest ~dir);
          (* site 2, [Checkpoint_rename]: temp durable but unpublished *)
          Fault.arm 2;
          (match Checkpoint.write ~dir ~gen:2 "next" with
          | () -> Alcotest.fail "expected an injection"
          | exception Fault.Injected Fault.Checkpoint_rename -> ()
          | exception Fault.Injected site ->
            Alcotest.failf "wrong site %s" (Fault.site_name site));
          Alcotest.(check bool) "temp file left behind" true
            (Sys.file_exists tmp);
          Alcotest.(check (option string)) "generation 2 not published" None
            (Checkpoint.read ~dir ~gen:2);
          Alcotest.(check (option (pair int string))) "previous still latest"
            (Some (1, "base"))
            (Checkpoint.latest ~dir);
          (* both sites precede any mutation: the clean retry succeeds,
             overwriting the stale temp file *)
          Fault.disarm ();
          Checkpoint.write ~dir ~gen:2 "next";
          Alcotest.(check (option (pair int string))) "retry published"
            (Some (2, "next"))
            (Checkpoint.latest ~dir)))

(* ------------------------------------------------------------------ *)
(* Targeted durability tests                                            *)

let exact_fp = Recovery.fingerprint ~handles:true
let value_fp = Recovery.fingerprint ~handles:false

let test_restore_equals_live () =
  in_dir "basic" (fun dir ->
      let d, info = Durable.open_dir dir in
      Alcotest.(check int) "fresh dir: generation 0" 0 info.Recovery.ri_gen;
      Alcotest.(check bool) "fresh dir: no checkpoint" false
        info.Recovery.ri_checkpoint_used;
      Alcotest.(check int) "fresh dir: nothing replayed" 0
        info.Recovery.ri_records;
      let s = Durable.system d in
      run s "create table t (a int, b int)";
      run s
        "create rule bump when inserted into t then update t set b = a * 10 \
         where b is null";
      run s "insert into t values (1, null)";
      run s "insert into t values (2, 5)";
      run s "delete from t where a = 0";
      Alcotest.(check int) "rule fired in the live system" 10
        (int_cell s "select b from t where a = 1");
      let live = exact_fp s in
      Durable.close d;
      let sys1, info1 = Recovery.restore dir in
      (* the recovered state is the live state, tuple identity included,
         and the rule's effect was replayed physically — not re-fired *)
      Alcotest.(check string) "recovered equals live, handles included" live
        (exact_fp sys1);
      Alcotest.(check int) "no replay was skipped" 0
        info1.Recovery.ri_skipped_ddl;
      Alcotest.(check bool) "clean shutdown leaves no torn tail" false
        info1.Recovery.ri_torn;
      (* replay idempotence: restoring the same directory twice yields
         indistinguishable states *)
      let sys2, info2 = Recovery.restore dir in
      Alcotest.(check string) "restore is idempotent" (exact_fp sys1)
        (exact_fp sys2);
      Alcotest.(check int) "same records replayed" info1.Recovery.ri_records
        info2.Recovery.ri_records;
      Alcotest.(check int) "same last sequence" info1.Recovery.ri_last_seq
        info2.Recovery.ri_last_seq)

let test_ddl_replay_all_kinds () =
  in_dir "ddl-kinds" (fun dir ->
      let d, _ = Durable.open_dir dir in
      let s = Durable.system d in
      run s "create table t (a int, b int)";
      run s "create table dead (x int)";
      run s "create index t_a on t (a)";
      run s "create index dead_x on dead (x)";
      run s
        "create assertion nonneg check ((select count(*) from t where a < 0) \
         = 0)";
      run s
        "create assertion doomed check ((select count(*) from dead) >= 0)";
      run s
        "create rule fill when inserted into t then update t set b = a where \
         b is null and a in (select a from inserted t)";
      run s
        "create rule audit when inserted into dead then delete from dead \
         where x < 0";
      run s "create rule priority fill before audit";
      run s "deactivate rule audit";
      run s "activate rule audit";
      run s "deactivate rule fill";
      run s "insert into t values (1, null), (2, 5)";
      run s "activate rule fill";
      run s "insert into t values (3, null)";
      run s "drop index dead_x";
      run s "drop rule audit";
      run s "drop assertion doomed";
      run s "drop table dead";
      (* DDL is logged write-ahead, so a statement that failed when
         originally executed is in the log too; its replay fails
         against the identical catalog state and is skipped *)
      expect_error (fun () -> System.exec s "create table t (z int)");
      expect_error (fun () -> System.exec s "drop rule audit");
      let live = exact_fp s in
      Durable.close d;
      let sys_r, info = Recovery.restore dir in
      Alcotest.(check string) "every DDL kind replays" live (exact_fp sys_r);
      Alcotest.(check int)
        "exactly the originally-failing statements skipped" 2
        info.Recovery.ri_skipped_ddl;
      (* the deactivation window was respected: row 1 predates any
         active fill rule, row 3 was filled *)
      Alcotest.(check bool) "row 1 not retro-filled" true
        (int_cell sys_r "select count(*) from t where a = 1 and b is null"
         = 1);
      Alcotest.(check int) "row 3 filled" 3
        (int_cell sys_r "select b from t where a = 3"))

let test_ddl_fault_windows () =
  FI.with_faults (fun () ->
      in_dir "ddl-fault" (fun dir ->
          let d, _ = Durable.open_dir dir in
          let s = Durable.system d in
          run s "create table t (a int)";
          let tables sys = Database.table_names (System.database sys) in
          (* [Wal_append]: dies before any byte reaches the log — the
             statement is neither durable nor applied *)
          Fault.arm 1;
          (match System.exec s "create table u (a int)" with
          | _ -> Alcotest.fail "expected an injection"
          | exception Fault.Injected Fault.Wal_append -> ()
          | exception Fault.Injected site ->
            Alcotest.failf "wrong site %s" (Fault.site_name site));
          Fault.disarm ();
          Alcotest.(check bool) "not applied in memory" false
            (List.mem "u" (tables s));
          let sys_r, _ = Recovery.restore dir in
          Alcotest.(check bool) "not durable either" false
            (List.mem "u" (tables sys_r));
          (* [Wal_fsync]: the record is durable but the process died
             before applying the statement.  DDL is logged write-ahead,
             so recovery resolves in favour of the log. *)
          Fault.arm 2;
          (match System.exec s "create table u (a int)" with
          | _ -> Alcotest.fail "expected an injection"
          | exception Fault.Injected Fault.Wal_fsync -> ()
          | exception Fault.Injected site ->
            Alcotest.failf "wrong site %s" (Fault.site_name site));
          Fault.disarm ();
          Alcotest.(check bool) "the dying process never applied it" false
            (List.mem "u" (tables s));
          Durable.close d;
          let sys_r, info = Recovery.restore dir in
          Alcotest.(check bool) "recovered from the durable record" true
            (List.mem "u" (tables sys_r));
          Alcotest.(check int) "replay succeeded" 0
            info.Recovery.ri_skipped_ddl))

(* Transaction-sensitive DDL (CREATE/DROP TABLE/INDEX) is rejected
   inside a transaction, and must not be logged by the rejection; rule
   DDL is legal inside a transaction and survives rollback (the rule
   catalog is not part of the database state), so it IS logged. *)
let test_txn_ddl_logging () =
  in_dir "txn-ddl" (fun dir ->
      let d, _ = Durable.open_dir dir in
      let s = Durable.system d in
      run s "create table t (a int, b int)";
      run s "begin";
      run s "insert into t values (1, 1)";
      expect_error (fun () -> System.exec s "create table u (x int)");
      run s
        "create rule keep when inserted into t then update t set b = 0 where \
         b is null";
      run s "rollback";
      Alcotest.(check int) "insert rolled back" 0
        (int_cell s "select count(*) from t");
      Alcotest.(check int) "rule survived the rollback" 1
        (List.length
           (List.filter
              (fun r -> r.Rules.Rule.name = "keep")
              (Engine.rules (System.engine s))));
      let live = exact_fp s in
      Durable.close d;
      let sys_r, info = Recovery.restore dir in
      Alcotest.(check string) "recovered equals live" live (exact_fp sys_r);
      Alcotest.(check int) "the rejected statement was never logged" 0
        info.Recovery.ri_skipped_ddl)

let test_checkpoint_in_txn_rejected () =
  in_dir "ckpt-txn" (fun dir ->
      let d, _ = Durable.open_dir ~checkpoint_interval:1 dir in
      (* interval 1: the auto-checkpoint fires after the very first
         record *)
      ignore (Durable.exec d "create table t (a int)");
      Alcotest.(check int) "auto-checkpoint fired" 1 (Durable.generation d);
      ignore (Durable.exec d "begin");
      ignore (Durable.exec d "insert into t values (1)");
      (* an explicit checkpoint inside the transaction is rejected and
         leaves everything untouched *)
      expect_error (fun () -> Durable.checkpoint d);
      Alcotest.(check bool) "transaction still open" true
        (Engine.in_transaction (System.engine (Durable.system d)));
      Alcotest.(check int) "no generation consumed" 1 (Durable.generation d);
      ignore (Durable.exec d "insert into t values (2)");
      (* the overdue auto-checkpoint must also not fire mid-transaction *)
      Alcotest.(check int) "auto-checkpoint deferred in txn" 1
        (Durable.generation d);
      ignore (Durable.exec d "commit");
      (* ... and fires at the first safe point after the commit *)
      Alcotest.(check int) "deferred checkpoint taken after commit" 2
        (Durable.generation d);
      let live = exact_fp (Durable.system d) in
      Durable.close d;
      let sys_r, info = Recovery.restore dir in
      Alcotest.(check bool) "restored from the checkpoint" true
        info.Recovery.ri_checkpoint_used;
      Alcotest.(check int) "restored at the checkpoint generation" 2
        info.Recovery.ri_gen;
      Alcotest.(check string) "recovered equals live" live (exact_fp sys_r);
      (* interval validation *)
      expect_error (fun () ->
          Durable.open_dir ~checkpoint_interval:0 (Filename.concat dir "sub")))

(* ------------------------------------------------------------------ *)
(* The systematic sweep: PR 2's differential workload, durable.         *)

(* Non-vacuity counters, asserted by the coverage test at the end of
   the suite. *)
let rec_blocks_driven = ref 0
let rec_injections_total = ref 0
let rec_injected_at : (Fault.site, int) Hashtbl.t = Hashtbl.create 16

let note_injection site =
  incr rec_injections_total;
  Hashtbl.replace rec_injected_at site
    (1 + Option.value (Hashtbl.find_opt rec_injected_at site) ~default:0)

let open_harness_durable dir =
  let d, info = Durable.open_dir ~config:FI.harness_config dir in
  (* procedures are code, not data: they must be re-registered after
     every (re)open — the rules that call them were rebuilt from the
     log, the OCaml functions were not *)
  System.register_procedure (Durable.system d) "note_u" FI.note_u_proc;
  (d, info)

let setup_durable d =
  let s = Durable.system d in
  run s FI.schema_sql;
  List.iter (run s) FI.rules_sql

(* Drive one transaction on the durable system with a fault injected at
   hit point 1, 2, ... until an attempt runs fault-free.

   - An induced abort (any site up to and including [Wal_append], where
     no byte reached the log) must leave disk describing the
     pre-transaction state: [Recovery.restore] equals the live system
     bit for bit, handles included (checked on a sample of injections —
     each check replays the whole log).  The attempt is retried.

   - An injection at [Wal_fsync] means the record became durable but
     the committing process died before its in-memory commit: disk is
     ahead of memory.  The only consistent continuation is process
     death, so the harness abandons the live system, reopens the
     directory, and does NOT retry — the transaction is committed, and
     retrying would apply it twice.

   A committed block's hit sequence always ends [..., Wal_append,
   Wal_fsync], so a full sweep would close and reopen the store on
   EVERY committed block and never get to compare a cleanly-committed
   result against the oracle.  [kill_fsync] therefore selects a sample
   of blocks for the fsync-death window; the rest stop the sweep after
   the [Wal_append] abort and finish with a clean, comparable commit. *)
let sweep_block ~dir ~kill_fsync d r_oracle block =
  let finish_clean () =
    let r = FI.run_block (Durable.system !d) block in
    FI.check_same_result "durable vs oracle" r_oracle r
  in
  let rec attempt k =
    let live = Durable.system !d in
    Fault.arm k;
    match FI.run_block live block with
    | r ->
      Fault.disarm ();
      FI.check_same_result "durable vs oracle" r_oracle r
    | exception Fault.Injected Fault.Wal_fsync ->
      Fault.disarm ();
      note_injection Fault.Wal_fsync;
      Durable.close !d;
      let d', info = open_harness_durable dir in
      Alcotest.(check bool) "no torn tail after an fsync-point death" false
        info.Recovery.ri_torn;
      d := d'
    | exception Fault.Injected site ->
      Fault.disarm ();
      note_injection site;
      if !rec_injections_total mod 7 = 0 then begin
        let sys_r, _ = Recovery.restore ~config:FI.harness_config dir in
        Alcotest.(check string)
          (Printf.sprintf "restore after an abort at %s equals the live state"
             (Fault.site_name site))
          (exact_fp live) (exact_fp sys_r)
      end;
      if site = Fault.Wal_append && not kill_fsync then finish_clean ()
      else attempt (k + 1)
  in
  attempt 1

(* A systematic sweep over the checkpoint fault sites.  Both precede
   any mutation of the durable store's state, so a failed checkpoint
   changes nothing and the clean retry succeeds. *)
let sweep_checkpoint d dir =
  let fp0 = exact_fp (Durable.system d) in
  let gen0 = Durable.generation d in
  List.iter
    (fun (k, expected_site) ->
      Fault.arm k;
      (match Durable.checkpoint d with
      | () -> Alcotest.fail "expected an injection"
      | exception Fault.Injected site ->
        note_injection site;
        Alcotest.(check string) "checkpoint faulted at the expected site"
          (Fault.site_name expected_site)
          (Fault.site_name site));
      Fault.disarm ();
      Alcotest.(check int) "failed checkpoint left the generation" gen0
        (Durable.generation d);
      let sys_r, _ = Recovery.restore ~config:FI.harness_config dir in
      Alcotest.(check string) "failed checkpoint changed nothing durable" fp0
        (exact_fp sys_r))
    [ (1, Fault.Checkpoint_write); (2, Fault.Checkpoint_rename) ];
  Durable.checkpoint d;
  Alcotest.(check int) "retried checkpoint advanced the generation" (gen0 + 1)
    (Durable.generation d);
  let sys_r, info = Recovery.restore ~config:FI.harness_config dir in
  Alcotest.(check bool) "restores from the new checkpoint" true
    info.Recovery.ri_checkpoint_used;
  Alcotest.(check string) "checkpointed restore equals live"
    (exact_fp (Durable.system d))
    (exact_fp sys_r)

let run_recovery_sweep ~seed ~blocks_n dir =
  FI.with_faults (fun () ->
      let st = Random.State.make [| seed |] in
      let blocks = List.init blocks_n (fun _ -> FI.gen_block st) in
      let oracle = FI.make_system ~config:FI.harness_config () in
      let d = ref (fst (open_harness_durable dir)) in
      setup_durable !d;
      List.iteri
        (fun i block ->
          incr rec_blocks_driven;
          let r_oracle = FI.run_block oracle block in
          sweep_block ~dir ~kill_fsync:((i + 1) mod 10 = 0) d r_oracle block;
          (* after every transaction, disk and the in-memory oracle must
             agree with the durable system's live state *)
          Alcotest.(check string) "durable state tracks the oracle"
            (value_fp oracle)
            (value_fp (Durable.system !d));
          if (i + 1) mod 8 = 0 then sweep_checkpoint !d dir)
        blocks;
      let live = Durable.system !d in
      let sys_r, _ = Recovery.restore ~config:FI.harness_config dir in
      Alcotest.(check string) "final restore equals live, handles included"
        (exact_fp live) (exact_fp sys_r);
      Durable.close !d)

let test_systematic_sweep () =
  List.iter
    (fun seed ->
      with_seed_reported seed (fun () ->
          in_dir
            (Printf.sprintf "sweep-%d" seed)
            (run_recovery_sweep ~seed ~blocks_n:80)))
    (seed_streams ~default:[ 11; 29; 63; 101 ])

(* ------------------------------------------------------------------ *)
(* The crash harness: SIGKILL at fault sites, truncated-log corpus.     *)

(* The reference run: the same workload executed cleanly on a durable
   system, recording (a) the value fingerprint after the setup and
   after each committed block — [fps.(k)] is the expected state of any
   recovery whose log holds [k] transaction records, because block
   execution is deterministic and every committed block appends exactly
   one [Txn] record — and (b) the cumulative fault-site hit count after
   each block, which locates the WAL sites of a chosen block for
   precise kills. *)
let test_kill_and_truncation () =
  FI.with_faults (fun () ->
      in_dir "crash" (fun root ->
          let seed = seed ~default:1234 and blocks_n = 25 in
          with_seed_reported seed @@ fun () ->
          let st = Random.State.make [| seed |] in
          let blocks = List.init blocks_n (fun _ -> FI.gen_block st) in
          let ref_dir = Filename.concat root "reference" in
          let d, _ = open_harness_durable ref_dir in
          setup_durable d;
          Fault.enable true;
          Fault.disarm ();
          let fps = ref [ value_fp (Durable.system d) ] in
          let commit_hits = ref [] in
          List.iter
            (fun block ->
              (match FI.run_block (Durable.system d) block with
              | Ok (Engine.Committed, _) ->
                fps := value_fp (Durable.system d) :: !fps;
                commit_hits := Fault.observed_hits () :: !commit_hits
              | Ok (Engine.Rolled_back, _) | Error _ -> ()))
            blocks;
          let total_hits = Fault.observed_hits () in
          Fault.reset ();
          Durable.close d;
          let fps = Array.of_list (List.rev !fps) in
          let commit_hits = Array.of_list (List.rev !commit_hits) in
          let n_committed = Array.length commit_hits in
          Alcotest.(check bool)
            (Printf.sprintf "reference run committed blocks (%d)" n_committed)
            true (n_committed >= 5);

          (* ---- SIGKILL sweep ---------------------------------------- *)
          (* A committed block's last three hits are [Commit_point],
             [Wal_append], [Wal_fsync] — so [c-1] kills with the record
             lost and [c] kills with the record durable.  Target those
             windows for three blocks, plus an even spread over the whole
             run. *)
          let targeted =
            List.concat_map
              (fun i -> [ commit_hits.(i) - 1; commit_hits.(i) ])
              [ 0; n_committed / 2; n_committed - 1 ]
          in
          let spread =
            List.init 8 (fun j -> 1 + total_hits * (j + 1) / 10)
          in
          let kill_points = List.sort_uniq compare (targeted @ spread) in
          List.iter
            (fun h ->
              let kdir = Filename.concat root (Printf.sprintf "kill-%d" h) in
              flush stdout;
              flush stderr;
              match Unix.fork () with
              | 0 ->
                (* the child re-runs the deterministic workload and dies
                   by real SIGKILL at the [h]-th fault-site hit: no
                   atexit, no buffer flushing, no unwinding — a crash *)
                (try
                   Fault.reset ();
                   let d, _ = open_harness_durable kdir in
                   setup_durable d;
                   Fault.arm h;
                   List.iter
                     (fun b ->
                       ignore (FI.run_block (Durable.system d) b))
                     blocks
                 with _ -> ());
                Unix.kill (Unix.getpid ()) Sys.sigkill;
                assert false
              | pid ->
                let _, status = Unix.waitpid [] pid in
                (match status with
                | Unix.WSIGNALED s when s = Sys.sigkill -> ()
                | _ -> Alcotest.fail "child did not die by SIGKILL");
                let scan = Wal.read ~dir:kdir ~gen:0 in
                (* a kill between syscalls never tears a frame: writes
                   are atomic; torn tails only come from mid-write
                   crashes, covered by the truncation corpus below *)
                Alcotest.(check bool) "SIGKILL leaves no torn tail" false
                  scan.Wal.torn;
                let k =
                  List.length
                    (List.filter
                       (fun r ->
                         match r.Wal.payload with
                         | Wal.Txn _ | Wal.Batch _ -> true
                         | Wal.Ddl _ -> false)
                       scan.Wal.records)
                in
                Alcotest.(check bool) "durable prefix within the reference"
                  true
                  (k < Array.length fps);
                let sys_r, info = Recovery.restore ~config:FI.harness_config kdir in
                Alcotest.(check int) "no skipped replays" 0
                  info.Recovery.ri_skipped_ddl;
                Alcotest.(check string)
                  (Printf.sprintf
                     "kill at hit %d recovers the committed prefix (%d txns)" h
                     k)
                  fps.(k) (value_fp sys_r))
            kill_points;

          (* ---- truncated-log corpus --------------------------------- *)
          let bytes = read_file (Wal.path ~dir:ref_dir ~gen:0) in
          let full = Wal.scan_string bytes in
          Alcotest.(check bool) "reference log intact" false full.Wal.torn;
          let n_setup =
            List.length
              (List.filter
                 (fun r ->
                   match r.Wal.payload with
                   | Wal.Ddl _ -> true
                   | Wal.Txn _ | Wal.Batch _ -> false)
                 full.Wal.records)
          in
          Alcotest.(check int) "the workload itself produced no DDL"
            (n_setup + n_committed)
            (List.length full.Wal.records);
          let boundaries =
            Array.of_list
              (boundaries_of (List.map Wal.frame full.Wal.records))
          in
          let hdr = String.length Wal.file_header in
          let len = String.length bytes in
          Alcotest.(check int) "boundary arithmetic covers the file" len
            boundaries.(Array.length boundaries - 1);
          (* every frame boundary, every boundary's neighbours, and a
             seeded spray of arbitrary offsets *)
          let rst = Random.State.make [| 987 |] in
          let cuts =
            List.sort_uniq compare
              (List.concat_map
                 (fun b -> [ b - 1; b; b + 1 ])
                 (Array.to_list boundaries)
              @ List.init 150 (fun _ -> Random.State.int rst (len + 1)))
            |> List.filter (fun c -> c >= 0 && c <= len)
          in
          let case = ref 0 in
          let check_image label image expected_frames expected_torn =
            incr case;
            let tdir =
              Filename.concat root (Printf.sprintf "trunc-%04d" !case)
            in
            mkdir_p tdir;
            write_file (Filename.concat tdir (Wal.file_name 0)) image;
            let sys_r, info = Recovery.restore ~config:FI.harness_config tdir in
            Alcotest.(check int) (label ^ ": records replayed") expected_frames
              info.Recovery.ri_records;
            Alcotest.(check bool) (label ^ ": torn flag") expected_torn
              info.Recovery.ri_torn;
            (* the fingerprint is checkable once the whole setup DDL
               prefix is present: then the recovered state must be the
               reference state after the same number of committed
               transactions *)
            if expected_frames >= n_setup then
              Alcotest.(check string)
                (label ^ ": recovers the committed prefix")
                fps.(expected_frames - n_setup)
                (value_fp sys_r);
            (* and every image, however mangled, restores idempotently *)
            let sys_r2, _ = Recovery.restore ~config:FI.harness_config tdir in
            Alcotest.(check string) (label ^ ": restore idempotent")
              (exact_fp sys_r) (exact_fp sys_r2);
            rm_rf tdir
          in
          List.iter
            (fun cut ->
              let frames_in cut =
                let n = ref (-1) in
                Array.iteri (fun i b -> if b <= cut then n := i) boundaries;
                !n
              in
              let label = Printf.sprintf "cut at %d" cut in
              if cut = 0 then
                check_image label (String.sub bytes 0 cut) 0 false
              else if cut < hdr then
                check_image label (String.sub bytes 0 cut) 0 true
              else
                let n = frames_in cut in
                check_image label (String.sub bytes 0 cut) n
                  (cut <> boundaries.(n)))
            cuts;
          (* byte flips: corrupting the last payload byte of frame [f]
             invalidates its CRC, so exactly the first [f] frames
             survive *)
          List.iter
            (fun _ ->
              let f =
                n_setup
                + Random.State.int rst (Array.length boundaries - 1 - n_setup)
              in
              let image = flip_byte bytes (boundaries.(f + 1) - 1) in
              check_image (Printf.sprintf "flip in frame %d" f) image f true)
            (List.init 20 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Coverage: the suite was not vacuous.                                 *)

let test_recovery_coverage () =
  Alcotest.(check bool)
    (Printf.sprintf "enough transactions driven (%d)" !rec_blocks_driven)
    true
    (!rec_blocks_driven >= 300);
  List.iter
    (fun site ->
      let n =
        Option.value (Hashtbl.find_opt rec_injected_at site) ~default:0
      in
      Alcotest.(check bool)
        (Printf.sprintf "site %s was injected (%d injections)"
           (Fault.site_name site) n)
        true (n > 0))
    Fault.all_sites

let suite =
  [
    Alcotest.test_case "crc32 check vector" `Quick test_crc32;
    Alcotest.test_case "frame/scan round trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "torn tail at every truncation offset" `Quick
      test_torn_tail_every_offset;
    Alcotest.test_case "corrupt frames stop the scan" `Quick
      test_corrupt_frame;
    Alcotest.test_case "open_append truncates a torn tail" `Quick
      test_open_append_truncates_torn_tail;
    Alcotest.test_case "checkpoint store round trip" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint fault sites leave no trace" `Quick
      test_checkpoint_fault_sites;
    Alcotest.test_case "recovered state equals live state" `Quick
      test_restore_equals_live;
    Alcotest.test_case "every DDL kind replays" `Quick
      test_ddl_replay_all_kinds;
    Alcotest.test_case "write-ahead DDL fault windows" `Quick
      test_ddl_fault_windows;
    Alcotest.test_case "transaction-sensitive DDL logging" `Quick
      test_txn_ddl_logging;
    Alcotest.test_case "checkpoint rejected inside a transaction" `Quick
      test_checkpoint_in_txn_rejected;
    Alcotest.test_case "systematic sweep (faults at every durable site)" `Slow
      test_systematic_sweep;
    Alcotest.test_case "SIGKILL crashes and truncated logs" `Slow
      test_kill_and_truncation;
    Alcotest.test_case "recovery harness coverage" `Slow
      test_recovery_coverage;
  ]
