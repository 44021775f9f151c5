(* A durable system: a [Core.System] with a write-ahead log and
   periodic checkpoints attached through the engine's narrow seams.

   Write path, per committed transaction:

     process rules to quiescence
     Fault.Commit_point
     commit hook: build the physical record from the transaction's
       composite effect, append + fsync     (Wal_append / Wal_fsync)
     in-memory commit completes

   If the append fails, the engine aborts the transaction — memory and
   disk agree the transaction never happened.  If the process dies
   after the fsync but before the commit returns, disk is ahead of the
   dying process's memory; recovery resolves in favour of the log,
   which is the only defensible reading (the record is durable, so the
   transition did commit).

   Checkpoints bound replay work: a checkpoint at generation g+1 writes
   the full engine image, starts the empty wal.(g+1), and prunes
   generation g.  Every crash window in that sequence recovers: before
   the rename, checkpoint g + wal.g is intact; after the rename but
   before wal.(g+1) exists, checkpoint g+1 + an absent (= empty) log;
   after pruning, the normal g+1 state.  Checkpointing inside an open
   transaction is rejected — a checkpoint must capture a committed
   state, and the engine's image refuses mid-transaction snapshots. *)

open Core
module Wal = Relational.Wal
module Checkpoint = Relational.Checkpoint

type t = {
  sys : System.t;
  dir : string;
  sync : bool;
  checkpoint_interval : int option;
  (* serializes every disk mutation (appends, checkpoint rotation)
     across the server's session threads; uncontended in the embedded
     single-session case.  Lock order where both are held: the caller's
     state lock first, [io_lock] second. *)
  io_lock : Mutex.t;
  mutable gen : int;
  mutable writer : Wal.writer;
  mutable next_seq : int;
  mutable records_since_ckpt : int;
  mutable closed : bool;
}

let with_io_lock t f =
  Mutex.lock t.io_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.io_lock) f

type status = {
  st_dir : string;
  st_gen : int;
  st_next_seq : int;
  st_wal_bytes : int;
  st_wal_records : int;  (* records in the current generation's log *)
  st_records_since_ckpt : int;
  st_checkpoints : int list;  (* generations present on disk *)
  st_sync : bool;
}

let system t = t.sys
let dir t = t.dir
let generation t = t.gen

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let require_open t =
  if t.closed then
    Errors.raise_error (Errors.Transaction_error "durable store is closed")

(* ------------------------------------------------------------------ *)
(* Building the physical record of a committed transaction.            *)

(* The engine hands over its composite effect (I, D, U per Definition
   2.1) plus the before/after states; only the effect's handles are
   read (the old rows it carries for transition tables are not logged),
   and each component is grounded against those states, making the
   record correct by construction:
   - inserts: I-handles present in [after] (an I-handle absent from
     [after] was consumed inside the transaction; composition already
     removes those, this is belt and braces);
   - deletes: D-handles present in [before] (a tuple both created and
     destroyed inside the transaction has no net existence);
   - updates: U-handles outside I, with their [after] image.
   The full row is logged for updates — U records which columns
   changed, but replay needs the values. *)
let dml_of_log (txl : Engine.txn_log) =
  let before = txl.Engine.txl_before and after = txl.Engine.txl_after in
  (* One component's records over every table, in handle (= insertion)
     order so replay re-inserts them deterministically.  [of_part]
     folds a table's set or map, so it yields the table's records in
     reverse handle order; the tables' runs merge in that order and one
     reversal restores it. *)
  let records of_part =
    Effect.fold
      (fun _ p acc ->
        List.merge (fun (a, _) (b, _) -> Handle.compare b a) (of_part p) acc)
      txl.Engine.txl_effect []
    |> List.rev_map snd
  in
  let deletes =
    records (fun p ->
        Handle.Map.fold
          (fun h _ acc ->
            if Database.find_row before h <> None then
              (h, Wal.L_delete { table = Handle.table h; id = Handle.id h })
              :: acc
            else acc)
          p.Effect.del [])
  in
  let updates =
    records (fun p ->
        Handle.Map.fold
          (fun h _ acc ->
            if Handle.Set.mem h p.Effect.ins then acc
            else
              match Database.find_row after h with
              | Some row ->
                ( h,
                  Wal.L_update { table = Handle.table h; id = Handle.id h; row }
                )
                :: acc
              | None -> acc)
          p.Effect.upd [])
  in
  let inserts =
    records (fun p ->
        Handle.Set.fold
          (fun h acc ->
            match Database.find_row after h with
            | Some row ->
              (h, Wal.L_insert { table = Handle.table h; id = Handle.id h; row })
              :: acc
            | None -> acc)
          p.Effect.ins [])
  in
  deletes @ updates @ inserts

let append_payload t payload =
  require_open t;
  with_io_lock t (fun () ->
      Wal.append t.writer { Wal.seq = t.next_seq; payload };
      t.next_seq <- t.next_seq + 1;
      t.records_since_ckpt <- t.records_since_ckpt + 1)

let append_txn_batch t txns =
  append_payload t (Wal.Batch { handle_ctr = Handle.counter_value (); txns })

let attach_hooks t =
  System.set_ddl_hook t.sys (Some (fun text -> append_payload t (Wal.Ddl text)));
  Engine.set_commit_hook (System.engine t.sys)
    (Some
       (fun txl ->
         (* an effect-free committed transaction (reads only, or writes
            that cancelled out) still logs a record: recovery must
            restore the same handle counter and the harness counts
            committed transitions by records *)
         append_payload t
           (Wal.Txn
              { handle_ctr = Handle.counter_value (); ops = dml_of_log txl })))

let detach_hooks t =
  System.set_ddl_hook t.sys None;
  Engine.set_commit_hook (System.engine t.sys) None

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)

let checkpoint t =
  require_open t;
  if Engine.in_transaction (System.engine t.sys) then
    Errors.raise_error
      (Errors.Transaction_error
         "cannot checkpoint inside a transaction: checkpoints capture \
          committed states only");
  with_io_lock t (fun () ->
      let next_gen = t.gen + 1 in
      let image =
        {
          Recovery.cp_engine = Engine.durable_image (System.engine t.sys);
          cp_handle_ctr = Handle.counter_value ();
          cp_next_seq = t.next_seq;
        }
      in
      Checkpoint.write ~dir:t.dir ~gen:next_gen (Recovery.marshal_image image);
      (* the checkpoint is published: switch generations, then prune.  A
         crash anywhere from here recovers from the new checkpoint (with
         an absent-therefore-empty log until the create lands). *)
      let old_writer = t.writer in
      t.writer <- Wal.create ~sync:t.sync ~dir:t.dir ~gen:next_gen ();
      let old_gen = t.gen in
      t.gen <- next_gen;
      t.records_since_ckpt <- 0;
      Wal.close old_writer;
      (* prune superseded generations, best effort: a leftover file is
         dead weight, not a correctness problem (recovery picks the
         newest valid checkpoint) *)
      List.iter
        (fun g ->
          if g < next_gen then
            try Checkpoint.remove ~dir:t.dir ~gen:g with Sys_error _ -> ())
        (Checkpoint.generations ~dir:t.dir);
      try Sys.remove (Wal.path ~dir:t.dir ~gen:old_gen) with Sys_error _ -> ())

let checkpoint_due t =
  match t.checkpoint_interval with
  | Some every -> t.records_since_ckpt >= every
  | None -> false

let maybe_auto_checkpoint t =
  if checkpoint_due t && not (Engine.in_transaction (System.engine t.sys)) then
    checkpoint t

(* ------------------------------------------------------------------ *)
(* Opening and executing                                               *)

let open_dir ?config ?checkpoint_interval ?(sync = true) dir =
  (match checkpoint_interval with
  | Some n when n <= 0 ->
    Errors.semantic "checkpoint interval must be positive (got %d)" n
  | _ -> ());
  mkdir_p dir;
  let sys, info = Recovery.restore ?config dir in
  let writer = Wal.open_append ~sync ~dir ~gen:info.Recovery.ri_gen () in
  let t =
    {
      sys;
      dir;
      sync;
      checkpoint_interval;
      io_lock = Mutex.create ();
      gen = info.Recovery.ri_gen;
      writer;
      next_seq = info.Recovery.ri_last_seq + 1;
      records_since_ckpt = info.Recovery.ri_records;
      closed = false;
    }
  in
  attach_hooks t;
  (t, info)

let exec t sql =
  require_open t;
  let results = System.exec t.sys sql in
  maybe_auto_checkpoint t;
  results

let exec_one t sql =
  require_open t;
  let result = System.exec_one t.sys sql in
  maybe_auto_checkpoint t;
  result

let status t =
  require_open t;
  let scan = Wal.read ~dir:t.dir ~gen:t.gen in
  {
    st_dir = t.dir;
    st_gen = t.gen;
    st_next_seq = t.next_seq;
    st_wal_bytes = Wal.writer_size t.writer;
    st_wal_records = List.length scan.Wal.records;
    st_records_since_ckpt = t.records_since_ckpt;
    st_checkpoints = Checkpoint.generations ~dir:t.dir;
    st_sync = t.sync;
  }

let pp_status ppf s =
  Fmt.pf ppf
    "data directory: %s@\n\
     generation: %d@\n\
     next record seq: %d@\n\
     wal: %d bytes, %d records (%d since last checkpoint)@\n\
     checkpoints on disk: %s@\n\
     fsync: %s"
    s.st_dir s.st_gen s.st_next_seq s.st_wal_bytes s.st_wal_records
    s.st_records_since_ckpt
    (match s.st_checkpoints with
    | [] -> "(none)"
    | gens -> String.concat ", " (List.map string_of_int gens))
    (if s.st_sync then "on" else "off (benchmark mode)")

let close t =
  if not t.closed then begin
    detach_hooks t;
    Wal.close t.writer;
    t.closed <- true
  end
