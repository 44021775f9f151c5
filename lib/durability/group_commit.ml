(* Group commit: batch concurrently arriving commits into one WAL
   append + one fsync.

   BENCH_PR5 put sync commit at ~208µs against ~21µs without fsync —
   the disk flush dominates.  With many sessions committing at once
   the flushes are perfectly amortizable: while one flush is on disk,
   later committers queue; whoever finds no leader running becomes the
   leader for the next round and writes everything queued so far as a
   single [Wal.Batch] record.  One record means one frame and one CRC,
   so the durability story needs no new reasoning: a crash either
   leaves the whole frame (every member transaction durable) or tears
   it (none durable).

   Failure is collective by construction: the leader sets the same
   outcome on every entry of its round, so a failed flush raises in
   every submitting session, each of which then aborts with its exact
   snapshot restore (the PR2 semantics).  No session can observe "my
   transaction committed" unless the batch that carried it is on disk.

   Threading: callers are server session threads (systhreads).  The
   leader flushes OUTSIDE the queue lock — the fsync blocks without
   holding anything, which is what lets the next round's queue fill.
   [set_paused] holds the elected leader before it collects its round;
   tests use it to build deterministic multi-transaction batches. *)

module Wal = Relational.Wal

type outcome = Pending | Done | Failed of exn

type entry = { e_ops : Wal.dml list; mutable e_outcome : outcome }

type stats = {
  gc_batches : int;  (* flush rounds completed (incl. failed) *)
  gc_txns : int;  (* transactions carried by those rounds *)
  gc_max_batch : int;  (* largest round *)
}

type t = {
  flush : Wal.dml list list -> unit;
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : entry list;  (* newest first; reversed per round *)
  mutable leader : bool;
  mutable paused : bool;
  mutable batches : int;
  mutable txns : int;
  mutable max_batch : int;
}

let create ~flush =
  {
    flush;
    lock = Mutex.create ();
    cond = Condition.create ();
    queue = [];
    leader = false;
    paused = false;
    batches = 0;
    txns = 0;
    max_batch = 0;
  }

type ticket = entry

(* Enqueue without waiting: the caller can take its queue position
   while holding whatever lock defines its commit order (the server
   enqueues under its state lock, making WAL batch order identical to
   claim — and hence publish — order), then block in {!await} with
   that lock released.  No waiter is woken: waiters wait for a round
   to end or for a pause to lift, and a new entry is neither. *)
let enqueue t ops =
  let e = { e_ops = ops; e_outcome = Pending } in
  Mutex.lock t.lock;
  t.queue <- e :: t.queue;
  Mutex.unlock t.lock;
  e

let await t e =
  Mutex.lock t.lock;
  while e.e_outcome = Pending do
    if not t.leader then begin
      (* no round in flight: this session leads the next one *)
      t.leader <- true;
      while t.paused do
        Condition.wait t.cond t.lock
      done;
      let round = List.rev t.queue in
      t.queue <- [];
      Mutex.unlock t.lock;
      let outcome =
        match t.flush (List.map (fun x -> x.e_ops) round) with
        | () -> Done
        | exception exn -> Failed exn
      in
      Mutex.lock t.lock;
      List.iter (fun x -> x.e_outcome <- outcome) round;
      let n = List.length round in
      t.batches <- t.batches + 1;
      t.txns <- t.txns + n;
      if n > t.max_batch then t.max_batch <- n;
      t.leader <- false;
      Condition.broadcast t.cond
    end
    else Condition.wait t.cond t.lock
  done;
  let outcome = e.e_outcome in
  Mutex.unlock t.lock;
  match outcome with
  | Done -> ()
  | Failed exn -> raise exn
  | Pending -> assert false

let submit t ops = await t (enqueue t ops)

let set_paused t paused =
  Mutex.lock t.lock;
  t.paused <- paused;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let pending t =
  Mutex.lock t.lock;
  let n = List.length t.queue in
  Mutex.unlock t.lock;
  n

let stats t =
  Mutex.lock t.lock;
  let s =
    { gc_batches = t.batches; gc_txns = t.txns; gc_max_batch = t.max_batch }
  in
  Mutex.unlock t.lock;
  s
