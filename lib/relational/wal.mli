(** Write-ahead log of committed transitions.

    One record per committed transition: either a catalog (DDL)
    statement stored as concrete syntax, or the physical net effect of
    a committed transaction (inserted/deleted/updated tuples with
    their handle ids).  Records are CRC-framed; a reader returns the
    valid prefix of a file and flags a torn tail, so a crash mid-append
    never loses more than the record being written.  Rule firings are
    part of the logged net effect and are never re-executed on replay.

    Log files are per checkpoint generation ([wal.000042]); the
    record sequence number is global and survives rotation. *)

(** {1 Records} *)

(** One physical tuple operation of a committed transaction. *)
type dml =
  | L_insert of { table : string; id : int; row : Value.t array }
  | L_delete of { table : string; id : int }
  | L_update of { table : string; id : int; row : Value.t array }

type payload =
  | Ddl of string
      (** concrete syntax of a catalog statement, re-executed on replay *)
  | Txn of { handle_ctr : int; ops : dml list }
      (** net effect of a committed transaction; [handle_ctr] is the
          global handle counter at commit time *)
  | Batch of { handle_ctr : int; txns : dml list list }
      (** a group-commit batch: the net effects of several committed
          transactions, written (and made durable) as one frame.  One
          frame means one CRC: a crash mid-append tears the whole frame
          away, so recovery sees either every transaction of a batch or
          none of them — the all-or-none guarantee the concurrent
          server's group commit relies on. *)

type record = { seq : int; payload : payload }

val crc32 : string -> int
(** CRC-32 (IEEE, the zlib polynomial) of a string — exposed for the
    checkpoint store and for tests that craft corrupt frames. *)

val frame : record -> string
(** The exact bytes [append] would write — exposed so tests can build
    corruption corpora without a writer. *)

val frame_size : record -> int

(** {1 File layout} *)

val file_header : string
(** The magic bytes opening every log file — exposed so tests can craft
    log images byte by byte. *)

val file_name : int -> string
(** [file_name gen] = ["wal.%06d"]. *)

val path : dir:string -> gen:int -> string

(** {1 Reading} *)

type scan = {
  records : record list;  (** valid records, oldest first *)
  torn : bool;  (** trailing bytes that do not form a complete record *)
  valid_len : int;  (** byte length of the valid prefix (incl. header) *)
}

val read : dir:string -> gen:int -> scan
(** Scan a generation's log.  A missing file reads as empty and not
    torn (a crash can die between checkpoint publication and creation
    of the next log). *)

val scan_string : string -> scan
(** Scan raw log-file bytes; used by the truncation-corpus tests. *)

(** {1 Writing} *)

type writer

val create : ?sync:bool -> dir:string -> gen:int -> unit -> writer
(** Create (truncate) the generation's log with a fresh header.
    [sync=false] drops every fsync — for benchmarks quantifying the
    durability cost, not for real use. *)

val open_append : ?sync:bool -> dir:string -> gen:int -> unit -> writer
(** Open an existing log for appending, creating it if absent.  A torn
    tail left by a crashed writer is truncated away first. *)

val append : writer -> record -> unit
(** Write one record and (unless [sync=false]) fsync.  Passes
    {!Fault.Wal_append} before any byte is written and
    {!Fault.Wal_fsync} once the record is durable. *)

val writer_size : writer -> int
(** Bytes in the file, counting the header. *)

val close : writer -> unit

(** {1 Replay} *)

val apply : Database.t -> dml list -> Database.t
(** Re-apply a transaction record's physical effect, rebuilding tuples
    under their original handles.  The caller replays records in log
    order and calls {!Handle.advance_counter} with the last record's
    counter afterwards. *)

val pp_dml : Format.formatter -> dml -> unit
