(* Write-ahead log of committed transitions.

   The paper's semantics is a sequence of committed transitions, each
   the net effect of one transaction (externally-generated blocks plus
   all rule firings).  The WAL makes that sequence durable: one record
   per committed transition, appended and fsynced before the in-memory
   commit completes, so a recovered state is exactly the
   committed-transition prefix.  Rule processing is never re-run on
   replay — the logged effect already contains what the rules did,
   matching Section 4's view of rule processing as part of the
   transition that produced it.

   Two record payloads:

   - [Ddl] carries the concrete syntax of a catalog statement (CREATE
     TABLE/RULE/INDEX/ASSERTION, DROP ..., PRIORITY,
     ACTIVATE/DEACTIVATE).  Replay re-parses and re-executes it; the
     statement round-trip property (test_properties) guarantees the
     text denotes the original statement.

   - [Txn] carries the physical net effect of one committed
     transaction: inserted rows with their handle ids, deleted handle
     ids, updated rows — plus the global handle counter at commit, so
     recovery restores handle uniqueness.

   Framing: every record is  [0xD5 | seq:8 LE | len:4 LE | crc32:4 LE |
   payload]  after a 9-byte file header.  The CRC covers the payload;
   seq is a global record sequence number that survives checkpoint
   rotation.  A reader stops at the first frame that is incomplete or
   fails its checks — the torn tail a crash mid-append leaves behind —
   and returns the valid prefix.

   Durability points are explicit [Fault] sites: [Wal_append] fires
   before any byte is written (a crash there loses the record) and
   [Wal_fsync] after write+fsync (a crash there leaves the record
   durable even though the caller never saw the append return).  The
   recovery harness kills the process at both. *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.             *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type dml =
  | L_insert of { table : string; id : int; row : Value.t array }
  | L_delete of { table : string; id : int }
  | L_update of { table : string; id : int; row : Value.t array }

type payload =
  | Ddl of string
  | Txn of { handle_ctr : int; ops : dml list }
  (* [Batch] must stay the third constructor: Marshal encodes
     constructors by declaration order, and logs written before group
     commit existed must keep replaying. *)
  | Batch of { handle_ctr : int; txns : dml list list }

type record = { seq : int; payload : payload }

let file_header = "SOPRWAL1\n"
let record_magic = '\xd5'
let frame_header_len = 1 + 8 + 4 + 4

let file_name gen = Printf.sprintf "wal.%06d" gen
let path ~dir ~gen = Filename.concat dir (file_name gen)

let put_le bytes off width v =
  for i = 0 to width - 1 do
    Bytes.set bytes (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_le s off width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let frame record =
  let payload = Marshal.to_string record.payload [] in
  let len = String.length payload in
  let b = Bytes.create (frame_header_len + len) in
  Bytes.set b 0 record_magic;
  put_le b 1 8 record.seq;
  put_le b 9 4 len;
  put_le b 13 4 (crc32 payload);
  Bytes.blit_string payload 0 b frame_header_len len;
  Bytes.unsafe_to_string b

let frame_size record = String.length (frame record)

(* ------------------------------------------------------------------ *)
(* Reading: the valid prefix of a log file.                            *)

type scan = {
  records : record list;  (** valid records, oldest first *)
  torn : bool;  (** trailing bytes that do not form a complete record *)
  valid_len : int;  (** byte length of the valid prefix (incl. header) *)
}

let scan_string contents =
  let total = String.length contents in
  let hdr = String.length file_header in
  if total = 0 then { records = []; torn = false; valid_len = 0 }
  else if total < hdr || String.sub contents 0 hdr <> file_header then
    (* not even a whole header: a crash between file creation and the
       header write, or a foreign file *)
    { records = []; torn = true; valid_len = 0 }
  else begin
    let records = ref [] in
    let pos = ref hdr in
    let torn = ref false in
    let stop = ref false in
    while not !stop do
      let remaining = total - !pos in
      if remaining = 0 then stop := true
      else if remaining < frame_header_len then begin
        torn := true;
        stop := true
      end
      else if contents.[!pos] <> record_magic then begin
        torn := true;
        stop := true
      end
      else begin
        let seq = get_le contents (!pos + 1) 8 in
        let len = get_le contents (!pos + 9) 4 in
        let crc = get_le contents (!pos + 13) 4 in
        if remaining < frame_header_len + len then begin
          torn := true;
          stop := true
        end
        else
          let payload_str =
            String.sub contents (!pos + frame_header_len) len
          in
          if crc32 payload_str <> crc then begin
            torn := true;
            stop := true
          end
          else
            match (Marshal.from_string payload_str 0 : payload) with
            | payload ->
              records := { seq; payload } :: !records;
              pos := !pos + frame_header_len + len
            | exception _ ->
              (* a CRC-valid but unreadable payload: treat like any
                 other invalid tail rather than crash recovery *)
              torn := true;
              stop := true
      end
    done;
    { records = List.rev !records; torn = !torn; valid_len = !pos }
  end

let read_string ~dir ~gen =
  let p = path ~dir ~gen in
  if Sys.file_exists p then
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  else None

let read ~dir ~gen =
  match read_string ~dir ~gen with
  | None -> { records = []; torn = false; valid_len = 0 }
  | Some contents -> scan_string contents

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

type writer = {
  fd : Unix.file_descr;
  sync : bool;
  mutable size : int;
}

(* Open the generation's log for appending, creating it (with its
   header) if absent.  If the file ends in a torn tail — the previous
   process died mid-append — the tail is truncated away first, so new
   records are never written after garbage. *)
let open_append ?(sync = true) ~dir ~gen () =
  let p = path ~dir ~gen in
  let existing = read ~dir ~gen in
  let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  match
    if existing.valid_len = 0 && existing.records = [] then begin
      (* fresh (or unreadable-from-byte-0) file: start it over *)
      Unix.ftruncate fd 0;
      Fileio.write_fully fd file_header;
      if sync then Fileio.fsync fd;
      Fileio.fsync_dir dir;
      String.length file_header
    end
    else begin
      if existing.torn then Unix.ftruncate fd existing.valid_len;
      ignore (Unix.lseek fd existing.valid_len Unix.SEEK_SET);
      existing.valid_len
    end
  with
  | size -> { fd; sync; size }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let create ?(sync = true) ~dir ~gen () =
  let p = path ~dir ~gen in
  let fd =
    Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  match
    Fileio.write_fully fd file_header;
    if sync then Fileio.fsync fd;
    Fileio.fsync_dir dir
  with
  | () -> { fd; sync; size = String.length file_header }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let append w record =
  (* a crash before this point loses the record: the transaction never
     became durable, which recovery treats as "never committed" *)
  Fault.hit Fault.Wal_append;
  let bytes = frame record in
  Fileio.write_fully w.fd bytes;
  if w.sync then Fileio.fsync w.fd;
  w.size <- w.size + String.length bytes;
  (* the record is durable; a crash from here on keeps it even though
     the committing process never saw the append return *)
  Fault.hit Fault.Wal_fsync

let writer_size w = w.size
let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Replay: apply a transaction record's physical effect.               *)

(* Tolerant by construction: the effect sets recorded at commit are
   exact (insert only handles present in the post state, delete only
   handles present in the pre state), so each arm applies
   unconditionally and any failure indicates a corrupt log — surfaced
   as the storage layer's own error. *)
let apply_dml db op =
  match op with
  | L_insert { table; id; row } ->
    let tbl = Database.table db table in
    Database.replace_table db (Table.insert tbl (Handle.restore ~id table) row)
  | L_delete { table; id } ->
    let tbl = Database.table db table in
    Database.replace_table db (Table.delete tbl (Handle.restore ~id table))
  | L_update { table; id; row } ->
    let tbl = Database.table db table in
    Database.replace_table db (Table.update tbl (Handle.restore ~id table) row)

let apply db ops = List.fold_left apply_dml db ops

let pp_dml ppf = function
  | L_insert { table; id; row } ->
    Fmt.pf ppf "insert #%d@%s %s" id table (Row.to_string row)
  | L_delete { table; id } -> Fmt.pf ppf "delete #%d@%s" id table
  | L_update { table; id; row } ->
    Fmt.pf ppf "update #%d@%s %s" id table (Row.to_string row)
