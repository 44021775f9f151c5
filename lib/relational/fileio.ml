(* Signal-safe file primitives shared by the WAL and the checkpoint
   store (see the .mli).  The EINTR retry matters: a signal landing
   mid-[Unix.write] — a SIGCHLD from a dead client process, an
   interval timer, the recovery harness's own machinery — raises
   [Unix_error (EINTR, _, _)] and would otherwise abort a commit or
   checkpoint that a simple retry completes. *)

let rec retry_eintr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* [Unix.single_write], not [Unix.write]: the latter loops over 64 KiB
   chunks and, when EINTR lands after some of them went out, raises
   without reporting them, so a retry from the old offset would send
   those bytes twice.  One [write(2)] per call keeps [written] exact. *)
let write_fully fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    written :=
      !written
      + retry_eintr (fun () -> Unix.single_write fd b !written (len - !written))
  done

let fsync fd = retry_eintr (fun () -> Unix.fsync fd)

let fsync_dir dir =
  match retry_eintr (fun () -> Unix.openfile dir [ Unix.O_RDONLY ] 0) with
  | fd ->
    (try fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()
