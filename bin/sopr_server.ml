(* sopr-server — the concurrent-session socket server, plus a tiny
   line-protocol client.

   Usage:
     sopr-server serve  --port 7654 --data-dir DIR [--nosync]
     sopr-server client --port 7654 [-f script.txt]

   [serve] listens until SIGINT/SIGTERM.  Each connection is a session:
   one request line in (a ';'-separated SQL script, or \q \stats
   \version \checkpoint), one framed ok/err response out.  Reads run
   against snapshots; commits are validated first-committer-wins and
   group-committed: concurrent commits share one WAL record and, unless
   --nosync, one fsync.

   [client] connects and bridges stdin lines to requests, printing each
   response body (errors as "error: ..."), which makes transcripts
   byte-deterministic for the smoke test. *)

open Core
module Server = Sopr_server.Server
module Client = Sopr_server.Client

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve port host data_dir nosync checkpoint_every track_selects =
  let config = { Engine.default_config with track_selects } in
  let mode =
    match (data_dir, nosync) with
    | None, _ -> Server.Memory
    | Some _, true -> Server.Wal_nosync
    | Some _, false -> Server.Wal_sync
  in
  let checkpoint_interval =
    if checkpoint_every > 0 then Some checkpoint_every else None
  in
  let srv =
    try Server.create ~config ?checkpoint_interval ?data_dir mode
    with Errors.Error e ->
      Printf.eprintf "error: %s\n%!" (Errors.to_string e);
      exit 1
  in
  let listener = Server.start ~host ~port srv in
  Printf.printf "sopr-server: mode %s, listening on %s:%d%s\n%!"
    (Server.mode_name mode) host (Server.port listener)
    (match data_dir with Some d -> ", data in " ^ d | None -> "");
  (* Waiting on a condition variable here deadlocks against signal
     delivery: with the main thread in pthread_cond_wait and every
     other thread blocked in accept()/read(), no thread is executing
     OCaml code, so the runtime never reaches the safepoint that runs
     the Signal_handle closure and the signal is queued forever.
     Thread.delay returns to OCaml on every tick, which is exactly the
     safepoint the handler needs. *)
  let stop_requested = ref false in
  let request_stop _ = stop_requested := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not !stop_requested do
    Thread.delay 0.1
  done;
  print_endline "sopr-server: shutting down";
  Server.stop listener;
  Server.close srv

(* ------------------------------------------------------------------ *)
(* client                                                              *)

let client port host file =
  let c =
    try Client.connect ~host ~port ()
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot connect to %s:%d: %s\n%!" host port
        (Unix.error_message e);
      exit 1
  in
  let ic =
    match file with Some path -> open_in path | None -> stdin
  in
  (try
     let rec loop () =
       match input_line ic with
       | line ->
         let trimmed = String.trim line in
         if trimmed <> "" && not (String.length trimmed >= 2
                                  && String.sub trimmed 0 2 = "--") then begin
           (match Client.request c trimmed with
           | Ok body -> if body <> "" then print_endline body
           | Error msg -> Printf.printf "error: %s\n" msg);
           if trimmed = "\\q" || trimmed = "\\quit" then raise Exit
         end;
         loop ()
       | exception End_of_file -> ()
     in
     loop ()
   with
  | Exit -> ()
  | End_of_file -> Printf.eprintf "error: server closed the connection\n%!");
  Client.close c;
  if file <> None then close_in ic

(* ------------------------------------------------------------------ *)
(* command line                                                        *)

open Cmdliner

let port_arg =
  Arg.(
    value & opt int 7654
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks one).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the database in $(docv) (recovered on startup, \
           write-ahead-logged while serving). Without it the server is \
           in-memory.")

let nosync_arg =
  Arg.(
    value & flag
    & info [ "nosync" ]
        ~doc:
          "Skip the fsync per group-commit round (benchmarking, not \
           durability).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With --data-dir, checkpoint after $(docv) WAL records (0 \
           disables; \\\\checkpoint forces one).")

let track_selects_arg =
  Arg.(
    value & flag
    & info [ "track-selects" ]
        ~doc:
          "Maintain the S effect component: enables select-triggered rules \
           and escalates the server from snapshot isolation to \
           serializable (commits claim the tables their statements and \
           woken rules could have read).")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"SCRIPT"
        ~doc:"Read request lines from $(docv) instead of stdin.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:"run the server (default command)")
    Term.(
      const serve $ port_arg $ host_arg $ data_dir_arg $ nosync_arg
      $ checkpoint_every_arg $ track_selects_arg)

let client_cmd =
  Cmd.v
    (Cmd.info "client" ~doc:"connect and bridge stdin lines to requests")
    Term.(const client $ port_arg $ host_arg $ file_arg)

let cmd =
  let doc = "concurrent-session server for set-oriented production rules" in
  Cmd.group
    ~default:
      Term.(
        const serve $ port_arg $ host_arg $ data_dir_arg $ nosync_arg
        $ checkpoint_every_arg $ track_selects_arg)
    (Cmd.info "sopr-server" ~version:"1.0.0" ~doc)
    [ serve_cmd; client_cmd ]

let () = exit (Cmd.eval cmd)
