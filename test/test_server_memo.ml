(* The server's statement path against the embedded one.

   [Server.exec_script] runs a script through [System.exec_with] — the
   embedded system's shape-memo loop — with the session's statement
   state and the server's routing: reads on the session's snapshot,
   data manipulation on a transaction fork or an autocommit fork, each
   fork sharing the session's plans.  This differential drives one
   server session and an embedded twin with the same generated stream
   (compile-diff's shape-memo scripts: generated selects and data
   manipulation, each repeated with its literals varied, and index DDL
   between them) and requires, after every script, the same rendered
   results or the same error — the [Errors] value's text, which names
   its constructor — and the same plan-table hits, misses and
   invalidations: the server's, summed over its forks, equal the
   twin's, so no fork recompiles what another fork of the session
   compiled.  A commit's reply differs by design ("committed at
   version N" on the server), and is compared as "committed". *)

open Core
open Helpers
module Server = Sopr_server.Server

let errors_compared = ref 0
let server_hits = ref 0

(* The server's "committed at version N" is the embedded "committed". *)
let normalize body =
  String.split_on_char '\n' body
  |> List.map (fun line ->
         if String.starts_with ~prefix:"committed at version " line then
           "committed"
         else line)
  |> String.concat "\n"

let server_counts srv =
  let stat name =
    let prefix = name ^ ": " in
    let body = Server.render_stats srv in
    match
      List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body)
    with
    | Some l ->
      int_of_string
        (String.sub l (String.length prefix)
           (String.length l - String.length prefix))
    | None -> QCheck.Test.fail_reportf "no %S in \\stats" name
  in
  (stat "stmt cache hits", stat "stmt cache misses", stat "stmt cache invalidations")

let twin_counts twin =
  let st = Engine.stats (System.engine twin) in
  (st.Engine.stmt_cache_hits, st.Engine.stmt_cache_misses,
   st.Engine.stmt_cache_invalidations)

let server_differential =
  QCheck.Test.make ~count:120
    ~name:"Server.exec_script on one session = System.exec"
    (QCheck.make ~print:(String.concat "\n") Test_compile_diff.gen_memo_case)
    (fun scripts ->
      let twin = system Test_compile_diff.memo_setup in
      let srv = Server.create Server.Memory in
      let sess = Server.open_session srv in
      (match Server.exec_script srv sess Test_compile_diff.memo_setup with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "set-up failed: %s" e);
      List.iter
        (fun sql ->
          let h0, _, _ = server_counts srv in
          let a = Result.map normalize (Server.exec_script srv sess sql)
          and b =
            match System.exec twin sql with
            | results -> Ok (String.concat "\n" (List.map System.render_result results))
            | exception Errors.Error e -> Error (Errors.to_string e)
          in
          if a <> b then
            QCheck.Test.fail_reportf "%s@.server: %s@.embedded: %s" sql
              (match a with Ok r -> r | Error e -> "error " ^ e)
              (match b with Ok r -> r | Error e -> "error " ^ e);
          if Result.is_error a then incr errors_compared;
          let ((h1, _, _) as sc) = server_counts srv and tc = twin_counts twin in
          if sc <> tc then begin
            let show (h, m, i) = Printf.sprintf "%d/%d/%d" h m i in
            QCheck.Test.fail_reportf
              "%s@.plan-table hits/misses/invalidations: server %s, embedded %s"
              sql (show sc) (show tc)
          end;
          server_hits := !server_hits + h1 - h0;
          (* an error inside BEGIN ... COMMIT leaves the transaction open
             on both sides *)
          let eng = System.engine twin in
          if Engine.in_transaction eng then begin
            Engine.rollback_txn eng;
            ignore (Server.exec_script srv sess "rollback")
          end)
        scripts;
      Server.close_session srv sess;
      true)

let test_not_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "plans served to the server session (%d)" !server_hits)
    true (!server_hits > 100);
  Alcotest.(check bool)
    (Printf.sprintf "errors compared (%d)" !errors_compared)
    true (!errors_compared > 0)

let suite =
  [
    qtest server_differential;
    Alcotest.test_case "the differential is not vacuous" `Quick test_not_vacuous;
  ]
