(* sopr — an interactive shell / script runner for the set-oriented
   production rules system.

   Usage:
     sopr                 start an interactive session
     sopr -f script.sql   execute a script, then exit
     sopr -f s.sql -i     execute a script, then go interactive
     sopr -e "sql"        execute one statement and exit

   Statements end with ';'.  Meta-commands in interactive mode (either
   '\' or '.' prefix):
     \q            quit
     \analyze      print the static rule analysis report
     \stats        print engine statistics
     \trace ...    rule-execution tracing (on/off/print/dump FILE)
     \clock ...    wall-clock timing for traces and the rule report
     \report       per-rule metrics report
     \help         this list *)

open Core

let print_error e = Printf.printf "error: %s\n%!" (Errors.to_string e)

(* Report an error together with what happened to the open transaction:
   the engine guarantees either the statement had no effect (block
   restored, transaction still open) or the whole transaction was
   aborted and its start state restored.  With a data directory open,
   execution routes through the durable layer so committed transitions
   are logged and automatic checkpoints can run. *)
let exec_and_print ?durable system sql =
  let was_in_txn = Engine.in_transaction (System.engine system) in
  let run_sql () =
    match durable with
    | Some d -> Durability.Durable.exec d sql
    | None -> System.exec system sql
  in
  match run_sql () with
  | results ->
    List.iter
      (fun r ->
        print_endline (System.render_result r))
      results
  | exception Errors.Error e ->
    print_error e;
    let in_txn = Engine.in_transaction (System.engine system) in
    if was_in_txn && not in_txn then
      print_endline "transaction aborted; all its effects were rolled back"
    else if in_txn then
      print_endline
        "the failed statement had no effect; the transaction is still open"

let print_stats system =
  let st = Engine.stats (System.engine system) in
  Printf.printf
    "transactions:          %d\n\
     transitions:           %d\n\
     rule firings:          %d\n\
     conditions evaluated:  %d\n\
     rollbacks:             %d\n\
     aborts:                %d\n\
     seq scans:             %d\n\
     index probes:          %d\n\
     range probes:          %d\n\
     hash join builds:      %d\n\
     hash join probes:      %d\n\
     candidates considered: %d\n\
     rules skipped:         %d\n\
     stmt cache hits:       %d\n\
     stmt cache misses:     %d\n\
     stmt invalidations:    %d\n"
    st.Engine.transactions st.Engine.transitions st.Engine.rule_firings
    st.Engine.conditions_evaluated st.Engine.rollbacks st.Engine.aborts
    st.Engine.seq_scans st.Engine.index_probes st.Engine.range_probes
    st.Engine.hash_join_builds st.Engine.hash_join_probes
    st.Engine.candidates_considered st.Engine.rules_skipped
    st.Engine.stmt_cache_hits st.Engine.stmt_cache_misses
    st.Engine.stmt_cache_invalidations

(* The planner's view of one table: row count and, per index, the
   incrementally-maintained distinct-key count that drives the cost
   model's selectivity estimates. *)
let print_table_stats system tbl =
  let db = Engine.database (System.engine system) in
  if not (Database.has_table db tbl) then
    Printf.printf "no table %s\n" tbl
  else begin
    let t = Database.table db tbl in
    Printf.printf "table %s: %d rows\n" tbl (Table.cardinality t);
    match Table.index_list t with
    | [] -> print_endline "  (no indexes)"
    | ixs ->
      List.iter
        (fun ix ->
          Printf.printf "  %s index %s on (%s): %d distinct keys\n"
            (Index.kind_name (Index.kind ix))
            (Index.name ix) (Index.column ix) (Index.cardinality ix))
        ixs
  end

let print_analysis system =
  Format.printf "%a@." Analysis.pp_report (System.analyze system)

let print_trace system =
  let timed = Engine.timed_trace (System.engine system) in
  if timed = [] then
    print_endline
      "(no trace recorded; \\trace on enables tracing for later transactions)"
  else
    List.iter
      (fun (stamp, ev) ->
        match stamp with
        | None -> Format.printf "  %a@." Engine.pp_event ev
        | Some ts -> Format.printf "  [%.6f] %a@." ts Engine.pp_event ev)
      timed

let dump_trace system target =
  let jsonl = Engine.trace_jsonl (System.engine system) in
  if target = "-" then print_string jsonl
  else begin
    Out_channel.with_open_text target (fun oc ->
        Out_channel.output_string oc jsonl);
    Printf.printf "trace written to %s\n" target
  end

let print_report system =
  let rows = Engine.rule_report (System.engine system) in
  if rows = [] then print_endline "(no rule activity recorded)"
  else begin
    let with_time = Engine.has_clock (System.engine system) in
    Printf.printf "%-20s %10s %8s %12s %12s %8s\n" "rule" "considered" "fired"
      "cond_s" "action_s" "tuples";
    List.iter
      (fun r ->
        let seconds s = if with_time then Printf.sprintf "%.6f" s else "-" in
        Printf.printf "%-20s %10d %8d %12s %12s %8d\n" r.Engine.rr_rule
          r.Engine.rr_considered r.Engine.rr_fired
          (seconds r.Engine.rr_cond_seconds)
          (seconds r.Engine.rr_action_seconds)
          r.Engine.rr_effect_tuples)
      rows;
    if not with_time then
      print_endline "(times not collected; \\clock on enables timing)"
  end

(* The session's prepared statements, with their parameter counts and
   bodies — the registry PREPARE/EXECUTE/DEALLOCATE manage. *)
let print_prepared system =
  let stmts = Engine.statements (System.engine system) in
  match Engine.prepared_names stmts with
  | [] -> print_endline "(no prepared statements)"
  | names ->
    List.iter
      (fun name ->
        let p = Engine.find_prepared stmts name in
        Printf.printf "%s (%d param%s): %s\n" name
          (Engine.prepared_nparams p)
          (if Engine.prepared_nparams p = 1 then "" else "s")
          (Sqlf.Pretty.op_str (Engine.prepared_op p)))
      names

let help_text =
  "meta-commands ('\\' and '.' prefixes are equivalent):\n\
   \\q               quit\n\
   \\analyze         static rule analysis (may-trigger graph, loops, conflicts)\n\
   \\stats           engine statistics\n\
   \\stats TABLE     planner statistics for TABLE (rows, index cardinalities)\n\
   \\trace           print the last transaction's rule-execution trace\n\
   \\trace on        enable tracing (\\trace off disables)\n\
   \\trace dump F    write the trace as JSON Lines to file F ('-' = stdout)\n\
   \\clock on        timestamp traces and time rules (\\clock off disables)\n\
   \\report          per-rule metrics (considered/fired/times/effect tuples)\n\
   \\prepared        list prepared statements (name, parameter count, body)\n\
   \\checkpoint      write a checkpoint now (needs --data-dir)\n\
   \\wal status      show WAL/checkpoint state (needs --data-dir)\n\
   \\help            this message\n\
   Everything else is SQL; statements end with ';'."

(* Read statements until a line ends (trimmed) with ';' or a
   meta-command is typed. *)
let interactive ?durable system =
  print_endline "sopr — set-oriented production rules shell. \\help for help.";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "sopr> " else "  ... ");
    print_string "";
    flush stdout;
    match In_channel.input_line stdin with
    | None -> print_newline ()
    | Some line ->
      let trimmed = String.trim line in
      if
        Buffer.length buf = 0
        && String.length trimmed > 0
        && (trimmed.[0] = '\\' || trimmed.[0] = '.')
      then begin
        let words =
          String.sub trimmed 1 (String.length trimmed - 1)
          |> String.split_on_char ' '
          |> List.filter (fun w -> w <> "")
        in
        (match words with
        | [ "q" ] | [ "quit" ] -> raise Exit
        | [ "analyze" ] -> print_analysis system
        | [ "stats" ] -> print_stats system
        | [ "stats"; tbl ] -> print_table_stats system tbl
        | [ "trace" ] -> print_trace system
        | [ "trace"; "on" ] ->
          Engine.set_tracing (System.engine system) true;
          print_endline "tracing enabled"
        | [ "trace"; "off" ] ->
          Engine.set_tracing (System.engine system) false;
          print_endline "tracing disabled"
        | [ "trace"; "dump"; target ] -> dump_trace system target
        | [ "clock"; "on" ] ->
          Engine.set_clock (System.engine system) (Some Unix.gettimeofday);
          print_endline "clock enabled"
        | [ "clock"; "off" ] ->
          Engine.set_clock (System.engine system) None;
          print_endline "clock disabled"
        | [ "report" ] -> print_report system
        | [ "prepared" ] -> print_prepared system
        | [ "checkpoint" ] -> (
          match durable with
          | None -> print_endline "no data directory open (start with --data-dir)"
          | Some d -> (
            match Durability.Durable.checkpoint d with
            | () ->
              Printf.printf "checkpoint written (generation %d)\n"
                (Durability.Durable.generation d)
            | exception Errors.Error e -> print_error e))
        | [ "wal"; "status" ] -> (
          match durable with
          | None -> print_endline "no data directory open (start with --data-dir)"
          | Some d ->
            Format.printf "%a@." Durability.Durable.pp_status
              (Durability.Durable.status d))
        | [ "help" ] -> print_endline help_text
        | _ -> Printf.printf "unknown meta-command %s\n" trimmed);
        loop ()
      end
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let ends_stmt =
          String.length trimmed > 0
          && trimmed.[String.length trimmed - 1] = ';'
        in
        if ends_stmt then begin
          let sql = Buffer.contents buf in
          Buffer.clear buf;
          exec_and_print ?durable system sql
        end;
        loop ()
      end
  in
  (try loop () with Exit -> ());
  print_endline "bye."

let run file expr interactive_flag track_selects max_steps data_dir
    checkpoint_every =
  let config = { Engine.default_config with track_selects; max_steps } in
  let durable, system =
    match data_dir with
    | None -> (None, System.create ~config ())
    | Some dir ->
      let checkpoint_interval =
        if checkpoint_every > 0 then Some checkpoint_every else None
      in
      let d, info =
        Durability.Durable.open_dir ~config ?checkpoint_interval dir
      in
      if info.Durability.Recovery.ri_records > 0
         || info.Durability.Recovery.ri_checkpoint_used
         || info.Durability.Recovery.ri_torn
      then
        Format.printf "recovered %s: %a@." dir Durability.Recovery.pp_info info;
      (Some d, Durability.Durable.system d)
  in
  (match file with
  | Some path ->
    let sql = In_channel.with_open_text path In_channel.input_all in
    exec_and_print ?durable system sql
  | None -> ());
  (match expr with
  | Some sql -> exec_and_print ?durable system sql
  | None -> ());
  if interactive_flag || (file = None && expr = None) then
    interactive ?durable system;
  Option.iter Durability.Durable.close durable

open Cmdliner

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc:"Execute SQL script $(docv).")

let expr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "execute" ] ~docv:"SQL" ~doc:"Execute the statement $(docv).")

let interactive_arg =
  Arg.(
    value & flag
    & info [ "i"; "interactive" ]
        ~doc:"Enter interactive mode after running the script.")

let track_selects_arg =
  Arg.(
    value & flag
    & info [ "track-selects" ]
        ~doc:
          "Maintain the S effect component so rules can be triggered by data \
           retrieval (paper Section 5.1).")

let max_steps_arg =
  Arg.(
    value
    & opt int Engine.default_config.Engine.max_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Abort (and roll back) a transaction after $(docv) rule-action \
           executions: the run-time guard against divergent rule sets.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the database in $(docv): recover its state on startup, \
           then write-ahead-log every committed transition. The directory is \
           created if absent.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With --data-dir, automatically checkpoint after $(docv) WAL \
           records (0, the default, disables automatic checkpoints; \
           \\\\checkpoint forces one).")

let cmd =
  let doc = "set-oriented production rules on a relational database" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "An implementation of Widom & Finkelstein's set-oriented production \
         rules facility (SIGMOD 1990) on a from-scratch relational engine. \
         Rules are triggered by sets of changes and processed at transaction \
         boundaries.";
    ]
  in
  Cmd.v
    (Cmd.info "sopr" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ file_arg $ expr_arg $ interactive_arg $ track_selects_arg
      $ max_steps_arg $ data_dir_arg $ checkpoint_every_arg)

let () = exit (Cmd.eval cmd)
