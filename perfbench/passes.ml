(* One pass = one replay of a run's whole transaction stream from a
   freshly set-up system.  Untimed passes measure end to end; traced
   passes time the calls into each layer's public functions from the
   outside.  Every pass records per-transaction outcomes and a final
   state digest, which the caller compares against a reference
   replay. *)

open Core
module Runner = Workload.Runner
module Scenario = Workload.Scenario
module Server = Sopr_server.Server
module Client = Sopr_server.Client

type ctx = {
  spec : Spec.t;
  sc : Scenario.t;
  setup : string list;
  blocks : string array;  (** the generated blocks, as [Runner.run_block] takes them *)
  texts : string array;  (** the same blocks framed as request text *)
  declared : string list;  (** rules the set-up creates by name *)
  server_exe : string;
  work_dir : string;
}

(* In process the final state is compared as [Runner.state_digest];
   over the wire, as the rendered tables the server sends back.  Kept
   as MD5s so a run's passes do not hold whole table renderings. *)
type digest = State of Digest.t | Dump of Digest.t

type t = {
  setup_s : float list;  (** set-up times; in process, several per pass *)
  elapsed : float;  (** wall time of the transaction loop *)
  lat : float array;  (** per transaction, seconds *)
  outcomes : Bytes.t;  (** 'C' committed, 'R' rolled back, 'F' failed *)
  alloc_w : float;  (** words allocated by the transaction loop *)
  digest : digest;
  invariants_ok : bool;  (** the scenario invariants held on the pass's final state *)
  counters : (string * int) list;  (** exact counters, compared across passes *)
  rss_kb : int;  (** server child's VmHWM; 0 in process *)
  wal_bytes : int;  (** WAL growth over the loop of a wire pass *)
  requests : int;  (** server requests counted over the loop *)
  layers : (string * float) list;  (** traced: per-layer totals *)
  problems : string list;
}

let now = Host.now

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let outcome_char = function
  | Engine.Committed -> 'C'
  | Engine.Rolled_back -> 'R'

(* ------------------------------------------------------------------ *)
(* Layer accumulators for traced passes                                *)

type acc = (string, float ref) Hashtbl.t

let add (acc : acc) key v =
  match Hashtbl.find_opt acc key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace acc key (ref v)

(* Words a span's own bookkeeping allocates (the counter tuples),
   measured once and subtracted so spans report the callee's
   allocation alone. *)
let span_overhead_w =
  lazy
    (let w0 = words () in
     let w1 = words () in
     w1 -. w0)

let span acc name f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = words () in
  add acc (name ^ "_s") (t1 -. t0);
  add acc (name ^ "_w") (w1 -. w0 -. Lazy.force span_overhead_w);
  r

let layers_of acc =
  List.sort compare (Hashtbl.fold (fun k v l -> (k, !v) :: l) acc [])

(* ------------------------------------------------------------------ *)
(* In process: System.exec                                             *)

let build ctx =
  let sys = System.create ~config:ctx.sc.Scenario.sc_config () in
  List.iter (fun s -> ignore (System.exec_one sys s)) ctx.setup;
  sys

let engine_counters eng =
  let s = Engine.stats eng in
  [
    ("transactions", s.Engine.transactions);
    ("transitions", s.transitions);
    ("rule_firings", s.rule_firings);
    ("conditions_evaluated", s.conditions_evaluated);
    ("rollbacks", s.rollbacks);
    ("aborts", s.aborts);
    ("seq_scans", s.seq_scans);
    ("index_probes", s.index_probes);
    ("range_probes", s.range_probes);
    ("hash_join_builds", s.hash_join_builds);
    ("hash_join_probes", s.hash_join_probes);
    ("candidates_considered", s.candidates_considered);
    ("rules_skipped", s.rules_skipped);
    ("stmt_cache_hits", s.stmt_cache_hits);
    ("stmt_cache_misses", s.stmt_cache_misses);
    ("stmt_cache_invalidations", s.stmt_cache_invalidations);
  ]

let abort_open eng =
  if Engine.in_transaction eng then
    try Engine.rollback_txn eng with Errors.Error _ -> ()

let classify_results = function
  | [] -> 'F'
  | results -> (
    match List.nth results (List.length results - 1) with
    | System.Outcome o -> outcome_char o
    | _ -> 'C')

let note problems i e =
  if List.length !problems < 5 then
    problems :=
      Printf.sprintf "txn %d: %s" (i + 1)
        (match e with
        | Errors.Error err -> Errors.to_string err
        | e -> Printexc.to_string e)
      :: !problems

let check_invariants ctx sys problems =
  match Runner.check_invariants ctx.sc ~context:"after the stream" sys with
  | () -> true
  | exception Runner.Check_failed m ->
    problems := m :: !problems;
    false

(* Set-up repeated [setup_repeats] times, keeping the last system, so
   a run's set-up median rests on many samples.  The discarded systems
   are collected before the stream starts. *)
let setup_repeats = 5

let timed_builds ctx =
  let rec go k times =
    let t0 = now () in
    let sys = build ctx in
    let times = (now () -. t0) :: times in
    if k <= 1 then (sys, times) else go (k - 1) times
  in
  let built = go setup_repeats [] in
  Gc.full_major ();
  built

(* The end-to-end pass: each request text through [System.exec], timed
   per transaction with nothing else on the path. *)
let inproc ctx =
  let sys, setup_s = timed_builds ctx in
  let eng = System.engine sys in
  let n = Array.length ctx.texts in
  let lat = Array.make n 0. and outcomes = Bytes.make n 'F' in
  let problems = ref [] in
  let w0 = words () in
  let start = now () in
  for i = 0 to n - 1 do
    let a = now () in
    let c =
      match System.exec sys ctx.texts.(i) with
      | results -> classify_results results
      | exception e ->
        abort_open eng;
        note problems i e;
        'F'
    in
    lat.(i) <- now () -. a;
    Bytes.set outcomes i c
  done;
  let elapsed = now () -. start in
  let alloc_w = words () -. w0 in
  let invariants_ok = check_invariants ctx sys problems in
  {
    setup_s;
    elapsed;
    lat;
    outcomes;
    alloc_w;
    digest = State (Digest.string (Runner.state_digest ctx.sc sys));
    invariants_ok;
    counters = engine_counters eng;
    rss_kb = 0;
    wal_bytes = 0;
    requests = 0;
    layers = [];
    problems = List.rev !problems;
  }

(* The traced replay of [System.exec]: the same statements reach the
   same engine entry points [System.exec_statement] uses for compiled
   DML, each call timed from outside. *)
let traced_exec acc eng text =
  let stmts = span acc "parse" (fun () -> Parser.parse_script text) in
  add acc "parse_bytes" (float_of_int (String.length text));
  let st = Engine.stats eng in
  let outcome = ref 'C' in
  List.iter
    (function
      | Ast.Stmt_begin -> span acc "other" (fun () -> Engine.begin_txn eng)
      | Ast.Stmt_commit ->
        outcome := outcome_char (span acc "commit" (fun () -> Engine.commit eng))
      | Ast.Stmt_op op ->
        let hits = st.Engine.stmt_cache_hits in
        let w0 = words () in
        let t0 = now () in
        let cop = Engine.cached_cop eng op in
        let t1 = now () in
        let w = words () -. w0 -. Lazy.force span_overhead_w in
        let kind = if st.Engine.stmt_cache_hits > hits then "hit" else "miss" in
        add acc (kind ^ "_s") (t1 -. t0);
        add acc (kind ^ "_w") w;
        add acc (kind ^ "_n") 1.;
        let seq = st.seq_scans
        and idx = st.index_probes
        and rng = st.range_probes
        and hj = st.hash_join_probes in
        span acc "execute" (fun () ->
            match op with
            | Ast.Select_op _ when not (Engine.in_transaction eng) ->
              ignore (Engine.query_cop eng cop)
            | _ when Engine.in_transaction eng ->
              ignore (Engine.submit_cops eng [ cop ])
            | _ ->
              outcome := outcome_char (fst (Engine.execute_block_cops eng [ cop ])));
        add acc "seq_scans" (float_of_int (st.seq_scans - seq));
        add acc "index_probes" (float_of_int (st.index_probes - idx));
        add acc "range_probes" (float_of_int (st.range_probes - rng));
        add acc "hash_join_probes" (float_of_int (st.hash_join_probes - hj))
      | stmt ->
        failwith
          ("unexpected statement in a generated block: "
          ^ Pretty.statement_str stmt))
    stmts;
  !outcome

let inproc_traced ctx =
  let sys, setup_s = timed_builds ctx in
  let eng = System.engine sys in
  let st = Engine.stats eng in
  let firings = st.Engine.rule_firings
  and conds = st.conditions_evaluated
  and cands = st.candidates_considered in
  Engine.set_clock eng (Some now);
  let acc : acc = Hashtbl.create 32 in
  let n = Array.length ctx.texts in
  let lat = Array.make n 0. and outcomes = Bytes.make n 'F' in
  let problems = ref [] in
  let w0 = words () in
  let start = now () in
  for i = 0 to n - 1 do
    let a = now () in
    let c =
      match traced_exec acc eng ctx.texts.(i) with
      | c -> c
      | exception e ->
        abort_open eng;
        note problems i e;
        'F'
    in
    lat.(i) <- now () -. a;
    Bytes.set outcomes i c
  done;
  let elapsed = now () -. start in
  let alloc_w = words () -. w0 in
  Engine.set_clock eng None;
  add acc "firings" (float_of_int (st.rule_firings - firings));
  add acc "conditions" (float_of_int (st.conditions_evaluated - conds));
  add acc "candidates" (float_of_int (st.candidates_considered - cands));
  (* the clock went on after set-up, so rule_report's times cover
     exactly this loop *)
  List.iter
    (fun r ->
      add acc "cond_s" r.Engine.rr_cond_seconds;
      add acc "action_s" r.rr_action_seconds;
      if not (List.mem r.rr_rule ctx.declared) then
        add acc "constraint_cond_s" r.rr_cond_seconds)
    (Engine.rule_report eng);
  add acc "total_s" elapsed;
  let invariants_ok = check_invariants ctx sys problems in
  {
    setup_s;
    elapsed;
    lat;
    outcomes;
    alloc_w;
    digest = State (Digest.string (Runner.state_digest ctx.sc sys));
    invariants_ok;
    counters = engine_counters eng;
    rss_kb = 0;
    wal_bytes = 0;
    requests = 0;
    layers = layers_of acc;
    problems = List.rev !problems;
  }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let wal_size dir =
  match Sys.readdir dir with
  | files ->
    Array.fold_left
      (fun acc f ->
        if String.length f > 4 && String.sub f 0 4 = "wal." then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 files
  | exception Sys_error _ -> 0

(* Reads to end of file: /proc files report no length. *)
let read_file path =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> ""

(* ------------------------------------------------------------------ *)
(* The sopr-server child                                               *)

module Child = struct
  type t = { pid : int; port : int; log : string; mutable reaped : bool }

  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0

  (* "sopr-server: mode nosync, listening on 127.0.0.1:PORT, data in DIR" *)
  let port_of_banner text =
    match find_sub text "listening on " with
    | None -> None
    | Some i -> (
      let rest = String.sub text (i + 13) (String.length text - i - 13) in
      let addr =
        match String.index_opt rest ',' with
        | Some j -> String.sub rest 0 j
        | None -> (
          match String.index_opt rest '\n' with
          | Some j -> String.sub rest 0 j
          | None -> rest)
      in
      match String.rindex_opt addr ':' with
      | Some j ->
        int_of_string_opt (String.sub addr (j + 1) (String.length addr - j - 1))
      | None -> None)

  let alive c =
    (not c.reaped)
    &&
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ -> true
    | _ ->
      c.reaped <- true;
      false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      c.reaped <- true;
      false

  let stop c =
    if not c.reaped then begin
      (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
      let deadline = now () +. 10. in
      while alive c && now () < deadline do
        Unix.sleepf 0.005
      done;
      if not c.reaped then begin
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
        c.reaped <- true
      end
    end

  let start ~exe ~data_dir ~log ~track_selects =
    let fd =
      Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let args =
      [ exe; "serve"; "--port"; "0"; "--data-dir"; data_dir; "--nosync" ]
      @ if track_selects then [ "--track-selects" ] else []
    in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.create_process exe (Array.of_list args) Unix.stdin fd fd)
    in
    let c = { pid; port = 0; log; reaped = false } in
    let deadline = now () +. 20. in
    let rec wait () =
      match port_of_banner (read_file log) with
      | Some port -> { c with port }
      | None ->
        if not (alive c) then
          failwith ("sopr-server exited before listening: " ^ read_file log)
        else if now () > deadline then begin
          stop c;
          failwith "sopr-server printed no banner within 20 s"
        end
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
    in
    wait ()

  let vm_hwm_kb c =
    let status = read_file (Printf.sprintf "/proc/%d/status" c.pid) in
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> kb
        | None -> acc)
      0
      (String.split_on_char '\n' status)
end

(* ------------------------------------------------------------------ *)
(* Over the wire                                                       *)

(* A reply's last line is the commit verdict ("committed at version N"
   or "rolled back"); a read-only block's reply ends in a row count. *)
let classify_reply = function
  | Error _ -> 'F'
  | Ok body ->
    let lines = String.split_on_char '\n' body in
    if List.nth lines (List.length lines - 1) = "rolled back" then 'R' else 'C'

let server_stats c =
  match Client.request c "\\stats" with
  | Error e -> failwith ("\\stats failed: " ^ e)
  | Ok body ->
    List.filter_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i -> (
          match
            int_of_string_opt
              (String.trim
                 (String.sub line (i + 1) (String.length line - i - 1)))
          with
          | Some v -> Some (String.sub line 0 i, v)
          | None -> None)
        | None -> None)
      (String.split_on_char '\n' body)

let stat name l = Option.value (List.assoc_opt name l) ~default:0

let render_reply = function Ok body -> body | Error e -> "<error> " ^ e

(* One wire pass: a fresh server child on a fresh data directory,
   set-up over the connection, the timed stream, then VmHWM, counters
   and the tables fetched back — all before SIGTERM. *)
let wire ctx =
  let dir = Filename.concat ctx.work_dir "server" in
  let log = dir ^ ".log" in
  rm_rf dir;
  let t0 = now () in
  (* the child inherits this cycle's CPU: client and server share it,
     so a request never waits for an idle CPU to wake up *)
  let child =
    Child.start ~exe:ctx.server_exe ~data_dir:dir ~log
      ~track_selects:ctx.sc.Scenario.sc_config.Engine.track_selects
  in
  Fun.protect
    ~finally:(fun () ->
      Child.stop child;
      rm_rf dir;
      rm_rf log)
    (fun () ->
      let c = Client.connect ~port:child.Child.port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter
            (fun s ->
              match Client.request c s with
              | Ok _ -> ()
              | Error e -> failwith ("set-up statement failed: " ^ e))
            ctx.setup;
          let setup_s = [ now () -. t0 ] in
          let wal0 = wal_size dir in
          let st0 = server_stats c in
          let n = Array.length ctx.texts in
          let lat = Array.make n 0. and outcomes = Bytes.make n 'F' in
          let problems = ref [] in
          let start = now () in
          for i = 0 to n - 1 do
            let a = now () in
            let r = Client.request c ctx.texts.(i) in
            lat.(i) <- now () -. a;
            let ch = classify_reply r in
            Bytes.set outcomes i ch;
            match r with
            | Error e when List.length !problems < 5 ->
              problems := Printf.sprintf "txn %d: err %s" (i + 1) e :: !problems
            | _ -> ()
          done;
          let elapsed = now () -. start in
          let rss_kb = Child.vm_hwm_kb child in
          let st1 = server_stats c in
          let wal1 = wal_size dir in
          let digest =
            Spec.table_dump ctx.sc (fun tbl ->
                render_reply (Client.request c ("select * from " ^ tbl)))
          in
          if not (Child.alive child) then
            problems := "sopr-server exited during the pass" :: !problems;
          let delta k = stat k st1 - stat k st0 in
          {
            setup_s;
            elapsed;
            lat;
            outcomes;
            alloc_w = 0.;
            digest = Dump (Digest.string digest);
            invariants_ok = true;
            counters =
              [
                ("commits", delta "commits");
                ("conflicts", delta "conflicts");
                ("errors", delta "errors");
              ];
            rss_kb;
            wal_bytes = wal1 - wal0;
            (* the closing \stats request counts itself *)
            requests = delta "requests" - 1;
            layers = [];
            problems = List.rev !problems;
          }))

(* ------------------------------------------------------------------ *)
(* Embedded server sessions: the server's statement path in process    *)

let render_script_results results =
  String.concat "\n" (List.map System.render_result results)

(* The server's exec_script, with the parse and each [Server.exec_stmt]
   call timed (commit separately). *)
let traced_script acc srv session text =
  match span acc "parse" (fun () -> Parser.parse_script text) with
  | exception Errors.Error e -> Error (Errors.to_string e)
  | stmts ->
    add acc "parse_bytes" (float_of_int (String.length text));
    let rec run rev = function
      | [] -> Ok (span acc "render" (fun () -> render_script_results (List.rev rev)))
      | stmt :: rest -> (
        let layer =
          match stmt with Ast.Stmt_commit -> "session_commit" | _ -> "session"
        in
        match span acc layer (fun () -> Server.exec_stmt srv session stmt) with
        | r -> run (r :: rev) rest
        | exception Errors.Error e -> Error (Errors.to_string e))
    in
    run [] stmts

let embedded ctx ~traced =
  let dir = Filename.concat ctx.work_dir "embedded" in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let t0 = now () in
      let srv =
        Server.create ~config:ctx.sc.Scenario.sc_config ~data_dir:dir
          Server.Wal_nosync
      in
      Fun.protect
        ~finally:(fun () -> Server.close srv)
        (fun () ->
          let session = Server.open_session srv in
          List.iter
            (fun s ->
              match Server.exec_script srv session s with
              | Ok _ -> ()
              | Error e -> failwith ("set-up statement failed: " ^ e))
            ctx.setup;
          let setup_s = [ now () -. t0 ] in
          let acc : acc = Hashtbl.create 16 in
          let st = Server.stats srv in
          let commits0 = st.Server.sv_commits
          and conflicts0 = st.sv_conflicts in
          let n = Array.length ctx.texts in
          let lat = Array.make n 0. and outcomes = Bytes.make n 'F' in
          let problems = ref [] in
          let w0 = words () in
          let start = now () in
          for i = 0 to n - 1 do
            let a = now () in
            let r =
              if traced then traced_script acc srv session ctx.texts.(i)
              else Server.exec_script srv session ctx.texts.(i)
            in
            lat.(i) <- now () -. a;
            Bytes.set outcomes i (classify_reply r);
            match r with
            | Error e when List.length !problems < 5 ->
              problems := Printf.sprintf "txn %d: err %s" (i + 1) e :: !problems
            | _ -> ()
          done;
          let elapsed = now () -. start in
          let alloc_w = words () -. w0 in
          add acc "total_s" elapsed;
          let digest =
            Spec.table_dump ctx.sc (fun tbl ->
                render_reply
                  (Server.exec_script srv session ("select * from " ^ tbl)))
          in
          Server.close_session srv session;
          {
            setup_s;
            elapsed;
            lat;
            outcomes;
            alloc_w;
            digest = Dump (Digest.string digest);
            invariants_ok = true;
            counters =
              [
                ("commits", st.sv_commits - commits0);
                ("conflicts", st.sv_conflicts - conflicts0);
              ];
            rss_kb = 0;
            wal_bytes = 0;
            requests = 0;
            layers = layers_of acc;
            problems = List.rev !problems;
          }))
