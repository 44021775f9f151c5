(* Scenario drivers: in-memory differential, durable fault+crash soak,
   timed throughput.  All randomness is consumed up front (the whole
   transaction stream is generated before any execution), so a run is
   reproducible from the profile's seed alone. *)

open Core
module Durable = Durability.Durable
module Recovery = Durability.Recovery

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

(* ------------------------------------------------------------------ *)
(* Building blocks                                                     *)

let is_index_ddl stmt =
  let lower = String.lowercase_ascii (String.trim stmt) in
  String.length lower >= 12 && String.sub lower 0 12 = "create index"

let setup_statements ?(indexes = true) sc profile =
  let stmts = sc.Scenario.sc_setup profile in
  if indexes then stmts
  else List.filter (fun s -> not (is_index_ddl s)) stmts

let index_names sc profile =
  List.filter_map
    (fun stmt ->
      if not (is_index_ddl stmt) then None
      else
        match String.split_on_char ' ' (String.trim stmt) with
        | _create :: _index :: name :: _ -> Some name
        | _ -> None)
    (sc.Scenario.sc_setup profile)

let build ?indexes ?config sc profile =
  let config = Option.value config ~default:sc.Scenario.sc_config in
  let s = System.create ~config () in
  List.iter
    (fun stmt -> ignore (System.exec_one s stmt))
    (setup_statements ?indexes sc profile);
  s

let gen_blocks sc profile =
  let sampler = Profile.Sampler.create profile in
  List.init profile.Profile.txns (fun _ -> sc.Scenario.sc_txn sampler)

(* Value-only canonical state: sorted row renderings per observable
   table.  Comparable across independent systems (handle ids and index
   structures never appear) and across recoveries. *)
let state_digest sc s =
  String.concat "\n"
    (List.map
       (fun tbl ->
         match System.query s ("select * from " ^ tbl) with
         | _cols, rows ->
           let rendered =
             List.sort compare
               (List.map
                  (fun row ->
                    String.concat "|"
                      (Array.to_list (Array.map Value.to_string row)))
                  rows)
           in
           Printf.sprintf "%s:%s" tbl (String.concat ";" rendered)
         | exception _ -> tbl ^ ":<absent>")
       sc.Scenario.sc_tables)

let check_invariants sc ~context s =
  List.iter
    (fun inv ->
      match inv.Scenario.inv_check s with
      | None -> ()
      | Some detail ->
        failf "[%s] %s: invariant %S violated: %s" sc.Scenario.sc_name context
          inv.Scenario.inv_name detail
      | exception Errors.Error e ->
        failf "[%s] %s: invariant %S raised: %s" sc.Scenario.sc_name context
          inv.Scenario.inv_name (Errors.to_string e))
    sc.Scenario.sc_invariants

let n_invariants sc = List.length sc.Scenario.sc_invariants

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type report = {
  r_scenario : string;
  r_txns : int;
  r_committed : int;
  r_rolled_back : int;
  r_injections : int;
  r_fsync_deaths : int;
  r_kills : int;
  r_recoveries : int;
  r_checks : int;
}

let empty_report name =
  {
    r_scenario = name;
    r_txns = 0;
    r_committed = 0;
    r_rolled_back = 0;
    r_injections = 0;
    r_fsync_deaths = 0;
    r_kills = 0;
    r_recoveries = 0;
    r_checks = 0;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %d txns (%d committed, %d rolled back), %d faults injected, %d \
     fsync deaths, %d kills, %d recoveries checked, %d invariant checks"
    r.r_scenario r.r_txns r.r_committed r.r_rolled_back r.r_injections
    r.r_fsync_deaths r.r_kills r.r_recoveries r.r_checks

(* ------------------------------------------------------------------ *)
(* Block execution, normalized                                         *)

(* Everything observable about one transaction: the outcome or the
   genuine-error string, plus select results with rows sorted (probe
   and scan twins may produce different physical row orders for the
   same unordered query). *)
type block_result =
  | Done of Engine.outcome * (string list * string list) list
  | Failed of string

let render_rels rels =
  List.map
    (fun r ->
      ( Array.to_list r.Eval.cols,
        List.sort compare
          (List.map
             (fun row ->
               String.concat "|"
                 (Array.to_list (Array.map Value.to_string row)))
             r.Eval.rows) ))
    rels

let run_block s sql =
  match System.exec_block s sql with
  | outcome, rels -> Done (outcome, render_rels rels)
  | exception Errors.Error e -> Failed (Errors.to_string e)

let check_same_result sc ~context ~label a b =
  let fail detail =
    failf "[%s] %s: %s diverged: %s" sc.Scenario.sc_name context label detail
  in
  match (a, b) with
  | Failed ea, Failed eb ->
    if ea <> eb then fail (Printf.sprintf "error %S <> %S" ea eb)
  | Done (oa, ra), Done (ob, rb) ->
    if oa <> ob then fail "different outcomes";
    if ra <> rb then fail "different select results"
  | Done _, Failed e | Failed e, Done _ ->
    fail (Printf.sprintf "one side errored (%s) and the other did not" e)

let count_outcome rep = function
  | Done (Engine.Committed, _) -> rep := { !rep with r_committed = !rep.r_committed + 1 }
  | Done (Engine.Rolled_back, _) ->
    rep := { !rep with r_rolled_back = !rep.r_rolled_back + 1 }
  | Failed e ->
    failf "genuine engine error in generated workload: %s" e

(* ------------------------------------------------------------------ *)
(* Twin differentials                                                  *)

(* The stream on [primary] and, through [run_twin], on [twin]: each
   block's result compared, the value digests compared and the
   invariants checked on the twin every [check_every] blocks, and at
   the end the digests and both systems' invariants.  [names] labels
   the two sides; [diverged] is the digest mismatch's message. *)
let run_twins ~check_every sc profile ~names:(p_name, t_name) ~diverged
    ~primary ~twin run_twin =
  let blocks = gen_blocks sc profile in
  let rep = ref (empty_report sc.Scenario.sc_name) in
  let compare_states context =
    if state_digest sc primary <> state_digest sc twin then
      failf "[%s] %s: %s" sc.Scenario.sc_name context diverged
  in
  let label = p_name ^ " vs " ^ t_name in
  List.iteri
    (fun i block ->
      let context = Printf.sprintf "txn %d" (i + 1) in
      let rp = run_block primary block in
      let rt = run_twin twin block in
      check_same_result sc ~context ~label rp rt;
      rep := { !rep with r_txns = !rep.r_txns + 1 };
      count_outcome rep rp;
      if (i + 1) mod check_every = 0 then begin
        compare_states context;
        check_invariants sc ~context twin;
        rep := { !rep with r_checks = !rep.r_checks + n_invariants sc }
      end)
    blocks;
  compare_states "final";
  let final name = Printf.sprintf "final (%s)" name in
  check_invariants sc ~context:(final p_name) primary;
  check_invariants sc ~context:(final t_name) twin;
  rep := { !rep with r_checks = !rep.r_checks + (2 * n_invariants sc) };
  !rep

(* The in-memory differential run: a probing system against its
   index-free scan twin. *)
let run_short ?(check_every = 4) sc profile =
  Profile.validate profile;
  let primary = build sc profile in
  let twin = build ~indexes:false sc profile in
  run_twins ~check_every sc profile ~names:("probe", "scan")
    ~diverged:"scan twin diverged from probe" ~primary ~twin run_block

(* ------------------------------------------------------------------ *)
(* Prepared-statement differential: the same stream executed directly
   and through PREPARE/EXECUTE.  Each generated statement is
   parameterized ([Ast.parameterize_op] lifts its bindable literals
   into `?` slots), prepared once per distinct shape, and then driven
   by binding the lifted constants — so repetitions of a shape must
   come back from the prepared-plan cache rather than re-compiling.    *)

let run_prepared_block s names executed block =
  let eng = System.engine s in
  (* PREPARE is session state, not transaction state: new shapes are
     registered before the block's transaction opens *)
  let items =
    List.map
      (fun stmt ->
        match stmt with
        | Ast.Stmt_op op ->
          let op', args = Ast.parameterize_op op in
          let text = Pretty.op_str op' in
          let name =
            match Hashtbl.find_opt names text with
            | Some n -> n
            | None ->
              let n = Printf.sprintf "w%d" (Hashtbl.length names) in
              Hashtbl.add names text n;
              Engine.prepare (Engine.statements eng) ~name:n op';
              n
          in
          incr executed;
          (name, Array.to_list args)
        | _ ->
          Errors.semantic "the prepared driver accepts data manipulation only")
      (Parser.parse_script block)
  in
  match
    Engine.begin_txn eng;
    (try
       let rels =
         List.concat_map
           (fun (name, args) ->
             let p = Engine.find_prepared (Engine.statements eng) name in
             let params = Engine.bind_params p args in
             Engine.submit_cops eng ~params [ Engine.prepared_cop eng p ])
           items
       in
       let outcome = Engine.commit eng in
       (outcome, rels)
     with e ->
       if Engine.in_transaction eng then Engine.rollback_txn eng;
       raise e)
  with
  | outcome, rels -> Done (outcome, render_rels rels)
  | exception Errors.Error e -> Failed (Errors.to_string e)

let run_prepared_differential ?(check_every = 4) sc profile =
  Profile.validate profile;
  let primary = build sc profile in
  let twin = build sc profile in
  let names = Hashtbl.create 64 in
  let executed = ref 0 in
  let rep =
    run_twins ~check_every sc profile ~names:("direct", "prepared")
      ~diverged:"prepared-statement twin diverged from direct execution"
      ~primary ~twin
      (fun s block -> run_prepared_block s names executed block)
  in
  let st = Engine.stats (System.engine twin) in
  let distinct = Hashtbl.length names in
  if !executed > distinct && st.Engine.stmt_cache_hits = 0 then
    failf
      "[%s] prepared plans never hit the cache (%d statements over %d \
       distinct shapes)"
      sc.Scenario.sc_name !executed distinct;
  rep

(* ------------------------------------------------------------------ *)
(* Filesystem scratch helpers                                          *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scenario_dir root sc =
  let dir = Filename.concat root sc.Scenario.sc_name in
  rm_rf dir;
  mkdir_p dir;
  dir

(* ------------------------------------------------------------------ *)
(* Recovery differential: after every recovery the soak checks that    *)
(* (a) a restore reproduces the expected state and (b) with every      *)
(* index dropped the scan paths still see the same state and           *)
(* invariants.                                                         *)

let recovery_differential sc profile ~context ~expected dir =
  let config = sc.Scenario.sc_config in
  let probe, _ = Recovery.restore ~config dir in
  let dp = state_digest sc probe in
  (match expected with
  | Some d when d <> dp ->
    failf "[%s] %s: recovered state differs from the live state"
      sc.Scenario.sc_name context
  | _ -> ());
  check_invariants sc ~context:(context ^ " (probe restore)") probe;
  let scan, _ = Recovery.restore ~config dir in
  List.iter
    (fun ix -> ignore (System.exec_one scan ("drop index " ^ ix)))
    (index_names sc profile);
  if state_digest sc scan <> dp then
    failf "[%s] %s: scan state diverged after dropping indexes"
      sc.Scenario.sc_name context;
  check_invariants sc ~context:(context ^ " (scan restore)") scan;
  2 * n_invariants sc

(* ------------------------------------------------------------------ *)
(* The durable soak: live-fault phase + fork/SIGKILL crash phase       *)

let open_durable sc dir = Durable.open_dir ~config:sc.Scenario.sc_config dir

let setup_durable sc profile d =
  List.iter
    (fun stmt -> ignore (Durable.exec d stmt))
    (setup_statements sc profile)

(* Phase 1: drive the stream on a durable system, arming a fault on
   every [fault_every]-th block.  Aborts must restore the
   pre-transaction state; a Wal_fsync death is survived by abandoning
   the live system and reopening (the transaction IS committed —
   retrying would apply it twice); the first manual checkpoint sweeps
   the checkpoint fault sites. *)
let live_fault_phase sc profile ~fault_every ~dir rep blocks =
  mkdir_p dir;
  let d = ref (fst (open_durable sc dir)) in
  setup_durable sc profile !d;
  let ckpt_every = max 16 (List.length blocks / 8) in
  let ckpt_swept = ref false in
  let recoveries = ref 0 in
  let bump_checks n = rep := { !rep with r_checks = !rep.r_checks + n } in
  let sweep_checkpoint () =
    let live = Durable.system !d in
    let fp0 = state_digest sc live in
    let gen0 = Durable.generation !d in
    List.iter
      (fun k ->
        Fault.arm k;
        (match Durable.checkpoint !d with
        | () -> failf "[%s] checkpoint sweep: expected an injection" sc.Scenario.sc_name
        | exception Fault.Injected _ ->
          rep := { !rep with r_injections = !rep.r_injections + 1 });
        Fault.disarm ();
        if Durable.generation !d <> gen0 then
          failf "[%s] a failed checkpoint advanced the generation"
            sc.Scenario.sc_name;
        incr recoveries;
        bump_checks
          (recovery_differential sc profile
             ~context:(Printf.sprintf "after failed checkpoint (arm %d)" k)
             ~expected:(Some fp0) dir))
      [ 1; 2 ];
    Durable.checkpoint !d
  in
  List.iteri
    (fun i block ->
      rep := { !rep with r_txns = !rep.r_txns + 1 };
      let live () = Durable.system !d in
      if fault_every > 0 && (i + 1) mod fault_every = 0 then begin
        (* deterministic countdown cycling over the first ~25 hit
           points of the block — deep enough to reach commit and WAL
           sites on small blocks *)
        let k = 1 + (i * 7 mod 25) in
        let pre = state_digest sc (live ()) in
        Fault.arm k;
        match run_block (live ()) block with
        | r ->
          Fault.disarm ();
          count_outcome rep r
        | exception Fault.Injected Fault.Wal_fsync ->
          Fault.disarm ();
          rep :=
            {
              !rep with
              r_injections = !rep.r_injections + 1;
              r_fsync_deaths = !rep.r_fsync_deaths + 1;
              (* the record is durable: the transaction committed even
                 though the writer never saw the append return *)
              r_committed = !rep.r_committed + 1;
            };
          Durable.close !d;
          incr recoveries;
          bump_checks
            (recovery_differential sc profile
               ~context:(Printf.sprintf "after fsync death (txn %d)" (i + 1))
               ~expected:None dir);
          d := fst (open_durable sc dir)
        | exception Fault.Injected _ ->
          Fault.disarm ();
          rep := { !rep with r_injections = !rep.r_injections + 1 };
          if state_digest sc (live ()) <> pre then
            failf "[%s] txn %d: induced abort did not restore the snapshot"
              sc.Scenario.sc_name (i + 1);
          (* the fault-free retry *)
          count_outcome rep (run_block (live ()) block)
      end
      else count_outcome rep (run_block (live ()) block);
      if (i + 1) mod ckpt_every = 0 then
        if !ckpt_swept then Durable.checkpoint !d
        else begin
          ckpt_swept := true;
          sweep_checkpoint ()
        end)
    blocks;
  let live = Durable.system !d in
  check_invariants sc ~context:"live-fault phase final" live;
  bump_checks (n_invariants sc);
  incr recoveries;
  bump_checks
    (recovery_differential sc profile ~context:"live-fault phase final"
       ~expected:(Some (state_digest sc live)) dir);
  Durable.close !d;
  rep := { !rep with r_recoveries = !rep.r_recoveries + !recoveries }

(* Phase 2: the crash harness.  A clean reference run records the
   value digest keyed by durable record count — block execution is
   deterministic and every committed effectful block appends exactly
   one Txn record, so [digest_at.(records)] is the expected state of
   ANY recovery whose log holds that many records.  Forked children
   then replay the identical workload and die by real SIGKILL at an
   armed fault site; recovery must land exactly on a committed-prefix
   boundary. *)
let crash_phase sc profile ~kills ~root rep blocks =
  let config = sc.Scenario.sc_config in
  let ref_dir = Filename.concat root "reference" in
  mkdir_p ref_dir;
  let d, _ = open_durable sc ref_dir in
  setup_durable sc profile d;
  Fault.enable true;
  Fault.disarm ();
  let digest_at = Hashtbl.create 64 in
  let records () = (Durable.status d).Durable.st_wal_records in
  Hashtbl.replace digest_at (records ()) (state_digest sc (Durable.system d));
  let hits_after = Array.make (List.length blocks) 0 in
  List.iteri
    (fun i block ->
      rep := { !rep with r_txns = !rep.r_txns + 1 };
      count_outcome rep (run_block (Durable.system d) block);
      Hashtbl.replace digest_at (records ())
        (state_digest sc (Durable.system d));
      hits_after.(i) <- Fault.observed_hits ())
    blocks;
  check_invariants sc ~context:"crash-phase reference final"
    (Durable.system d);
  rep := { !rep with r_checks = !rep.r_checks + n_invariants sc };
  Fault.reset ();
  Durable.close d;
  let n = Array.length hits_after in
  (* kill points: the (approximate) hit counts at evenly spread block
     positions.  The child's own hit numbering runs a little behind
     (it never executes the reference run's digest queries), so each
     kill lands at or before the chosen block — anywhere mid-run is a
     valid crash point, including a clean run killed at the end. *)
  let kill_points =
    List.sort_uniq compare
      (List.init (max 0 kills) (fun j ->
           max 1 hits_after.(min (n - 1) ((n * (j + 1) / (kills + 1))))))
  in
  List.iter
    (fun h ->
      let kdir = Filename.concat root (Printf.sprintf "kill-%d" h) in
      rm_rf kdir;
      mkdir_p kdir;
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
        (* the child re-runs the deterministic workload and dies by
           real SIGKILL at the h-th fault-site hit: no atexit, no
           buffer flushing, no unwinding — a crash *)
        (try
           Fault.reset ();
           let d, _ = open_durable sc kdir in
           setup_durable sc profile d;
           Fault.arm h;
           List.iter
             (fun b -> ignore (run_block (Durable.system d) b))
             blocks
         with _ -> ());
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      | pid ->
        let _, status = Unix.waitpid [] pid in
        (match status with
        | Unix.WSIGNALED s when s = Sys.sigkill -> ()
        | _ -> failf "[%s] crash child did not die by SIGKILL" sc.Scenario.sc_name);
        let sys_r, info = Recovery.restore ~config kdir in
        if info.Recovery.ri_torn then
          failf "[%s] kill at hit %d left a torn tail (SIGKILL cannot tear)"
            sc.Scenario.sc_name h;
        let k = info.Recovery.ri_records in
        (match Hashtbl.find_opt digest_at k with
        | None ->
          failf
            "[%s] kill at hit %d: %d durable records do not match any \
             committed-prefix boundary"
            sc.Scenario.sc_name h k
        | Some expected ->
          if state_digest sc sys_r <> expected then
            failf
              "[%s] kill at hit %d: recovery (%d records) is not the \
               committed-prefix state"
              sc.Scenario.sc_name h k);
        rep :=
          {
            !rep with
            r_kills = !rep.r_kills + 1;
            r_recoveries = !rep.r_recoveries + 1;
          };
        rep :=
          {
            !rep with
            r_checks =
              !rep.r_checks
              + recovery_differential sc profile
                  ~context:(Printf.sprintf "after kill at hit %d" h)
                  ~expected:None kdir;
          };
        rm_rf kdir)
    kill_points

let soak ~dir ?(kills = 3) ?(fault_every = 5) sc profile =
  Profile.validate profile;
  let rep = ref (empty_report sc.Scenario.sc_name) in
  let root = scenario_dir dir sc in
  Fun.protect ~finally:Fault.reset (fun () ->
      let blocks = gen_blocks sc profile in
      live_fault_phase sc profile ~fault_every
        ~dir:(Filename.concat root "live") rep blocks;
      crash_phase sc profile ~kills ~root rep blocks);
  !rep

(* ------------------------------------------------------------------ *)
(* Timed throughput (E17, CLI)                                         *)

let throughput ?(duration = 1.0) sc profile =
  Profile.validate profile;
  let blocks = Array.of_list (gen_blocks sc profile) in
  if Array.length blocks = 0 then invalid_arg "throughput: txns must be > 0";
  let s = build sc profile in
  let start = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. start < duration do
    ignore (run_block s blocks.(!n mod Array.length blocks));
    incr n
  done;
  let elapsed = Unix.gettimeofday () -. start in
  (float_of_int !n /. elapsed, !n)
