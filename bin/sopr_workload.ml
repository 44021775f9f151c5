(* sopr-workload — run the scenario corpus.

   Usage:
     sopr-workload list
     sopr-workload run  [SCENARIO...] [profile flags]
     sopr-workload soak [SCENARIO...] --data-dir DIR [profile flags]
     sopr-workload bench [SCENARIO...] [--duration SECS] [profile flags]

   [run] executes the generated stream on two in-memory twins
   (indexed and index-free) with per-transaction differential checks
   and invariant checks.  [soak] adds durability:
   a live fault-injection phase and a fork+SIGKILL crash phase over
   --data-dir, with invariants and recovery differentials checked
   after every recovery.  [bench] reports plain throughput. *)

open Cmdliner
module Scenario = Workload.Scenario
module Scenarios = Workload.Scenarios
module Profile = Workload.Profile
module Runner = Workload.Runner

let () = Scenarios.register_all ()

(* ------------------------------------------------------------------ *)
(* Profile flags                                                       *)

let seed_arg =
  Arg.(
    value
    & opt int Profile.default.Profile.seed
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "PRNG seed. A run is deterministic in the seed: the same value \
           regenerates the same transaction stream.")

let txns_arg =
  Arg.(
    value
    & opt int Profile.default.Profile.txns
    & info [ "txns" ] ~docv:"N" ~doc:"Transactions to drive per scenario.")

let min_ops_arg =
  Arg.(
    value
    & opt int Profile.default.Profile.min_ops
    & info [ "min-ops" ] ~docv:"N" ~doc:"Smallest operation block.")

let max_ops_arg =
  Arg.(
    value
    & opt int Profile.default.Profile.max_ops
    & info [ "max-ops" ] ~docv:"N" ~doc:"Largest operation block.")

let read_frac_arg =
  Arg.(
    value
    & opt float Profile.default.Profile.read_frac
    & info [ "read-frac" ] ~docv:"F"
        ~doc:"Fraction of operations that are reads, in [0,1].")

let keys_arg =
  Arg.(
    value
    & opt int Profile.default.Profile.keys
    & info [ "keys" ] ~docv:"N" ~doc:"Key-space size per scenario entity.")

let theta_arg =
  Arg.(
    value
    & opt float Profile.default.Profile.theta
    & info [ "theta" ] ~docv:"F"
        ~doc:
          "Zipfian key skew in [0,1): 0 is uniform, 0.99 is the YCSB \
           hotspot default.")

let rule_density_arg =
  Arg.(
    value
    & opt int Profile.default.Profile.rule_density
    & info [ "rule-density" ] ~docv:"N"
        ~doc:
          "Extra never-firing rules installed at setup, scaling the rule \
           set the engine must consider per transition.")

let profile_term =
  let make seed txns min_ops max_ops read_frac keys theta rule_density =
    {
      Profile.seed;
      txns;
      min_ops;
      max_ops;
      read_frac;
      keys;
      theta;
      rule_density;
    }
  in
  Term.(
    const make $ seed_arg $ txns_arg $ min_ops_arg $ max_ops_arg
    $ read_frac_arg $ keys_arg $ theta_arg $ rule_density_arg)

let scenarios_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"SCENARIO"
        ~doc:"Scenarios to run (default: every registered scenario).")

let resolve names =
  match names with
  | [] -> Scenario.all ()
  | names -> List.map Scenario.get names

let report r = Format.printf "%a@." Runner.pp_report r

let catching f =
  match f () with
  | () -> 0
  | exception Runner.Check_failed msg ->
    Format.eprintf "FAILED: %s@." msg;
    1
  | exception Invalid_argument msg ->
    Format.eprintf "error: %s@." msg;
    2

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)

let list_cmd =
  let run () =
    List.iter
      (fun sc ->
        Format.printf "%-14s %s@." sc.Scenario.sc_name sc.Scenario.sc_doc)
      (Scenario.all ());
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the registered scenarios.")
    Term.(const run $ const ())

let prepared_arg =
  Arg.(
    value & flag
    & info [ "prepared" ]
        ~doc:
          "Also drive the stream through PREPARE/EXECUTE: literals are \
           lifted into positional parameters, each distinct statement shape \
           is prepared once, and the prepared twin must match direct \
           execution transaction by transaction.")

let run_cmd =
  let run names profile prepared =
    catching (fun () ->
        List.iter
          (fun sc ->
            report (Runner.run_short sc profile);
            if prepared then
              report (Runner.run_prepared_differential sc profile))
          (resolve names))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Drive scenarios in memory with differential and invariant checks.")
    Term.(const run $ scenarios_arg $ profile_term $ prepared_arg)

let data_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Scratch root for the durable soak (created if absent; contents \
           are disposable).")

let kills_arg =
  Arg.(
    value & opt int 3
    & info [ "kills" ] ~docv:"N"
        ~doc:"fork+SIGKILL crash/recovery rounds per scenario.")

let fault_every_arg =
  Arg.(
    value & opt int 5
    & info [ "fault-every" ] ~docv:"N"
        ~doc:"Arm a live fault on every $(docv)-th transaction (0: never).")

let soak_cmd =
  let run names profile dir kills fault_every =
    catching (fun () ->
        List.iter
          (fun sc ->
            report (Runner.soak ~dir ~kills ~fault_every sc profile))
          (resolve names))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Durable soak: live fault injection plus fork+SIGKILL crashes, \
          with invariants and recovery differentials checked after every \
          recovery.")
    Term.(
      const run $ scenarios_arg $ profile_term $ data_dir_arg $ kills_arg
      $ fault_every_arg)

let duration_arg =
  Arg.(
    value & opt float 1.0
    & info [ "duration" ] ~docv:"SECS"
        ~doc:"Measurement window per scenario.")

let bench_cmd =
  let run names profile duration =
    catching (fun () ->
        List.iter
          (fun sc ->
            let tps, n = Runner.throughput ~duration sc profile in
            Format.printf "%-14s %8.0f txn/s  (%d txns in %.1fs)@."
              sc.Scenario.sc_name tps n duration)
          (resolve names))
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Plain throughput per scenario (no checks).")
    Term.(const run $ scenarios_arg $ profile_term $ duration_arg)

let clients_arg =
  Arg.(
    value & opt int 4
    & info [ "clients" ] ~docv:"N"
        ~doc:"Concurrent client sessions driving the stream.")

let server_mode_arg =
  let modes =
    [
      ("memory", Sopr_server.Server.Memory);
      ("sync", Sopr_server.Server.Wal_sync);
      ("nosync", Sopr_server.Server.Wal_nosync);
    ]
  in
  Arg.(
    value
    & opt (enum modes) Sopr_server.Server.Memory
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Durability mode: $(b,memory), $(b,sync) or $(b,nosync).  The \
           WAL modes require --data-dir and group-commit every commit.")

let opt_data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Scratch root for the WAL modes: each scenario runs in its own \
           subdirectory, emptied first (created if absent).")

let server_cmd =
  let run names profile clients mode data_dir =
    catching (fun () ->
        List.iter
          (fun sc ->
            Format.printf "%a@." Workload.Server_driver.pp_report
              (Workload.Server_driver.run ~clients ~mode ?data_dir sc
                 profile))
          (resolve names))
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:
         "Drive scenarios through concurrent TCP client sessions against \
          an in-process server, retrying serialization conflicts, then \
          prove the run serializable by replaying the committed blocks in \
          publish order and comparing value digests.")
    Term.(
      const run $ scenarios_arg $ profile_term $ clients_arg
      $ server_mode_arg $ opt_data_dir_arg)

let cmd =
  let doc = "scenario corpus and workload generator for sopr" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the registered rule-system scenarios (quota enforcement, \
         audit trail, incremental materialized views, referential cascades, \
         constraint repair) under a seeded YCSB-style workload generator \
         with Zipfian key skew, checking each scenario's declared \
         invariants and the engine's differential equivalences.";
    ]
  in
  Cmd.group (Cmd.info "sopr-workload" ~version:"1.0.0" ~doc ~man)
    [ list_cmd; run_cmd; soak_cmd; bench_cmd; server_cmd ]

let () = exit (Cmd.eval' cmd)
