(* The workload harness: generator distribution properties, scenario
   registry behaviour, and the scenario corpus driven end-to-end.

   Layers:

   - unit tests for the profile/sampler (validation, determinism,
     Zipfian skew, bounds);
   - registry tests (the five built-in scenarios, error behaviour);
   - short mode: every registered scenario through the in-memory
     differential runner (indexed vs index-free twins, invariants
     checked throughout) — this is the
     [dune runtest] deterministic slice;
   - the rule-density knob: padding rules must be semantically inert;
   - soak mode: every scenario through the durable fault+crash soak.
     The default drives >= 500 transactions per scenario; setting
     SOPR_SOAK=<n> multiplies the stream length for long runs;
   - [Server_driver.run] in a WAL mode: every scenario of a run starts
     from its own empty data directory, on the first run over a
     directory and on the next.

   Reproduction: all streams derive from the profile seed, overridable
   with SOPR_SEED (printed on failure by [with_seed_reported]). *)

open Helpers
module Profile = Workload.Profile
module Scenario = Workload.Scenario
module Scenarios = Workload.Scenarios
module Runner = Workload.Runner
module TR = Test_recovery
module Fault = Core.Fault

let () = Scenarios.register_all ()

let soak_scale =
  match Sys.getenv_opt "SOPR_SOAK" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)

let base_seed = seed ~default:Profile.default.Profile.seed

(* ------------------------------------------------------------------ *)
(* Profile and sampler units                                           *)

let test_profile_validation () =
  let expect_invalid p =
    match Profile.validate p with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  Profile.validate Profile.default;
  expect_invalid { Profile.default with Profile.keys = 0 };
  expect_invalid { Profile.default with Profile.txns = -1 };
  expect_invalid { Profile.default with Profile.min_ops = 0 };
  expect_invalid { Profile.default with Profile.min_ops = 5; max_ops = 4 };
  expect_invalid { Profile.default with Profile.read_frac = 1.5 };
  expect_invalid { Profile.default with Profile.theta = 1.0 };
  expect_invalid { Profile.default with Profile.rule_density = -2 }

let test_sampler_deterministic () =
  let p = { Profile.default with Profile.seed = base_seed } in
  let draw () =
    let s = Profile.Sampler.create p in
    List.init 200 (fun _ ->
        (Profile.Sampler.key s, Profile.Sampler.txn_size s))
  in
  Alcotest.(check (list (pair int int)))
    "same seed, same stream" (draw ()) (draw ());
  let other =
    let s = Profile.Sampler.create { p with Profile.seed = base_seed + 1 } in
    List.init 200 (fun _ ->
        (Profile.Sampler.key s, Profile.Sampler.txn_size s))
  in
  Alcotest.(check bool) "different seed, different stream" false
    (draw () = other)

let test_sampler_bounds () =
  let p =
    { Profile.default with Profile.keys = 17; min_ops = 2; max_ops = 5 }
  in
  let s = Profile.Sampler.create p in
  for _ = 1 to 2000 do
    let k = Profile.Sampler.key s in
    if k < 0 || k >= 17 then Alcotest.failf "key %d out of [0,17)" k;
    let n = Profile.Sampler.txn_size s in
    if n < 2 || n > 5 then Alcotest.failf "txn size %d out of [2,5]" n
  done

(* Zipfian skew: under strong skew the hottest key absorbs a large
   share of draws; under theta = 0 the distribution is uniform. *)
let test_sampler_zipf_skew () =
  let count_hot theta =
    let p =
      { Profile.default with Profile.keys = 64; theta; seed = base_seed }
    in
    let s = Profile.Sampler.create p in
    let hot = ref 0 in
    for _ = 1 to 2000 do
      if Profile.Sampler.key s = 0 then incr hot
    done;
    !hot
  in
  let skewed = count_hot 0.9 and uniform = count_hot 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "theta=0.9 concentrates on the hot key (%d vs %d)" skewed
       uniform)
    true
    (skewed > 5 * uniform && skewed > 200);
  Alcotest.(check bool)
    (Printf.sprintf "theta=0 stays near uniform (%d/2000 on one of 64 keys)"
       uniform)
    true
    (uniform < 100)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry () =
  Scenarios.register_all ();
  (* idempotent *)
  Alcotest.(check (list string))
    "the six scenarios, in registration order"
    [
      Scenarios.tenant_quota;
      Scenarios.audit_trail;
      Scenarios.matview;
      Scenarios.ref_cascade;
      Scenarios.repair;
      Scenarios.order_rollup;
    ]
    (Scenario.names ());
  (match Scenario.get "no-such-scenario" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "unknown-scenario error lists the known names" true
      (contains msg Scenarios.matview));
  List.iter
    (fun sc ->
      Alcotest.(check bool)
        (sc.Scenario.sc_name ^ " declares invariants")
        true
        (List.length sc.Scenario.sc_invariants >= 2);
      Alcotest.(check bool)
        (sc.Scenario.sc_name ^ " declares observable tables")
        true
        (List.length sc.Scenario.sc_tables >= 2))
    (Scenario.all ())

(* ------------------------------------------------------------------ *)
(* Short mode: the in-memory differential per scenario                 *)

let short_profile =
  { Profile.default with Profile.seed = base_seed; txns = 120 }

let run_short_scenario name () =
  with_seed_reported short_profile.Profile.seed (fun () ->
      let sc = Scenario.get name in
      let r = Runner.run_short sc short_profile in
      Alcotest.(check int) "all transactions driven" short_profile.Profile.txns
        r.Runner.r_txns;
      Alcotest.(check int) "every transaction accounted for"
        r.Runner.r_txns
        (r.Runner.r_committed + r.Runner.r_rolled_back);
      Alcotest.(check bool) "work actually committed" true
        (r.Runner.r_committed > 0);
      Alcotest.(check bool) "invariants actually checked" true
        (r.Runner.r_checks > 0))

(* The prepared-statement twin: the same stream through
   PREPARE/EXECUTE (literals lifted into parameters, one PREPARE per
   distinct statement shape) must match direct execution transaction
   by transaction, and repeated shapes must be served from the
   prepared-plan cache. *)
let run_prepared_scenario name () =
  with_seed_reported short_profile.Profile.seed (fun () ->
      let sc = Scenario.get name in
      let r = Runner.run_prepared_differential sc short_profile in
      Alcotest.(check int) "all transactions driven" short_profile.Profile.txns
        r.Runner.r_txns;
      Alcotest.(check bool) "work actually committed" true
        (r.Runner.r_committed > 0);
      Alcotest.(check bool) "invariants actually checked" true
        (r.Runner.r_checks > 0))

(* Non-vacuity of the enforcement scenarios: the generated traffic must
   actually trip the rollback-style rules, otherwise the invariants are
   vacuous. *)
let test_enforcement_not_vacuous () =
  with_seed_reported short_profile.Profile.seed (fun () ->
      List.iter
        (fun name ->
          let r = Runner.run_short (Scenario.get name) short_profile in
          Alcotest.(check bool)
            (name ^ " tripped its enforcement rules")
            true
            (r.Runner.r_rolled_back > 0))
        [ Scenarios.tenant_quota; Scenarios.audit_trail; Scenarios.ref_cascade ])

(* The rule-density knob must be semantically inert: the padding rules
   never fire, so the same seed produces the same outcome counts with
   a 25x denser rule set. *)
let test_rule_density_inert () =
  with_seed_reported short_profile.Profile.seed (fun () ->
      let sc = Scenario.get Scenarios.tenant_quota in
      let sparse = Runner.run_short sc short_profile in
      let dense =
        Runner.run_short sc
          { short_profile with Profile.rule_density = 25 }
      in
      Alcotest.(check (pair int int))
        "same commits and rollbacks under a dense rule set"
        (sparse.Runner.r_committed, sparse.Runner.r_rolled_back)
        (dense.Runner.r_committed, dense.Runner.r_rolled_back))

(* ------------------------------------------------------------------ *)
(* Soak mode: durable fault+crash runs per scenario                    *)

let soak_profile =
  (* 260 transactions drive the stream twice (live-fault phase + crash
     reference), >= 500 per scenario; SOPR_SOAK multiplies *)
  {
    Profile.default with
    Profile.seed = base_seed;
    txns = 260 * soak_scale;
    theta = 0.75;
  }

let soak_scenario name () =
  with_seed_reported soak_profile.Profile.seed (fun () ->
      TR.in_dir ("workload-" ^ name) (fun dir ->
          let sc = Scenario.get name in
          let r = Runner.soak ~dir ~kills:3 ~fault_every:5 sc soak_profile in
          Alcotest.(check int) "the stream was driven twice"
            (2 * soak_profile.Profile.txns)
            r.Runner.r_txns;
          Alcotest.(check int) "every transaction accounted for"
            r.Runner.r_txns
            (r.Runner.r_committed + r.Runner.r_rolled_back);
          Alcotest.(check bool) "faults were injected" true
            (r.Runner.r_injections > 0);
          Alcotest.(check bool) "SIGKILL recoveries ran" true
            (r.Runner.r_kills >= 1);
          Alcotest.(check bool) "recoveries differentially checked" true
            (r.Runner.r_recoveries >= r.Runner.r_kills + 1);
          Alcotest.(check bool) "invariants checked throughout" true
            (r.Runner.r_checks > 10)))

(* Coverage: across the whole soak, the armed faults must actually
   exercise both the engine sites and the durability sites.  (The
   scenarios are deliberately procedure-free — recovery replays their
   effects from the WAL, and OCaml procedures cannot be replayed — so
   [Procedure_call] is exactly the site that must NOT appear.) *)
let soak_hits : (Fault.site, int) Hashtbl.t = Hashtbl.create 16

let record_soak_hits () =
  List.iter
    (fun site ->
      let n = Fault.site_count site in
      if n > 0 then
        Hashtbl.replace soak_hits site
          (n + Option.value (Hashtbl.find_opt soak_hits site) ~default:0))
    Fault.all_sites

let soak_scenario_recording name () =
  Fault.reset_site_counts ();
  soak_scenario name ();
  record_soak_hits ()

let test_soak_site_coverage () =
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "site %s exercised during the soak"
           (Fault.site_name site))
        true
        (Hashtbl.mem soak_hits site))
    [
      Fault.Dml_op;
      Fault.Query_eval;
      Fault.Rule_condition;
      Fault.Rule_action;
      Fault.Commit_point;
      Fault.Wal_append;
      Fault.Wal_fsync;
      Fault.Checkpoint_write;
      Fault.Checkpoint_rename;
    ];
  Alcotest.(check int) "procedure-free corpus never passes Procedure_call" 0
    (Option.value (Hashtbl.find_opt soak_hits Fault.Procedure_call) ~default:0)

(* ------------------------------------------------------------------ *)
(* Server runs over one data directory                                *)

(* Two WAL-mode runs of two scenarios over one data directory: each
   scenario sets up its tables and rules from nothing, however many
   runs and scenarios came before it. *)
let test_server_reruns () =
  let profile = { Profile.default with Profile.seed = base_seed; txns = 12 } in
  let names = [ "tenant-quota"; "audit-trail" ] in
  TR.in_dir "server-reruns" (fun dir ->
      for round = 1 to 2 do
        List.iter
          (fun name ->
            let r =
              Workload.Server_driver.run ~clients:2 ~mode:Sopr_server.Server.Wal_nosync
                ~data_dir:dir (Scenario.get name) profile
            in
            Alcotest.(check int)
              (Printf.sprintf "run %d, %s: every block driven" round name)
              profile.Profile.txns r.Workload.Server_driver.sd_txns)
          names
      done)

let suite =
  [
    Alcotest.test_case "profile validation" `Quick test_profile_validation;
    Alcotest.test_case "sampler determinism" `Quick test_sampler_deterministic;
    Alcotest.test_case "sampler bounds" `Quick test_sampler_bounds;
    Alcotest.test_case "zipfian skew" `Quick test_sampler_zipf_skew;
    Alcotest.test_case "scenario registry" `Quick test_registry;
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case ("short: " ^ name) `Quick (run_short_scenario name))
      (Scenario.names ())
  @ List.map
      (fun name ->
        Alcotest.test_case ("prepared: " ^ name) `Quick
          (run_prepared_scenario name))
      (Scenario.names ())
  @ [
      Alcotest.test_case "enforcement rules not vacuous" `Quick
        test_enforcement_not_vacuous;
      Alcotest.test_case "rule-density knob inert" `Quick
        test_rule_density_inert;
      Alcotest.test_case "server runs: two WAL runs over one data directory" `Quick
        test_server_reruns;
    ]
  @ List.map
      (fun name ->
        Alcotest.test_case ("soak: " ^ name) `Slow
          (soak_scenario_recording name))
      (Scenario.names ())
  @ [
      Alcotest.test_case "soak fault-site coverage" `Slow
        test_soak_site_coverage;
    ]
