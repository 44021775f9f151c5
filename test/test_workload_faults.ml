(* Fault site x scenario matrix.

   For every registered scenario, a durable system is driven through a
   deterministic workload slice with a fault injected at hit point 1,
   2, 3, ... of each transaction until an attempt runs fault-free (the
   PR 2 sweep, applied to the scenario corpus).  Asserted throughout:

   - abort-restores-snapshot: any induced abort (every site up to and
     including Wal_append) leaves the observable state exactly the
     pre-transaction state;
   - Wal_fsync is process death with the record durable: the harness
     abandons the live system and reopens, never retries, and the
     recovered state must satisfy the scenario's invariants;
   - post-recovery invariants: on a sample of induced aborts,
     [Recovery.restore] must agree with the live state and satisfy the
     invariants;
   - the checkpoint fault sites leave nothing behind;
   - coverage: per scenario, the sweep must actually inject at every
     engine site the scenario can reach plus both WAL sites — a
     scenario whose rules never evaluate a condition (or whose traffic
     never commits) would silently weaken the matrix. *)

open Helpers
module Profile = Workload.Profile
module Scenario = Workload.Scenario
module Scenarios = Workload.Scenarios
module Runner = Workload.Runner
module TR = Test_recovery
module Recovery = Durability.Recovery
module Durable = Durability.Durable
module Fault = Core.Fault

let () = Scenarios.register_all ()

let with_faults f = Fun.protect ~finally:Fault.reset f

let matrix_profile =
  { Profile.default with Profile.seed = seed ~default:42; txns = 16 }

(* One scenario's sweep; returns the set of sites injected. *)
let sweep_scenario sc =
  let injected : (Fault.site, int) Hashtbl.t = Hashtbl.create 16 in
  let note site =
    Hashtbl.replace injected site
      (1 + Option.value (Hashtbl.find_opt injected site) ~default:0)
  in
  let total () = Hashtbl.fold (fun _ n acc -> n + acc) injected 0 in
  TR.in_dir ("matrix-" ^ sc.Scenario.sc_name) (fun dir ->
      let open_d () = fst (Durable.open_dir ~config:sc.Scenario.sc_config dir) in
      let d = ref (open_d ()) in
      List.iter
        (fun stmt -> ignore (Durable.exec !d stmt))
        (Runner.setup_statements sc matrix_profile);
      let blocks = Runner.gen_blocks sc matrix_profile in
      let digest () = Runner.state_digest sc (Durable.system !d) in
      (* the fsync-death window is sampled on the first block at or
         after each sixth whose sweep reaches Wal_append: a block that
         never commits (a rule rolled it back) never reaches the WAL,
         so a fixed every-sixth sample would miss the site whenever the
         traffic drawn makes each sixth block roll back *)
      let fsync_due = ref false in
      List.iteri
        (fun i block ->
          (* otherwise stop the sweep at the Wal_append abort and finish
             with a clean, comparable commit (a committed block's hit
             sequence always ends ..., Wal_append, Wal_fsync) *)
          if (i + 1) mod 6 = 0 then fsync_due := true;
          let kill_fsync = !fsync_due in
          let rec attempt k =
            let pre = digest () in
            Fault.arm k;
            match Runner.run_block (Durable.system !d) block with
            | _ -> Fault.disarm ()
            | exception Fault.Injected Fault.Wal_fsync ->
              Fault.disarm ();
              note Fault.Wal_fsync;
              fsync_due := false;
              (* the record is durable; the writer died: reopen, do NOT
                 retry — the transaction is committed *)
              Durable.close !d;
              d := open_d ();
              Runner.check_invariants sc
                ~context:(Printf.sprintf "txn %d after fsync death" (i + 1))
                (Durable.system !d)
            | exception Fault.Injected site ->
              Fault.disarm ();
              note site;
              if digest () <> pre then
                Alcotest.failf "[%s] abort at %s did not restore the snapshot"
                  sc.Scenario.sc_name (Fault.site_name site);
              if total () mod 5 = 0 then begin
                let sys_r, _ =
                  Recovery.restore ~config:sc.Scenario.sc_config dir
                in
                Alcotest.(check string)
                  (Printf.sprintf "[%s] restore after abort at %s equals live"
                     sc.Scenario.sc_name (Fault.site_name site))
                  pre
                  (Runner.state_digest sc sys_r);
                Runner.check_invariants sc
                  ~context:(Fault.site_name site ^ " post-recovery") sys_r
              end;
              if site = Fault.Wal_append && not kill_fsync then begin
                Fault.disarm ();
                ignore (Runner.run_block (Durable.system !d) block)
              end
              else attempt (k + 1)
          in
          attempt 1;
          if (i + 1) mod 4 = 0 then
            Runner.check_invariants sc
              ~context:(Printf.sprintf "after txn %d" (i + 1))
              (Durable.system !d))
        blocks;
      (* the checkpoint sites: both precede any durable mutation *)
      let fp0 = digest () in
      List.iter
        (fun (k, expected) ->
          Fault.arm k;
          (match Durable.checkpoint !d with
          | () -> Alcotest.fail "expected a checkpoint injection"
          | exception Fault.Injected site ->
            note site;
            Alcotest.(check string) "checkpoint faulted at the expected site"
              (Fault.site_name expected) (Fault.site_name site));
          Fault.disarm ();
          let sys_r, _ = Recovery.restore ~config:sc.Scenario.sc_config dir in
          Alcotest.(check string)
            (Printf.sprintf "[%s] failed checkpoint changed nothing durable"
               sc.Scenario.sc_name)
            fp0
            (Runner.state_digest sc sys_r))
        [ (1, Fault.Checkpoint_write); (2, Fault.Checkpoint_rename) ];
      Durable.checkpoint !d;
      Runner.check_invariants sc ~context:"after clean checkpoint"
        (Durable.system !d);
      let sys_r, info = Recovery.restore ~config:sc.Scenario.sc_config dir in
      Alcotest.(check bool) "restores from the new checkpoint" true
        info.Recovery.ri_checkpoint_used;
      Alcotest.(check string) "checkpointed restore equals live" (digest ())
        (Runner.state_digest sc sys_r);
      Durable.close !d;
      injected)

let expected_sites =
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
  ]

let matrix_case name () =
  with_seed_reported matrix_profile.Profile.seed (fun () ->
      with_faults (fun () ->
          let sc = Scenario.get name in
          let injected = sweep_scenario sc in
          List.iter
            (fun site ->
              Alcotest.(check bool)
                (Printf.sprintf "[%s] injected at %s" name
                   (Fault.site_name site))
                true
                (Hashtbl.mem injected site))
            expected_sites;
          Alcotest.(check bool)
            (Printf.sprintf "[%s] procedure-free corpus never faults in a \
                             procedure" name)
            true
            (not (Hashtbl.mem injected Fault.Procedure_call))))

let suite =
  List.map
    (fun name -> Alcotest.test_case ("matrix: " ^ name) `Slow (matrix_case name))
    (Scenario.all () |> List.map (fun sc -> sc.Scenario.sc_name))
