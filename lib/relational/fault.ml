(* Deterministic fault injection for exception-safety testing.

   The paper's transition model assumes operation blocks "are executed
   indivisibly" (Section 2.1) and that rollback restores the exact
   transaction-start state (Section 4).  Those guarantees are only as
   good as the engine's behaviour when an arbitrary error is raised in
   the middle of a block, a rule condition, a rule action, an external
   procedure, or commit processing — so every one of those places is an
   *injection site*: a call to [hit] that normally does nothing but,
   when the module is armed, raises [Injected] after a chosen number of
   hits.

   Injection is countdown-based and therefore fully deterministic: a
   harness first runs a workload with injection disabled to count the
   hit points it passes, then replays it once per hit point with
   [arm k] for k = 1..n, checking after each induced abort that the
   engine state is exactly the pre-transaction state and that a final
   fault-free retry behaves as if no fault ever happened.  Randomness
   lives only in the (seeded) workload generator, never here.

   The master [enabled] switch keeps the sites free outside tests: a
   disarmed [hit] is a single ref read. *)

type site =
  | Dml_op  (** start of [Dml.exec_cop], the one entry point of every data manipulation operation *)
  | Query_eval
      (** a top-level compiled select — [Compile.eval_select], a select
          or INSERT ... SELECT plan run by [Dml] (queries, procedure
          reads) *)
  | Rule_condition  (** rule condition evaluation in the engine *)
  | Rule_action  (** rule action execution in the engine *)
  | Procedure_call  (** external procedure invocation (Section 5.2) *)
  | Commit_point  (** commit finalization, after rule processing succeeded *)
  | Wal_append  (** before a WAL record's bytes are written (record lost) *)
  | Wal_fsync  (** after a WAL record is written and fsynced (record durable) *)
  | Checkpoint_write  (** before the checkpoint temp file is written *)
  | Checkpoint_rename
      (** after the temp file is durable, before the atomic rename *)

exception Injected of site

let engine_sites =
  [ Dml_op; Query_eval; Rule_condition; Rule_action; Procedure_call; Commit_point ]

let durability_sites =
  [ Wal_append; Wal_fsync; Checkpoint_write; Checkpoint_rename ]

let all_sites = engine_sites @ durability_sites

let site_name = function
  | Dml_op -> "dml-op"
  | Query_eval -> "query-eval"
  | Rule_condition -> "rule-condition"
  | Rule_action -> "rule-action"
  | Procedure_call -> "procedure-call"
  | Commit_point -> "commit-point"
  | Wal_append -> "wal-append"
  | Wal_fsync -> "wal-fsync"
  | Checkpoint_write -> "checkpoint-write"
  | Checkpoint_rename -> "checkpoint-rename"

(* master switch: when false, [hit] is a no-op and nothing is counted *)
let enabled = ref false

(* remaining hits before injection; 0 = disarmed (count only) *)
let armed = ref 0

(* hits observed since the last [reset] or [arm] *)
let observed = ref 0

(* site of the most recent injected fault, if any *)
let last_injected : site option ref = ref None

(* cumulative per-site hit counts since [reset_site_counts]; lets a
   harness prove that every site was actually exercised *)
let site_counts : (site, int) Hashtbl.t = Hashtbl.create 8

let site_count s = Option.value (Hashtbl.find_opt site_counts s) ~default:0
let reset_site_counts () = Hashtbl.reset site_counts

let enable on =
  enabled := on;
  if not on then armed := 0

let arm n =
  if n <= 0 then invalid_arg "Fault.arm: countdown must be positive";
  enabled := true;
  armed := n;
  observed := 0;
  last_injected := None

let disarm () =
  armed := 0;
  observed := 0

(* Full teardown for test harnesses.  The countdown state is
   process-global, so a harness that raises between [arm] and [disarm]
   (an alcotest failure, a qcheck shrink re-run) would otherwise leak an
   armed countdown into whatever test runs next; calling [reset] from a
   [Fun.protect] finalizer makes that impossible.  Per-site cumulative
   counts survive a reset — they are cross-test coverage evidence, not
   armed state. *)
let reset () =
  enabled := false;
  armed := 0;
  observed := 0;
  last_injected := None

let observed_hits () = !observed
let injected () = !last_injected

let hit site =
  if !enabled then begin
    incr observed;
    Hashtbl.replace site_counts site (site_count site + 1);
    if !armed > 0 then begin
      decr armed;
      if !armed = 0 then begin
        last_injected := Some site;
        raise (Injected site)
      end
    end
  end

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "injected fault at %s" (site_name site))
    | _ -> None)
