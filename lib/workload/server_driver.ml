(* Drive a scenario's generated transaction stream through concurrent
   client sessions over loopback TCP, then prove serializability: every
   commit reports its publish version, so replaying the committed
   blocks in version order on a plain in-memory system must reproduce
   the server's final state exactly (value digests — handle allocation
   interleaves across sessions, so handle order cannot be compared). *)

open Core
module Server = Sopr_server.Server
module Client = Sopr_server.Client

let failf fmt = Printf.ksprintf (fun m -> raise (Runner.Check_failed m)) fmt

type report = {
  sd_scenario : string;
  sd_clients : int;
  sd_txns : int;
  sd_committed : int;
  sd_rolled_back : int;
  sd_conflicts : int;
  sd_checks : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %d txns over %d sessions (%d committed, %d rolled back), %d \
     serialization conflicts retried, serial replay matched, %d invariant \
     checks"
    r.sd_scenario r.sd_txns r.sd_clients r.sd_committed r.sd_rolled_back
    r.sd_conflicts r.sd_checks

(* The wire protocol is line-oriented: generated SQL must never smuggle
   a newline into the request. *)
let oneline s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The commit statement answers ["committed at version N"] — the
   server's publish order, which is the serialization order. *)
let commit_version body =
  let marker = "committed at version " in
  let nh = String.length body and nn = String.length marker in
  let rec last i best =
    if i + nn > nh then best
    else if String.sub body i nn = marker then last (i + 1) (Some (i + nn))
    else last (i + 1) best
  in
  match last 0 None with
  | None -> None
  | Some j ->
    let k = ref j in
    while !k < nh && body.[!k] >= '0' && body.[!k] <= '9' do
      incr k
    done;
    int_of_string_opt (String.sub body j (!k - j))

let max_attempts = 1000

let run ?(clients = 4) ?(mode = Server.Memory) ?data_dir sc profile =
  Profile.validate profile;
  let blocks = Array.of_list (Runner.gen_blocks sc profile) in
  (* Write-write conflicts alone give snapshot isolation; scenarios
     whose transactions write rows computed from reads (the repair
     cascade's rule conditions and scalar subqueries) exhibit write
     skew under a long commit window (one fsync is plenty).  With
     [track_selects] the server runs serializable — table-granularity
     read claims join the commit validation — which is what makes the
     serial-replay check sound. *)
  let config = { sc.Scenario.sc_config with Engine.track_selects = true } in
  let data_dir =
    Option.map (fun root -> Runner.scenario_dir root sc) data_dir
  in
  let srv = Server.create ~config ?data_dir mode in
  let listener = Server.start srv in
  let port = Server.port listener in
  Fun.protect ~finally:(fun () ->
      Server.stop listener;
      Server.close srv)
  @@ fun () ->
  let setup = Client.connect ~port () in
  List.iter
    (fun stmt ->
      match Client.request setup (oneline stmt) with
      | Ok _ -> ()
      | Error e -> failf "[%s] setup: %s" sc.Scenario.sc_name e)
    (Runner.setup_statements sc profile);
  Client.close setup;
  (* Setup DML autocommits through the publish path, so the workload's
     first commit lands at [base_version + 1]. *)
  let base_version = Server.version srv in
  let lock = Mutex.create () in
  let committed = ref [] (* (version, block index) *)
  and rolled_back = ref 0
  and conflicts = ref 0
  and trouble = ref [] in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let worker w =
    let c = Client.connect ~port () in
    Fun.protect ~finally:(fun () -> try Client.close c with _ -> ())
    @@ fun () ->
    let i = ref w in
    while !i < Array.length blocks do
      let bi = !i in
      let txn = "begin; " ^ oneline blocks.(bi) ^ "; commit" in
      let rec attempt n =
        if n > max_attempts then
          failf "[%s] txn %d: still conflicting after %d attempts"
            sc.Scenario.sc_name (bi + 1) max_attempts;
        match Client.request c txn with
        | Ok body -> (
          match commit_version body with
          | Some v -> locked (fun () -> committed := (v, bi) :: !committed)
          | None -> locked (fun () -> incr rolled_back))
        | Error e when contains e "serialization failure" ->
          locked (fun () -> incr conflicts);
          ignore (Client.request c "rollback");
          Thread.yield ();
          attempt (n + 1)
        | Error e ->
          ignore (Client.request c "rollback");
          failf "[%s] txn %d: genuine error from generated workload: %s"
            sc.Scenario.sc_name (bi + 1) e
      in
      attempt 1;
      i := !i + clients
    done
  in
  let threads =
    List.init clients (fun w ->
        Thread.create
          (fun w ->
            try worker w
            with e -> locked (fun () -> trouble := e :: !trouble))
          w)
  in
  List.iter Thread.join threads;
  (match !trouble with e :: _ -> raise e | [] -> ());
  (* Serial replay in publish order: the differential oracle. *)
  let order =
    List.sort (fun (a, _) (b, _) -> compare a b) !committed
  in
  (match order with
  | (v, _) :: _ when v <> base_version + 1 ->
    failf "[%s] first workload commit at version %d, expected %d"
      sc.Scenario.sc_name v (base_version + 1)
  | _ -> ());
  List.iteri
    (fun k (v, _) ->
      if v <> base_version + 1 + k then
        failf "[%s] commit versions are not dense at %d" sc.Scenario.sc_name v)
    order;
  let replay = Runner.build ~config sc profile in
  List.iter
    (fun (v, bi) ->
      match Runner.run_block replay blocks.(bi) with
      | Runner.Done (Engine.Committed, _) -> ()
      | Runner.Done (Engine.Rolled_back, _) ->
        failf "[%s] replay of version %d rolled back but the server \
               committed it"
          sc.Scenario.sc_name v
      | Runner.Failed e ->
        failf "[%s] replay of version %d errored: %s" sc.Scenario.sc_name v e)
    order;
  if Runner.state_digest sc replay
     <> Runner.state_digest sc (Server.system srv)
  then
    failf "[%s] concurrent execution diverged from serial replay in commit \
           order"
      sc.Scenario.sc_name;
  Runner.check_invariants sc ~context:"server final" (Server.system srv);
  let st = Server.stats srv in
  if st.Server.sv_conflicts <> !conflicts then
    failf "[%s] server counted %d conflicts, clients saw %d"
      sc.Scenario.sc_name st.Server.sv_conflicts !conflicts;
  {
    sd_scenario = sc.Scenario.sc_name;
    sd_clients = clients;
    sd_txns = Array.length blocks;
    sd_committed = List.length order;
    sd_rolled_back = !rolled_back;
    sd_conflicts = !conflicts;
    sd_checks = List.length sc.Scenario.sc_invariants + 1;
  }
