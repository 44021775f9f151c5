(* The three benchmark workloads: which registered scenario each
   drives, with which profile, and how its transaction stream is
   framed as request text.  Everything here is a pure function of the
   seed, so every cycle of a run — and every run with the same seed —
   sees the same set-up statements and the same streams. *)

open Core
module Profile = Workload.Profile
module Runner = Workload.Runner
module Scenario = Workload.Scenario

type kind =
  | In_process  (** [System.exec] in the benchmark process *)
  | Wire  (** the sopr-server binary, one loopback connection *)

type t = {
  name : string;
  scenario : string;
  kind : kind;
  keys : int;
  theta : float;  (** Zipfian skew of key choice *)
  read_frac : float;
  preload : int -> string list;
      (** bulk-load statements appended to the scenario set-up, from
          the seed *)
  txns : int;  (** transactions per stream *)
}

(* audit-trail seeds ids 0..7 itself; the bulk load takes every even id
   from 8 up to the top of the key space, with seeded balances, so the
   table starts half full.  The stream inserts, updates and deletes
   accounts in the ratio 3:4:3 over uniform keys, and an insert of a
   live id rolls back, so half full is also where the table stays: every
   seed sees the same table size throughout.  One multi-row insert: the
   audit rules fire once over the whole set, so the audit invariants
   keep holding. *)
let acct_preload ~keys seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let rows =
    List.init ((keys - 8) / 2) (fun k ->
        Printf.sprintf "(%d, %d, 0)" (8 + (2 * k)) (Random.State.int st 200))
  in
  [ "insert into acct values " ^ String.concat ", " rows ]

let all =
  [
    {
      name = "rules-rollup";
      scenario = Workload.Scenarios.order_rollup;
      kind = In_process;
      keys = 64;
      theta = Profile.default.Profile.theta;
      read_frac = 0.25;
      preload = (fun _ -> []);
      txns = 2000;
    };
    {
      name = "rules-keyed";
      scenario = Workload.Scenarios.audit_trail;
      kind = In_process;
      keys = 512;
      theta = 0.;
      read_frac = 0.5;
      preload = acct_preload ~keys:512;
      txns = 1000;
    };
    {
      name = "wire-oltp";
      scenario = Workload.Scenarios.tenant_quota;
      kind = Wire;
      keys = 64;
      theta = Profile.default.Profile.theta;
      read_frac = 0.75;
      preload = (fun _ -> []);
      txns = 4000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names () = List.map (fun w -> w.name) all

let scenario w =
  Workload.Scenarios.register_all ();
  Scenario.get w.scenario

let profile w ~seed ~txns =
  {
    Profile.default with
    seed;
    txns;
    keys = w.keys;
    theta = w.theta;
    read_frac = w.read_frac;
  }

let setup_statements w sc profile =
  Runner.setup_statements sc profile @ w.preload profile.Profile.seed

let is_read_only block =
  List.for_all
    (fun op ->
      let op = String.trim op in
      String.length op >= 6 && String.sub op 0 6 = "select")
    (String.split_on_char ';' block)

(* In process every block is one explicit transaction, so execution
   enters the statement cache.  Over the wire, read-only blocks go
   bare and take the server's snapshot path. *)
let request_text w block =
  match w.kind with
  | Wire when is_read_only block -> block
  | _ -> "begin; " ^ block ^ "; commit"

(* Names of the rules the set-up statements create explicitly; every
   other rule in [Engine.rule_report] was compiled from DDL
   constraints. *)
let declared_rules setup =
  List.concat_map
    (fun stmt ->
      List.filter_map
        (function
          | Ast.Stmt_create_rule def -> Some def.Ast.rule_name | _ -> None)
        (Parser.parse_script stmt))
    setup

(* Canonical rendering of the observable tables as [System] prints
   them — the form both the in-process reference and the server's wire
   replies take — with data rows sorted. *)
let normalize_rendering text =
  match String.split_on_char '\n' text with
  | header :: sep :: rest -> (
    match List.rev rest with
    | footer :: rows_rev ->
      String.concat "\n"
        ((header :: sep :: List.sort compare rows_rev) @ [ footer ])
    | [] -> text)
  | _ -> text

let table_dump sc (select_all : string -> string) =
  String.concat "\n--\n"
    (List.map
       (fun tbl -> tbl ^ "\n" ^ normalize_rendering (select_all tbl))
       sc.Scenario.sc_tables)
