(* sopr_bench — the repository benchmark's measuring program.

   Usage:
     sopr_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    --server PATH --work-dir DIR [--txns N] [--min-rounds K]

   A run replays fixed, seeded transaction streams (closed loop, one
   caller), each from a fresh set-up, cycle after cycle until
   [--seconds] have passed and at least [--min-rounds] measured cycles
   ran, after one warm-up cycle.  Every cycle does identical work, so a
   transaction's cost is its best time over the cycles and exact counts
   repeat.  With [--trace 0] it prints the end-to-end metrics; with
   [--trace 1] it runs untimed and traced passes side by side and prints
   the per-layer metrics.  Every pass is checked against an in-process
   [Runner.run_block] replay of the same stream: per-transaction
   outcomes, final state and the scenario invariants.  The last line of
   standard output is one JSON object. *)

open Core
module Runner = Workload.Runner

let now = Host.now

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  work_dir : string;
  txns : int option;
  min_rounds : int;
}

let usage () =
  prerr_endline
    "usage: sopr_bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --server PATH --work-dir DIR [--txns N] [--min-rounds K]";
  prerr_endline ("workloads: " ^ String.concat ", " (Spec.names ()));
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let req k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  {
    workload = req "workload";
    seed = int (req "seed");
    seconds = float_of_int (int (req "seconds"));
    trace = req "trace" = "1";
    server = req "server";
    work_dir = req "work-dir";
    txns = Option.map int (Hashtbl.find_opt tbl "txns");
    min_rounds =
      (match Hashtbl.find_opt tbl "min-rounds" with
      | Some v -> int v
      | None -> 3);
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let printed : (string * (float * string)) list ref = ref []

let metric name value unit =
  let value = if Float.is_finite value then value else 0. in
  printed := (name, (value, unit)) :: !printed;
  Printf.printf "metric %-34s %.12g %s\n" name value unit

let json_result ~correct ~attempted ~failed names =
  let fields =
    List.map
      (fun name ->
        let value, unit = List.assoc name !printed in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      names
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let end_to_end = [ "txn_per_s"; "p50_us"; "p99_us"; "setup_s"; "max_rss_mb" ]

let per_layer =
  [
    "parser.us_per_txn";
    "parser.ns_per_byte";
    "parser.kw_per_txn";
    "stmt_cache.hit_ratio";
    "stmt_cache.hit_us_per_txn";
    "compile.miss_us_per_txn";
    "compile.kw_per_txn";
    "execute.us_per_txn";
    "execute.kw_per_txn";
    "execute.seq_scans_per_txn";
    "execute.index_probes_per_txn";
    "execute.range_probes_per_txn";
    "execute.hash_join_probes_per_txn";
    "rules.us_per_txn";
    "rules.cond_us_per_txn";
    "rules.action_us_per_txn";
    "rules.firings_per_txn";
    "rules.conditions_per_txn";
    "rules.candidates_per_txn";
    "rules.kw_per_txn";
    "constraints.cond_us_per_txn";
    "constraints.share";
    "session.us_per_txn";
    "session.commit_us_per_txn";
    "server.requests_per_txn";
    "wire.us_per_txn";
    "trace.overhead_frac";
    "trace.coverage";
    "alloc_kw_per_txn";
    "wal_bytes_per_txn";
  ]

(* ------------------------------------------------------------------ *)
(* Reference replay and output checks                                  *)

type reference = {
  ref_outcomes : Bytes.t;
  ref_state : Passes.digest;
  ref_dump : Passes.digest;
  ref_problems : string list;
}

(* The same stream through [Runner.run_block] on a fresh in-process
   system — [System.exec_block], which runs the interpreted operation
   path, not the statement cache the measured passes use. *)
let reference (ctx : Passes.ctx) =
  let sys = Passes.build ctx in
  let n = Array.length ctx.blocks in
  let outcomes = Bytes.make n 'F' in
  let problems = ref [] in
  Array.iteri
    (fun i block ->
      match Runner.run_block sys block with
      | Runner.Done (o, _) -> Bytes.set outcomes i (Passes.outcome_char o)
      | Runner.Failed e ->
        problems := Printf.sprintf "reference txn %d: %s" (i + 1) e :: !problems)
    ctx.blocks;
  ignore (Passes.check_invariants ctx sys problems);
  {
    ref_outcomes = outcomes;
    ref_state = Passes.State (Digest.string (Runner.state_digest ctx.sc sys));
    ref_dump =
      Passes.Dump
        (Digest.string
           (Spec.table_dump ctx.sc (fun tbl ->
                System.render_result (System.exec_one sys ("select * from " ^ tbl)))));
    ref_problems = List.rev !problems;
  }

(* Transactions of [p] counted as failed: an engine error or [err]
   reply, an outcome differing from the reference's, or — when the
   final state or the invariants are wrong — the whole pass. *)
let pass_failures r (p : Passes.t) =
  let n = Bytes.length p.outcomes in
  let expected =
    match p.digest with Passes.State _ -> r.ref_state | Passes.Dump _ -> r.ref_dump
  in
  if p.digest <> expected || not p.invariants_ok then n
  else begin
    let bad = ref 0 in
    Bytes.iteri
      (fun i c -> if c = 'F' || c <> Bytes.get r.ref_outcomes i then incr bad)
      p.outcomes;
    !bad
  end

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally = { attempted = 0; failed = 0; notes = [] }

let check r label (p : Passes.t) =
  let f = pass_failures r p in
  tally.attempted <- tally.attempted + Bytes.length p.outcomes;
  tally.failed <- tally.failed + f;
  if f > 0 then
    tally.notes <-
      Printf.sprintf "%s: %d failed%s" label f
        (match p.problems with [] -> "" | m :: _ -> " (" ^ m ^ ")")
      :: tally.notes

let count_outcomes b c =
  let k = ref 0 in
  Bytes.iter (fun x -> if x = c then incr k) b;
  !k

let print_checks refs =
  Array.iter
    (fun r ->
      Printf.printf "reference committed %d rolled_back %d failed %d\n"
        (count_outcomes r.ref_outcomes 'C')
        (count_outcomes r.ref_outcomes 'R')
        (count_outcomes r.ref_outcomes 'F');
      let hex = function Passes.State d | Passes.Dump d -> Digest.to_hex d in
      Printf.printf "digest state %s dump %s\n" (hex r.ref_state) (hex r.ref_dump);
      List.iter (fun m -> Printf.printf "problem %s\n" m) r.ref_problems)
    refs;
  List.iter (fun m -> Printf.printf "problem %s\n" m) (List.rev tally.notes)

let finish ~names refs =
  print_checks refs;
  let correct =
    tally.failed = 0
    && Array.for_all
         (fun r -> r.ref_problems = [] && count_outcomes r.ref_outcomes 'F' = 0)
         refs
  in
  let attempted = max 1 tally.attempted in
  Printf.printf "metric %-34s %.12g frac\n" "error_frac"
    (float_of_int tally.failed /. float_of_int attempted);
  json_result ~correct ~attempted ~failed:tally.failed names;
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

let self_hwm_kb () =
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
      | Some kb -> kb
      | None -> acc)
    0
    (String.split_on_char '\n' (Passes.read_file "/proc/self/status"))

(* One warm-up cycle, then measured cycles until the deadline has
   passed and [min] of them ran; cycle k runs on the k-th CPU
   (cyclically). *)
let cycles ~seconds ~min run =
  Host.pin 0;
  let warm = run 0 in
  let deadline = now () +. seconds in
  let rec loop k acc =
    if (k > min && now () >= deadline) || k > 1000 then (warm, List.rev acc)
    else begin
      Host.pin k;
      loop (k + 1) (run k :: acc)
    end
  in
  loop 1 []

let per_txn n x = x /. float_of_int n
let us n s = per_txn n s *. 1e6
let kw n w = per_txn n w /. 1e3
let ratio a b = if b = 0. then 0. else a /. b

(* A cycle replays each of the run's streams once.  Several streams per
   run average out what one seed's stream happens to contain; the
   same-seed spread is far below the spread across seeds. *)
let end_to_end_run a (ctxs : Passes.ctx array) =
  let kind = ctxs.(0).spec.Spec.kind in
  let n = Array.fold_left (fun acc c -> acc + Array.length c.Passes.texts) 0 ctxs in
  (* In process, the peak is read once the warm-up and the first
     measured cycle have run: a fixed amount of work, however many
     cycles the deadline then allows. *)
  let self_kb = ref 0 in
  let run k =
    let passes =
      Array.map
        (fun ctx ->
          Gc.full_major ();
          match kind with
          | Spec.In_process -> Passes.inproc ctx
          | Spec.Wire -> Passes.wire ctx)
        ctxs
    in
    if k = 1 && kind = Spec.In_process then self_kb := self_hwm_kb ();
    passes
  in
  let warm, measured = cycles ~seconds:a.seconds ~min:a.min_rounds run in
  (* peak memory first; every output check runs after it *)
  let all_passes = List.concat_map Array.to_list measured in
  let rss_kb =
    match kind with
    | Spec.In_process -> float_of_int !self_kb
    | Spec.Wire ->
      Stat.median_list (List.map (fun p -> float_of_int p.Passes.rss_kb) all_passes)
  in
  let first = List.hd measured in
  let sum_first f = Array.fold_left (fun acc p -> acc +. f p) 0. first in
  (* Host slowdowns only ever add time, so each transaction's cost is
     its best time over the cycles; the streams' busy time is the sum
     of those. *)
  let lat =
    Array.concat
      (List.init (Array.length ctxs) (fun j ->
           Stat.column_mins (List.map (fun c -> c.(j).Passes.lat) measured)))
  in
  Printf.printf "streams %d cycles %d samples %d (per-transaction best of cycles)\n"
    (Array.length ctxs) (List.length measured) n;
  metric "txn_per_s" (float_of_int n /. Array.fold_left ( +. ) 0. lat) "1/s";
  metric "p50_us" (Stat.band_quantile lat ~p:0.50 ~half:0.05 *. 1e6) "us";
  metric "p99_us" (Stat.band_quantile lat ~p:0.99 ~half:0.005 *. 1e6) "us";
  metric "setup_s"
    (Stat.median_list (List.concat_map (fun p -> p.Passes.setup_s) all_passes))
    "s";
  metric "max_rss_mb" (rss_kb /. 1024.) "MB";
  (match kind with
  | Spec.In_process -> metric "alloc_kw_per_txn" (kw n (sum_first (fun p -> p.alloc_w))) "kw"
  | Spec.Wire ->
    metric "wal_bytes_per_txn" (per_txn n (sum_first (fun p -> float_of_int p.wal_bytes))) "B";
    metric "server.requests_per_txn"
      (per_txn n (sum_first (fun p -> float_of_int p.requests)))
      "count");
  Array.iter
    (fun p ->
      Printf.printf "counters %s\n"
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p.Passes.counters)))
    first;
  let refs = Array.map reference ctxs in
  List.iteri
    (fun i cycle ->
      Array.iteri
        (fun j p -> check refs.(j) (Printf.sprintf "stream %d cycle %d" j i) p)
        cycle)
    (warm :: measured);
  finish ~names:end_to_end refs

let layer (p : Passes.t) k = Option.value (List.assoc_opt k p.layers) ~default:0.

let traced_run a (ctx : Passes.ctx) =
  let n = Array.length ctx.texts in
  let kinds =
    match ctx.spec.Spec.kind with
    | Spec.In_process ->
      [ ("untimed", fun _ -> Passes.inproc ctx); ("traced", fun _ -> Passes.inproc_traced ctx) ]
    | Spec.Wire ->
      [
        ("wire", fun _ -> Passes.wire ctx);
        ("embedded", fun _ -> Passes.embedded ctx ~traced:false);
        ("embedded-traced", fun _ -> Passes.embedded ctx ~traced:true);
        ("untimed", fun _ -> Passes.inproc ctx);
        ("traced", fun _ -> Passes.inproc_traced ctx);
      ]
  in
  let run k =
    List.map
      (fun (name, f) ->
        Gc.full_major ();
        (name, f k))
      kinds
  in
  let warm, measured = cycles ~seconds:a.seconds ~min:1 run in
  let passes name = List.map (List.assoc name) measured in
  let first name = List.hd (passes name) in
  let med name f = Stat.median_list (List.map f (passes name)) in
  let best name f = Stat.min_list (List.map f (passes name)) in
  let lay name k = best name (fun p -> layer p k) in
  let lay1 name k = layer (first name) k in
  let front = match ctx.spec.kind with Spec.Wire -> "embedded-traced" | _ -> "traced" in
  Printf.printf "cycles %d samples %d\n" (List.length measured) n;
  metric "parser.us_per_txn" (us n (lay front "parse_s")) "us";
  metric "parser.ns_per_byte" (ratio (lay front "parse_s") (lay1 front "parse_bytes") *. 1e9) "ns/B";
  metric "parser.kw_per_txn" (kw n (lay1 front "parse_w")) "kw";
  metric "stmt_cache.hit_ratio"
    (ratio (lay1 "traced" "hit_n") (lay1 "traced" "hit_n" +. lay1 "traced" "miss_n"))
    "frac";
  metric "stmt_cache.hit_us_per_txn" (us n (lay "traced" "hit_s")) "us";
  metric "compile.miss_us_per_txn" (us n (lay "traced" "miss_s")) "us";
  metric "compile.kw_per_txn" (kw n (lay1 "traced" "miss_w")) "kw";
  metric "execute.us_per_txn" (us n (lay "traced" "execute_s")) "us";
  metric "execute.kw_per_txn" (kw n (lay1 "traced" "execute_w")) "kw";
  let count name k = metric name (per_txn n (lay1 "traced" k)) "count" in
  count "execute.seq_scans_per_txn" "seq_scans";
  count "execute.index_probes_per_txn" "index_probes";
  count "execute.range_probes_per_txn" "range_probes";
  count "execute.hash_join_probes_per_txn" "hash_join_probes";
  metric "rules.us_per_txn" (us n (lay "traced" "commit_s")) "us";
  metric "rules.cond_us_per_txn" (us n (lay "traced" "cond_s")) "us";
  metric "rules.action_us_per_txn" (us n (lay "traced" "action_s")) "us";
  count "rules.firings_per_txn" "firings";
  count "rules.conditions_per_txn" "conditions";
  count "rules.candidates_per_txn" "candidates";
  metric "rules.kw_per_txn" (kw n (lay1 "traced" "commit_w")) "kw";
  metric "constraints.cond_us_per_txn" (us n (lay "traced" "constraint_cond_s")) "us";
  metric "constraints.share"
    (med "traced" (fun p -> ratio (layer p "constraint_cond_s") (layer p "total_s")))
    "frac";
  let in_process_coverage p =
    ratio
      (List.fold_left
         (fun acc k -> acc +. layer p (k ^ "_s"))
         0.
         [ "parse"; "hit"; "miss"; "execute"; "commit"; "other" ])
      (layer p "total_s")
  in
  (match ctx.spec.kind with
  | Spec.In_process ->
    metric "session.us_per_txn" 0. "us";
    metric "session.commit_us_per_txn" 0. "us";
    metric "server.requests_per_txn" 0. "count";
    metric "wire.us_per_txn" 0. "us";
    metric "trace.overhead_frac"
      (ratio (best "traced" (fun p -> p.elapsed)) (best "untimed" (fun p -> p.elapsed)) -. 1.)
      "frac";
    metric "trace.coverage" (med "traced" in_process_coverage) "frac";
    metric "alloc_kw_per_txn" (kw n (first "untimed").alloc_w) "kw";
    metric "wal_bytes_per_txn" 0. "B"
  | Spec.Wire ->
    let session = lay "embedded-traced" "session_s" +. lay "embedded-traced" "session_commit_s" in
    let rtt = best "wire" (fun p -> p.elapsed) in
    (* the wire layer: the client's round trip minus the server-side
       request time measured on embedded sessions *)
    let wire = rtt -. best "embedded" (fun p -> p.elapsed) in
    metric "session.us_per_txn" (us n session) "us";
    metric "session.commit_us_per_txn" (us n (lay "embedded-traced" "session_commit_s")) "us";
    metric "server.requests_per_txn" (per_txn n (float_of_int (first "wire").requests)) "count";
    metric "wire.us_per_txn" (us n wire) "us";
    metric "trace.overhead_frac"
      (ratio (best "embedded-traced" (fun p -> p.elapsed)) (best "embedded" (fun p -> p.elapsed))
      -. 1.)
      "frac";
    metric "trace.coverage" (ratio (lay "embedded-traced" "parse_s" +. session +. wire) rtt) "frac";
    metric "alloc_kw_per_txn" (kw n (first "embedded").alloc_w) "kw";
    metric "wal_bytes_per_txn" (per_txn n (float_of_int (first "wire").wal_bytes)) "B");
  (* the traced decomposition must do exactly the untimed pass's work *)
  let same_counters =
    List.for_all
      (fun cycle ->
        let c name = (List.assoc name cycle).Passes.counters in
        c "untimed" = c "traced"
        && (ctx.spec.kind = Spec.In_process || c "embedded" = c "embedded-traced"))
      (warm :: measured)
  in
  Printf.printf "check engine_counters %s\n" (if same_counters then "ok" else "MISMATCH");
  Printf.printf "counters %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (first "untimed").counters));
  let r = reference ctx in
  List.iteri
    (fun i cycle ->
      List.iter (fun (name, p) -> check r (Printf.sprintf "%s %d" name i) p) cycle)
    (warm :: measured);
  if not same_counters then begin
    tally.failed <- tally.failed + 1;
    tally.notes <- "traced pass counters differ from the untimed pass" :: tally.notes
  end;
  finish ~names:per_layer [| r |]

(* The run's streams: stream 0 is seeded by --seed itself, the others
   by seeds derived from it. *)
let streams = 4

let () =
  let a = parse_args () in
  let spec = match Spec.find a.workload with Some w -> w | None -> usage () in
  let sc = Spec.scenario spec in
  let txns = Option.value a.txns ~default:spec.Spec.txns in
  let ctx_of seed =
    let profile = Spec.profile spec ~seed ~txns in
    let setup = Spec.setup_statements spec sc profile in
    let blocks = Array.of_list (Runner.gen_blocks sc profile) in
    {
      Passes.spec;
      sc;
      setup;
      blocks;
      texts = Array.map (Spec.request_text spec) blocks;
      declared = Spec.declared_rules setup;
      server_exe = a.server;
      work_dir = a.work_dir;
    }
  in
  let seeds =
    List.init (if a.trace then 1 else streams) (fun j ->
        if j = 0 then a.seed else Hashtbl.hash (a.seed, j))
  in
  (try Unix.mkdir a.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "workload %s scenario %s mode %s seeds %s txns/stream %d keys %d \
                 read_frac %g\n%!"
    spec.name spec.scenario
    (match spec.kind with Spec.In_process -> "in-process" | Spec.Wire -> "wire-nosync")
    (String.concat "," (List.map string_of_int seeds))
    txns spec.keys spec.read_frac;
  let ctxs = Array.of_list (List.map ctx_of seeds) in
  if a.trace then traced_run a ctxs.(0) else end_to_end_run a ctxs
