(* A secondary index: an access path from the values of one column to
   the set of handles of rows holding that value.  Indexes come in two
   kinds: [`Hash] supports equality probes only; [`Ordered] also
   supports range probes.  (Both kinds share the balanced-tree
   representation — the kind records the capability the index was
   declared with, which is what the planner consults.)

   The index is a persistent map, so it lives inside the (persistent)
   table value it indexes: snapshotting a table — and hence a database
   state — snapshots its indexes for free, which is what keeps index
   probes consistent against the pre-transition states the rule engine
   retains for transition tables and rollback.

   NULL is never indexed: SQL equality against NULL is never TRUE, so a
   probe for NULL correctly finds nothing, and rows whose indexed
   column is NULL are reachable only by scan (where the predicate
   evaluates to UNKNOWN and excludes them anyway).  The same holds for
   ranges: a comparison against NULL is UNKNOWN, so a range probe with
   a NULL bound finds nothing.

   Keys are compared with [Value.compare_total], whose behaviour on the
   comparable kinds (numeric cross-kind ordering, byte-wise strings,
   FALSE < TRUE) agrees with SQL comparison on the values a probe is
   allowed to use (see [compatible]). *)

module Value_map = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

type kind = [ `Hash | `Ordered ]

type t = {
  ix_name : string;
  ix_column : string;
  ix_pos : int; (* position of the column in the table schema *)
  ix_kind : kind;
  ix_distinct : int; (* distinct non-null keys, kept incrementally *)
  entries : Handle.Set.t Value_map.t;
}

let create ~name ~column ~pos ~kind =
  {
    ix_name = name;
    ix_column = column;
    ix_pos = pos;
    ix_kind = kind;
    ix_distinct = 0;
    entries = Value_map.empty;
  }

let name t = t.ix_name
let column t = t.ix_column
let pos t = t.ix_pos
let kind t = t.ix_kind
let kind_name = function `Hash -> "hash" | `Ordered -> "ordered"

let add t v h =
  if Value.is_null v then t
  else
    match Value_map.find_opt v t.entries with
    | Some set ->
      { t with entries = Value_map.add v (Handle.Set.add h set) t.entries }
    | None ->
      {
        t with
        entries = Value_map.add v (Handle.Set.singleton h) t.entries;
        ix_distinct = t.ix_distinct + 1;
      }

let remove t v h =
  if Value.is_null v then t
  else
    match Value_map.find_opt v t.entries with
    | None -> t
    | Some set ->
      let set = Handle.Set.remove h set in
      if Handle.Set.is_empty set then
        {
          t with
          entries = Value_map.remove v t.entries;
          ix_distinct = t.ix_distinct - 1;
        }
      else { t with entries = Value_map.add v set t.entries }

(* A range bound: the key value and whether the bound is inclusive. *)
type bound = Value.t * bool

type keys = [ `Keys of Value.t list | `Range of bound option * bound option ]

exception Over_budget
exception Past_upper

(* The handles [keys] select, newest first, or [None] once the gather
   has spent more than [budget]: each handle held costs one, and each
   key looked up at least one, so a key list longer than the budget is
   refused before any lookup and an unselective read costs about
   [budget] steps before the caller scans instead.  One key's handles
   come out of its set in order; several keys' and a range's are sorted
   once.  A range walk starts at the lower bound ([Value_map.split])
   and iterates the map in place up to the upper one. *)
let gather t (keys : keys) ~budget =
  let spent = ref 0 and hits = ref [] in
  let spend () =
    incr spent;
    if !spent > budget then raise_notrace Over_budget
  in
  let hold h =
    spend ();
    hits := h :: !hits
  in
  let look v =
    match if Value.is_null v then None else Value_map.find_opt v t.entries with
    | Some set -> Handle.Set.iter hold set
    | None -> spend ()
  in
  let walk lower upper =
    let below_upper k =
      match upper with
      | None -> true
      | Some (uv, incl) ->
        let c = Value.compare_total k uv in
        if incl then c <= 0 else c < 0
    in
    let gather_key k set =
      if not (below_upper k) then raise_notrace Past_upper;
      Handle.Set.iter hold set
    in
    match lower with
    | None -> Value_map.iter gather_key t.entries
    | Some (lv, incl) ->
      let _, at, above = Value_map.split lv t.entries in
      (match at with Some set when incl -> gather_key lv set | Some _ | None -> ());
      Value_map.iter gather_key above
  in
  let null_bound = function Some (v, _) -> Value.is_null v | None -> false in
  match
    match keys with
    | `Keys vs ->
      if List.compare_length_with vs budget > 0 then raise_notrace Over_budget;
      List.iter look vs
    | `Range (lower, upper) ->
      (* a comparison against NULL is UNKNOWN for every row, so the
         range selects nothing — mirroring the scan path faithfully *)
      if not (null_bound lower || null_bound upper) then walk lower upper
  with
  | () | (exception Past_upper) -> (
    match keys with
    | `Keys [ _ ] -> Some !hits
    | `Keys _ | `Range _ -> Some (List.sort_uniq (fun a b -> Handle.compare b a) !hits))
  | exception Over_budget -> None

(* The literal prefix of a LIKE pattern (the characters before the
   first wildcard), and the smallest string greater than every string
   with that prefix — together a half-open key range covering every
   possible match.  The range is a superset of the matches; the caller
   re-applies the full predicate.  [None] upper means unbounded (the
   prefix is all 0xff bytes). *)
let like_prefix pattern =
  let n = String.length pattern in
  let rec prefix_len i =
    if i >= n then i
    else match pattern.[i] with '%' | '_' -> i | _ -> prefix_len (i + 1)
  in
  let len = prefix_len 0 in
  if len = 0 then None
  else
    let prefix = String.sub pattern 0 len in
    let rec succ_of i =
      if i < 0 then None
      else if prefix.[i] = '\xff' then succ_of (i - 1)
      else
        Some (String.sub prefix 0 i ^ String.make 1 (Char.chr (Char.code prefix.[i] + 1)))
    in
    Some (prefix, succ_of (len - 1))

let cardinality t = t.ix_distinct

let equal a b =
  String.equal a.ix_name b.ix_name
  && a.ix_pos = b.ix_pos
  && a.ix_kind = b.ix_kind
  && a.ix_distinct = b.ix_distinct
  && Value_map.equal Handle.Set.equal a.entries b.entries

(* May [v] be used as a probe key against a column of type [ty]?
   Comparable kinds only: probing silently returns the empty set for
   absent keys, so a value that would make the scan path raise a type
   error (e.g. a string against an int column) must NOT be probed — the
   caller falls back to the scan, which reports the error faithfully.
   NULL is always an acceptable key (it finds nothing, as SQL
   requires). *)
let compatible ty v =
  match v, ty with
  | Value.Null, _ -> true
  | (Value.Int _ | Value.Float _), (Schema.T_int | Schema.T_float) -> true
  | Value.Str _, Schema.T_string -> true
  | Value.Bool _, Schema.T_bool -> true
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _), _ -> false

let pp ppf t =
  Fmt.pf ppf "%s index %s on (%s) [%d keys]" (kind_name t.ix_kind) t.ix_name
    t.ix_column (cardinality t)
