(* A stored table: a schema plus a multiset of rows keyed by tuple
   handle.  Duplicate rows may appear (each under its own handle).  The
   representation is persistent, so snapshotting a table (and hence a
   whole database state) is O(1) — this is what makes the paper's
   pre-transition states and rollback cheap to support faithfully.

   Secondary indexes live inside the table value, so a snapshot carries
   its indexes with it: probing a retained pre-transition state sees
   exactly the rows of that state, with no separate versioning.

   The row count is kept incrementally (as are the per-index distinct
   key counts, inside each index), so table statistics for the
   cost-based planner are exact and O(indexes) to read at any
   snapshot. *)

module Int_map = Map.Make (Int)
module Str_map = Map.Make (String)

type t = {
  schema : Schema.table;
  col_names : string array;
      (* the schema's column names, extracted once at creation; resolvers
         bind every row of a scan under this array, so rebuilding it per
         resolution would allocate O(columns) per access *)
  nrows : int; (* row count, kept incrementally *)
  rows : (Handle.t * Row.t) Int_map.t;
  indexes : Index.t Str_map.t; (* keyed by index name *)
}

let create schema =
  {
    schema;
    col_names = Array.map (fun c -> c.Schema.col_name) schema.Schema.columns;
    nrows = 0;
    rows = Int_map.empty;
    indexes = Str_map.empty;
  }

let schema t = t.schema
let col_names t = t.col_names
let name t = t.schema.Schema.table_name
let cardinality t = t.nrows
let is_empty t = t.nrows = 0

(* Index maintenance: every row mutation keeps every index in sync. *)
let index_add t handle row =
  Str_map.map (fun ix -> Index.add ix row.(Index.pos ix) handle) t.indexes

let index_remove t handle row =
  Str_map.map (fun ix -> Index.remove ix row.(Index.pos ix) handle) t.indexes

(* Insert a row under a fresh handle created by the caller.  The row
   must already be validated/coerced against the schema. *)
let insert t handle row =
  assert (String.equal (Handle.table handle) (name t));
  assert (not (Int_map.mem (Handle.id handle) t.rows));
  {
    t with
    nrows = t.nrows + 1;
    rows = Int_map.add (Handle.id handle) (handle, row) t.rows;
    indexes = index_add t handle row;
  }

let mem t handle = Int_map.mem (Handle.id handle) t.rows

let find t handle =
  Option.map snd (Int_map.find_opt (Handle.id handle) t.rows)

let get t handle =
  match find t handle with
  | Some row -> row
  | None ->
    Errors.semantic "tuple %s not present in table %S" (Fmt.str "%a" Handle.pp handle)
      (name t)

let delete t handle =
  match Int_map.find_opt (Handle.id handle) t.rows with
  | None -> t
  | Some (_, old_row) ->
    {
      t with
      nrows = t.nrows - 1;
      rows = Int_map.remove (Handle.id handle) t.rows;
      indexes = index_remove t handle old_row;
    }

(* An index whose column holds the physically same value in the old and
   the new row keeps its entry: an update of other columns re-indexes
   nothing there. *)
let update t handle row =
  match Int_map.find_opt (Handle.id handle) t.rows with
  | None -> assert false
  | Some (_, old_row) ->
    let reindex ix =
      let pos = Index.pos ix in
      if old_row.(pos) == row.(pos) then ix
      else Index.add (Index.remove ix old_row.(pos) handle) row.(pos) handle
    in
    {
      t with
      rows = Int_map.add (Handle.id handle) (handle, row) t.rows;
      indexes = Str_map.map reindex t.indexes;
    }

(* Enumeration is in handle order, i.e. insertion order, which keeps
   scans and query results deterministic. *)
let fold f t acc =
  Int_map.fold (fun _ (h, row) acc -> f h row acc) t.rows acc

let iter f t = Int_map.iter (fun _ (h, row) -> f h row) t.rows
let to_list t = List.rev (fold (fun h row acc -> (h, row) :: acc) t [])
let rows t = List.rev (fold (fun _ row acc -> row :: acc) t [])

(* {2 Index management} *)

let has_index t name = Str_map.mem name t.indexes
let index_list t = List.map snd (Str_map.bindings t.indexes)

let index_on_column t column =
  Str_map.fold
    (fun _ ix found ->
      match found with
      | Some _ -> found
      | None -> if String.equal (Index.column ix) column then Some ix else None)
    t.indexes None

let ordered_index_on_column t column =
  Str_map.fold
    (fun _ ix found ->
      match found with
      | Some _ -> found
      | None ->
        if String.equal (Index.column ix) column && Index.kind ix = `Ordered
        then Some ix
        else None)
    t.indexes None

let create_index t ~ix_name ~column ~kind =
  if Str_map.mem ix_name t.indexes then
    Errors.semantic "index %S already exists" ix_name;
  let pos = Schema.column_index t.schema column in
  let ix = Index.create ~name:ix_name ~column ~pos ~kind in
  let ix = fold (fun h row ix -> Index.add ix row.(pos) h) t ix in
  { t with indexes = Str_map.add ix_name ix t.indexes }

let drop_index t ix_name =
  if not (Str_map.mem ix_name t.indexes) then
    Errors.semantic "unknown index %S" ix_name;
  { t with indexes = Str_map.remove ix_name t.indexes }

(* Gather the rows [keys] selects through an index over [column] — any
   index for keys, an ordered one for a range — giving up
   ([`Over_budget]) once the gather has spent more than [budget].
   [None] when no such index exists or a key or bound value is
   type-incompatible with the column (fall back to the scan, which
   reports type errors faithfully).  The rows come in handle
   (= insertion) order, so a probe is an order-preserving subsequence
   of the scan. *)
let probe t ~column ~budget (keys : Index.keys) =
  match
    match keys with
    | `Keys _ -> index_on_column t column
    | `Range _ -> ordered_index_on_column t column
  with
  | None -> None
  | Some ix ->
    let ty = t.schema.Schema.columns.(Index.pos ix).Schema.col_type in
    let bound_ok = function None -> true | Some (v, _) -> Index.compatible ty v in
    let usable =
      match keys with
      | `Keys vs -> List.for_all (Index.compatible ty) vs
      | `Range (lower, upper) -> bound_ok lower && bound_ok upper
    in
    if not usable then None
    else
      match Index.gather ix keys ~budget with
      | Some newest_first ->
        Some
          (`Rows
            (List.fold_left
               (fun acc h ->
                 match Int_map.find_opt (Handle.id h) t.rows with
                 | Some (_, row) -> (h, row) :: acc
                 | None -> acc)
               [] newest_first))
      | None -> Some `Over_budget

(* {2 Statistics} *)

(* Distinct-key count for an indexed column, plus whether an ordered
   index (range capability) covers it.  [None] for unindexed columns —
   the planner treats those as probe-ineligible. *)
let column_stats t column =
  match index_on_column t column with
  | None -> None
  | Some ix ->
    let ordered =
      Index.kind ix = `Ordered || ordered_index_on_column t column <> None
    in
    Some (Index.cardinality ix, ordered)

let pp ppf t =
  Fmt.pf ppf "@[<v 2>%a [%d rows]@,%a@]" Schema.pp t.schema (cardinality t)
    (Fmt.list ~sep:Fmt.cut (fun ppf (h, row) ->
         Fmt.pf ppf "%a %a" Handle.pp h Row.pp row))
    (to_list t)
