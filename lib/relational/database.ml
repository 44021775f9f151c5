(* A database state: a catalog of tables.  States are persistent
   values; the engine keeps the current state in a reference and passes
   old states around freely (pre-transition states, transition tables,
   rollback), exactly as the paper's semantics requires. *)

module Str_map = Map.Make (String)

type t = { tables : Table.t Str_map.t }

let empty = { tables = Str_map.empty }

let create_table db schema =
  let name = schema.Schema.table_name in
  if Str_map.mem name db.tables then
    Errors.raise_error (Errors.Duplicate_table name);
  { tables = Str_map.add name (Table.create schema) db.tables }

let drop_table db name =
  if not (Str_map.mem name db.tables) then
    Errors.raise_error (Errors.Unknown_table name);
  { tables = Str_map.remove name db.tables }

let has_table db name = Str_map.mem name db.tables

let table db name =
  match Str_map.find_opt name db.tables with
  | Some t -> t
  | None -> Errors.raise_error (Errors.Unknown_table name)

let schema db name = Table.schema (table db name)
let table_names db = List.map fst (Str_map.bindings db.tables)

let replace_table db tbl =
  { tables = Str_map.add (Table.name tbl) tbl db.tables }

(* Primitive mutations.  Each returns the new state; validation/
   coercion against the schema happens here so no layer can store an
   ill-typed row. *)

let insert db name row =
  let tbl = table db name in
  let row = Schema.coerce_row (Table.schema tbl) row in
  let handle = Handle.fresh name in
  (replace_table db (Table.insert tbl handle row), handle)

let delete db handle =
  let tbl = table db (Handle.table handle) in
  replace_table db (Table.delete tbl handle)

let update db handle row =
  let tbl = table db (Handle.table handle) in
  let row = Schema.coerce_row (Table.schema tbl) row in
  replace_table db (Table.update tbl handle row)

(* Look a tuple up in a given state; used both for current values and
   for values in pre-transition states. *)
let find_row db handle =
  match Str_map.find_opt (Handle.table handle) db.tables with
  | None -> None
  | Some tbl -> Table.find tbl handle

let get_row db handle =
  match find_row db handle with
  | Some row -> row
  | None ->
    Errors.semantic "tuple %s not found in this database state"
      (Fmt.str "%a" Handle.pp handle)

(* {2 Secondary indexes}

   Index names are unique across the whole database (like SQL index
   namespaces), so DROP INDEX needs only the name. *)

let find_index_owner db ix_name =
  Str_map.fold
    (fun _ tbl found ->
      match found with
      | Some _ -> found
      | None -> if Table.has_index tbl ix_name then Some tbl else None)
    db.tables None

let create_index db ~ix_name ~table:tbl_name ~column ~kind =
  (match find_index_owner db ix_name with
  | Some owner ->
    Errors.semantic "index %S already exists (on table %S)" ix_name
      (Table.name owner)
  | None -> ());
  let tbl = table db tbl_name in
  replace_table db (Table.create_index tbl ~ix_name ~column ~kind)

let drop_index db ix_name =
  match find_index_owner db ix_name with
  | None -> Errors.semantic "unknown index %S" ix_name
  | Some tbl -> replace_table db (Table.drop_index tbl ix_name)

let total_rows db =
  Str_map.fold (fun _ tbl acc -> acc + Table.cardinality tbl) db.tables 0

let pp ppf db =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (_, tbl) -> Table.pp ppf tbl))
    (Str_map.bindings db.tables)
