(* The higher-level integrity-constraint facility the paper points to
   in Section 6 (the [CW90] direction): users state declarative
   constraints; the system compiles them into set-oriented production
   rules that maintain them.

   Compilation styles:
   - NOT NULL, UNIQUE/PRIMARY KEY, CHECK and the restricting side of
     foreign keys compile to rollback rules ("abort" repair);
   - ON DELETE CASCADE / SET NULL compile to repairing rules — the
     cascade rule is exactly the paper's Example 3.1.

   Conditions read only the changed tuples wherever the violation
   must involve one: NOT NULL and CHECK test the transition tables
   alone, and UNIQUE groups only the rows sharing a key value with an
   inserted or key-updated tuple (see [compile_unique]). *)

module Ast = Sqlf.Ast

type t =
  | Not_null of { table : string; column : string }
  | Unique of { table : string; columns : string list; not_null : string list }
      (* [not_null]: the key columns the schema declares NOT NULL *)
  | Foreign_key of {
      child : string;
      child_column : string;
      parent : string;
      parent_column : string;
      on_delete : [ `Cascade | `Restrict | `Set_null ];
    }
  | Check of { table : string; predicate : Ast.expr }
  | Assertion of { assertion_name : string; predicate : Ast.expr }
      (* a cross-table invariant (SQL assertion style): the predicate
         must hold in every committed state; any change to a referenced
         table triggers the check *)

(* ---- small AST construction helpers ---- *)

let col ?table column = Ast.Col { qualifier = table; column }

let select ?(projections = [ Ast.Star ]) ?where from =
  {
    Ast.distinct = false;
    projections;
    from;
    where;
    group_by = [];
    having = None;
    compounds = [];
    order_by = [];
    limit = None;
  }

let from_base ?alias t = { Ast.source = Ast.Base t; alias }
let from_trans ?alias tt = { Ast.source = Ast.Transition tt; alias }
let exists s = Ast.Exists s

let rule name preds condition action =
  { Ast.rule_name = name; trans_preds = preds; condition; action }

let sanitize s =
  String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_') s

(* The rule name an assertion compiles to, derivable from the
   assertion name alone (dropping an assertion must find its rule
   without re-stating the predicate). *)
let assertion_rule_name assertion_name =
  Printf.sprintf "assert_%s" (sanitize assertion_name)

let name_of = function
  | Not_null { table; column } ->
    Printf.sprintf "nn_%s_%s" (sanitize table) (sanitize column)
  | Unique { table; columns; _ } ->
    Printf.sprintf "uq_%s_%s" (sanitize table)
      (String.concat "_" (List.map sanitize columns))
  | Foreign_key { child; child_column; parent; _ } ->
    Printf.sprintf "fk_%s_%s_%s" (sanitize child) (sanitize child_column)
      (sanitize parent)
  | Check { table; _ } -> Printf.sprintf "ck_%s" (sanitize table)
  | Assertion { assertion_name; _ } -> assertion_rule_name assertion_name

(* ---- compilation ---- *)

let compile_not_null ~name table column =
  (* Violations can only come from inserted or updated tuples, so the
     condition tests transition tables only. *)
  let inserted_bad =
    exists
      (select [ from_trans (Ast.Tt_inserted table) ]
         ~where:(Ast.Is_null (col column)))
  in
  let updated_bad =
    exists
      (select [ from_trans (Ast.Tt_new_updated (table, Some column)) ]
         ~where:(Ast.Is_null (col column)))
  in
  [
    rule name
      [ Ast.Tp_inserted table; Ast.Tp_updated (table, Some column) ]
      (Some (Ast.Or (inserted_bad, updated_bad)))
      Ast.Act_rollback;
  ]

(* The delta condition ([CW90]): a duplicate key group must contain a
   tuple inserted, or updated in a key column, during the rule's
   composite transition.  The rule only ever rolls back, so that
   transition starts where the constraint held — the committed state,
   or the state in which the rule was last considered and found no
   duplicate (Section 4.2).  Every row of a duplicate group shares the
   group's value of the probe column [k1], so grouping only the rows
   whose [k1] occurs in the delta finds every new duplicate:

     exists (select k... from t
             where k1 in (select k1 from inserted t
                          union all select k1 from new updated t.c ...)
             group by k... having count( * ) > 1)

   With an index on [k1] that is a probe of the delta's keys.  GROUP BY
   puts NULLs together, so two rows with a NULL key collide, yet
   [k1 in (...)] never holds for a NULL [k1].  The probe column is
   therefore a NOT NULL one when the key has any; otherwise a second
   branch, entered only when the delta itself holds a NULL [k1], groups
   the rows whose [k1] is NULL. *)
let compile_unique ~name table columns ~not_null =
  let k1 =
    match List.find_opt (fun c -> List.mem c not_null) columns with
    | Some c -> c
    | None -> List.hd columns
  in
  let delta_keys ?where () =
    let arm tt = select ~projections:[ Ast.Proj (col k1, None) ] ?where [ from_trans tt ] in
    {
      (arm (Ast.Tt_inserted table)) with
      Ast.compounds =
        List.map
          (fun c -> (Ast.Union_all, arm (Ast.Tt_new_updated (table, Some c))))
          columns;
    }
  in
  let dup_groups where =
    exists
      {
        (select ~projections:(List.map (fun c -> Ast.Proj (col c, None)) columns)
           ~where [ from_base table ])
        with
        Ast.group_by = List.map (fun c -> col c) columns;
        having =
          Some (Ast.Cmp (Ast.Gt, Ast.Agg (Ast.Count_star, None), Ast.Lit (Relational.Value.Int 1)));
      }
  in
  let probed = dup_groups (Ast.In_select (col k1, delta_keys ())) in
  let dup =
    if List.mem k1 not_null then probed
    else
      let null_keys =
        { Ast.source = Ast.Derived (delta_keys ~where:(Ast.Is_null (col k1)) ()); alias = Some "d" }
      in
      Ast.Or (probed, exists (select [ null_keys ] ~where:(dup_groups (Ast.Is_null (col k1)))))
  in
  let preds =
    Ast.Tp_inserted table
    :: List.map (fun c -> Ast.Tp_updated (table, Some c)) columns
  in
  [ rule name preds (Some dup) Ast.Act_rollback ]

let orphan_exists ~child ~child_column ~parent ~parent_column =
  exists
    (select [ from_base child ]
       ~where:
         (Ast.And
            ( Ast.Is_not_null (col child_column),
              Ast.Not_in_select
                ( col child_column,
                  select
                    ~projections:[ Ast.Proj (col parent_column, None) ]
                    [ from_base parent ]
                    ~where:(Ast.Is_not_null (col parent_column)) ) )))

let compile_foreign_key ~name child child_column parent parent_column on_delete =
  (* The checking rule guards every operation that can create an
     orphan; for CASCADE / SET NULL, a repairing rule (the paper's
     Example 3.1 pattern) runs on parent deletion, and the checking
     rule then finds nothing to reject. *)
  let check_preds =
    [
      Ast.Tp_inserted child;
      Ast.Tp_updated (child, Some child_column);
      Ast.Tp_deleted parent;
      Ast.Tp_updated (parent, Some parent_column);
    ]
  in
  let check_rule =
    rule (name ^ "_check") check_preds
      (Some (orphan_exists ~child ~child_column ~parent ~parent_column))
      Ast.Act_rollback
  in
  let parent_keys_deleted =
    (* select parent_column from deleted parent *)
    select
      ~projections:[ Ast.Proj (col parent_column, None) ]
      [ from_trans (Ast.Tt_deleted parent) ]
  in
  match on_delete with
  | `Restrict -> [ check_rule ]
  | `Cascade ->
    let repair =
      rule (name ^ "_cascade")
        [ Ast.Tp_deleted parent ]
        None
        (Ast.Act_block
           [
             Ast.Delete
               {
                 table = child;
                 where = Some (Ast.In_select (col child_column, parent_keys_deleted));
               };
           ])
    in
    [ repair; check_rule ]
  | `Set_null ->
    let repair =
      rule (name ^ "_setnull")
        [ Ast.Tp_deleted parent ]
        None
        (Ast.Act_block
           [
             Ast.Update
               {
                 table = child;
                 sets = [ (child_column, Ast.Lit Relational.Value.Null) ];
                 where = Some (Ast.In_select (col child_column, parent_keys_deleted));
               };
           ])
    in
    [ repair; check_rule ]

let compile_check ~name table predicate =
  (* Only inserted or updated tuples can newly violate a row-level
     predicate. *)
  let bad_inserted =
    exists
      (select [ from_trans (Ast.Tt_inserted table) ] ~where:(Ast.Not predicate))
  in
  let bad_updated =
    exists
      (select
         [ from_trans (Ast.Tt_new_updated (table, None)) ]
         ~where:(Ast.Not predicate))
  in
  [
    rule name
      [ Ast.Tp_inserted table; Ast.Tp_updated (table, None) ]
      (Some (Ast.Or (bad_inserted, bad_updated)))
      Ast.Act_rollback;
  ]

(* A cross-table assertion: triggered by ANY change to any referenced
   table; the condition re-evaluates the (negated) invariant against
   the current state.  SQL semantics: the assertion is violated only
   when the predicate is definitely false, so the rollback condition is
   [not (predicate)]. *)
let compile_assertion ~name predicate =
  let tables = Ast.base_tables_of_expr predicate in
  if tables = [] then
    Relational.Errors.semantic
      "assertion %S references no table; nothing can ever re-check it" name;
  let preds =
    List.concat_map
      (fun t ->
        [ Ast.Tp_inserted t; Ast.Tp_deleted t; Ast.Tp_updated (t, None) ])
      tables
  in
  [ rule name preds (Some (Ast.Not predicate)) Ast.Act_rollback ]

let compile constraint_ =
  let name = name_of constraint_ in
  match constraint_ with
  | Not_null { table; column } -> compile_not_null ~name table column
  | Unique { table; columns; not_null } -> compile_unique ~name table columns ~not_null
  | Foreign_key { child; child_column; parent; parent_column; on_delete } ->
    compile_foreign_key ~name child child_column parent parent_column on_delete
  | Check { table; predicate } -> compile_check ~name table predicate
  | Assertion { assertion_name = _; predicate } -> compile_assertion ~name predicate

(* Whether [def] is the rule [compile] emits for a UNIQUE / PRIMARY KEY
   constraint, given which columns the schema declares NOT NULL. *)
let is_unique_rule ~not_null (def : Ast.rule_def) =
  match def.Ast.trans_preds with
  | Ast.Tp_inserted table :: updated -> (
    let key_column = function
      | Ast.Tp_updated (t, Some c) when String.equal t table -> Some c
      | _ -> None
    in
    match List.filter_map key_column updated with
    | [] -> false
    | columns ->
      List.length columns = List.length updated
      && compile (Unique { table; columns; not_null = List.filter (not_null table) columns })
         = [ def ])
  | _ -> false

(* Translate the DDL constraints of a CREATE TABLE statement into
   high-level constraints.  Storage-level NOT NULL is enforced by the
   schema itself, so it is not compiled into a rule here; everything
   else becomes rules.  The result also carries priority pairs making
   repairing rules run before checking rules. *)
let of_create_table (ct : Ast.create_table) =
  let table = ct.Ast.ct_name in
  (* the columns the schema itself keeps non-NULL *)
  let not_null_cols =
    List.filter_map
      (fun cd ->
        if
          List.exists
            (function Ast.C_not_null | Ast.C_primary_key -> true | _ -> false)
            cd.Ast.cd_constraints
        then Some cd.Ast.cd_name
        else None)
      ct.Ast.ct_columns
  in
  let unique columns =
    Unique
      { table; columns; not_null = List.filter (fun c -> List.mem c not_null_cols) columns }
  in
  let per_column =
    List.concat_map
      (fun cd ->
        List.filter_map
          (fun c ->
            match c with
            | Ast.C_not_null | Ast.C_default _ -> None
            | Ast.C_primary_key | Ast.C_unique -> Some (unique [ cd.Ast.cd_name ])
            | Ast.C_references (parent, parent_col) ->
              Some
                (Foreign_key
                   {
                     child = table;
                     child_column = cd.Ast.cd_name;
                     parent;
                     parent_column =
                       Option.value parent_col ~default:cd.Ast.cd_name;
                     on_delete = `Restrict;
                   })
            | Ast.C_check e -> Some (Check { table; predicate = e }))
          cd.Ast.cd_constraints)
      ct.Ast.ct_columns
  in
  let table_level =
    List.map
      (fun c ->
        match c with
        | Ast.T_primary_key columns | Ast.T_unique columns -> unique columns
        | Ast.T_foreign_key { columns; parent; parent_columns; on_delete } -> (
          match columns, parent_columns with
          | [ child_column ], None ->
            Foreign_key
              { child = table; child_column; parent;
                parent_column = child_column; on_delete }
          | [ child_column ], Some [ parent_column ] ->
            Foreign_key
              { child = table; child_column; parent; parent_column; on_delete }
          | _ ->
            Relational.Errors.semantic
              "multi-column foreign keys are not supported (table %S)" table)
        | Ast.T_check e -> Check { table; predicate = e })
      ct.Ast.ct_constraints
  in
  per_column @ table_level

(* Priority pairs so that repairing rules act before their checking
   rule considers the state. *)
let priority_pairs constraint_ =
  let name = name_of constraint_ in
  match constraint_ with
  | Foreign_key { on_delete = `Cascade; _ } ->
    [ (name ^ "_cascade", name ^ "_check") ]
  | Foreign_key { on_delete = `Set_null; _ } ->
    [ (name ^ "_setnull", name ^ "_check") ]
  | Not_null _ | Unique _ | Check _ | Assertion _
  | Foreign_key { on_delete = `Restrict; _ } ->
    []
