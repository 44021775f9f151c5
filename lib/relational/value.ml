(* SQL values with three-valued logic.

   Comparisons involving [Null] are unknown rather than false: SQL's
   UNKNOWN is [Unknown] among truth values and [unknown_cmp] among
   comparison results.  Predicate evaluation in the SQL layer collapses
   UNKNOWN to "row not selected", as SQL does. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

(* SQL truth values. *)
type truth = True | False | Unknown

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let truth_of_bool b = if b then True else False

let truth_and a b =
  match a, b with
  | False, _ | _, False -> False
  | True, True -> True
  | Unknown, (True | Unknown) | True, Unknown -> Unknown

let truth_or a b =
  match a, b with
  | True, _ | _, True -> True
  | False, False -> False
  | Unknown, (False | Unknown) | False, Unknown -> Unknown

let truth_not = function True -> False | False -> True | Unknown -> Unknown

(* A row is selected only when the predicate is definitely true. *)
let truth_holds = function True -> true | False | Unknown -> false

(* Structural equality used by storage and tests (Null = Null here,
   unlike SQL comparison semantics). *)
let equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | (Null | Int _ | Float _ | Str _ | Bool _), _ -> false

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Bool _ -> "bool"

(* The result of [compare_sql] when either side is NULL: SQL's
   UNKNOWN.  No comparison of two values yields it. *)
let unknown_cmp = min_int

(* SQL comparison: [unknown_cmp] when either side is NULL, else the sign
   of the comparison as -1, 0 or 1; an immediate either way, so a
   per-row test allocates nothing.  Numeric values compare across
   int/float; types that are not comparable raise. *)
let compare_sql a b =
  match a, b with
  | Null, _ | _, Null -> unknown_cmp
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Int _ | Float _ | Str _ | Bool _), _ ->
    Errors.type_error "cannot compare %s with %s" (type_name a) (type_name b)

let eq_sql a b =
  let c = compare_sql a b in
  if c = unknown_cmp then Unknown else truth_of_bool (c = 0)

(* Total order used for ORDER BY, DISTINCT and deterministic output:
   NULL sorts first, then bools, ints/floats together, then strings. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare_total a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | a, b -> compare (rank a) (rank b)

(* Arithmetic.  Any NULL operand yields NULL; int/int stays int except
   for division by a non-divisor, which promotes to float as most SQL
   engines with a single numeric division operator do not — we keep
   integer division for int/int to match SQL's DIV-like behaviour and
   raise on division by zero. *)

let numeric op_name a b ~int_op ~float_op =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | Float x, Float y -> Float (float_op x y)
  | Int x, Float y -> Float (float_op (float_of_int x) y)
  | Float x, Int y -> Float (float_op x (float_of_int y))
  | a, b ->
    Errors.type_error "cannot apply %s to %s and %s" op_name (type_name a)
      (type_name b)

let add a b = numeric "+" a b ~int_op:( + ) ~float_op:( +. )
let sub a b = numeric "-" a b ~int_op:( - ) ~float_op:( -. )

let mul a b =
  match a, b with
  (* Mixed int*float is the common pattern in the paper's examples
     (e.g. 0.95 * salary). *)
  | _ -> numeric "*" a b ~int_op:( * ) ~float_op:( *. )

let div a b =
  let check_zero y = if y = 0 then Errors.type_error "division by zero" in
  let checkf_zero y =
    if Float.equal y 0.0 then Errors.type_error "division by zero"
  in
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y ->
    check_zero y;
    Int (x / y)
  | Float x, Float y ->
    checkf_zero y;
    Float (x /. y)
  | Int x, Float y ->
    checkf_zero y;
    Float (float_of_int x /. y)
  | Float x, Int y ->
    check_zero y;
    Float (x /. float_of_int y)
  | a, b ->
    Errors.type_error "cannot apply / to %s and %s" (type_name a) (type_name b)

let rem a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y ->
    if y = 0 then Errors.type_error "division by zero";
    Int (x mod y)
  | a, b ->
    Errors.type_error "cannot apply %% to %s and %s" (type_name a)
      (type_name b)

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> Errors.type_error "cannot negate %s" (type_name v)

let concat a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Str x, Str y -> Str (x ^ y)
  | a, b ->
    Errors.type_error "cannot concatenate %s and %s" (type_name a)
      (type_name b)

(* SQL LIKE with '%' (any sequence) and '_' (any single character). *)
let like_match text pattern =
  let n = String.length text and m = String.length pattern in
  (* memoized match over (text index, pattern index) *)
  let memo = Hashtbl.create 16 in
  let rec go i j =
    match Hashtbl.find_opt memo (i, j) with
    | Some r -> r
    | None ->
      let r =
        if j = m then i = n
        else
          match pattern.[j] with
          | '%' -> go i (j + 1) || (i < n && go (i + 1) j)
          | '_' -> i < n && go (i + 1) (j + 1)
          | c -> i < n && text.[i] = c && go (i + 1) (j + 1)
      in
      Hashtbl.add memo (i, j) r;
      r
  in
  go 0 0

let like a pattern =
  match a, pattern with
  | Null, _ | _, Null -> Unknown
  | Str s, Str p -> truth_of_bool (like_match s p)
  | a, b ->
    Errors.type_error "LIKE requires strings, got %s and %s" (type_name a)
      (type_name b)

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Null | Str _ | Bool _ -> None

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x when Float.is_nan x -> "nan"
  | Float x when x = Float.infinity -> "infinity"
  | Float x when x = Float.neg_infinity -> "-infinity"
  | Float x ->
    (* Print finite floats so they read back as floats; non-finite ones
       use the grammar's NAN / INFINITY literal spellings above (the
       bare "nan"/"inf" of %g does not lex). *)
    let s = Printf.sprintf "%.12g" x in
    if String.contains s '.' || String.contains s 'e' then s else s ^ "."
  | Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Bool b -> if b then "TRUE" else "FALSE"

(* Unquoted rendering for result tables. *)
let to_display = function Str s -> s | v -> to_string v

let pp ppf v = Fmt.string ppf (to_string v)
