(** SQL values and three-valued logic.

    Comparisons involving {!Null} are UNKNOWN rather than false;
    {!truth} is the three-valued truth domain, and predicate evaluation
    in the SQL layer selects a row only when the predicate is
    definitely {!True} (via {!truth_holds}). *)

type t = Null | Int of int | Float of float | Str of string | Bool of bool

(** SQL truth values. *)
type truth = True | False | Unknown

val is_null : t -> bool

val truth_of_bool : bool -> truth
val truth_and : truth -> truth -> truth
val truth_or : truth -> truth -> truth
val truth_not : truth -> truth

val truth_holds : truth -> bool
(** [truth_holds t] is [true] only for {!True}: SQL collapses UNKNOWN
    to "not selected". *)

val equal : t -> t -> bool
(** Structural equality used by storage and tests; unlike SQL
    comparison, [equal Null Null = true].  Numeric values compare
    across int/float. *)

val type_name : t -> string

val unknown_cmp : int
(** What {!compare_sql} returns when either side is NULL: SQL's
    UNKNOWN.  It is none of -1, 0 and 1. *)

val compare_sql : t -> t -> int
(** SQL comparison: -1, 0 or 1, or {!unknown_cmp} when either side is
    NULL.  Numbers compare across int/float.  Comparing incompatible
    types (e.g. a string with an int) is a type error.  Allocates
    nothing. *)

val eq_sql : t -> t -> truth
(** Three-valued equality. *)

val compare_total : t -> t -> int
(** A total order used for ORDER BY, DISTINCT, GROUP BY keys and
    deterministic output: NULL first, then booleans, numbers, strings. *)

(** {2 Operators}

    Arithmetic and string operators propagate NULL ([x + NULL = NULL]);
    applying an operator to incompatible types, or dividing by zero, is
    a type error. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
val neg : t -> t
val concat : t -> t -> t

val like : t -> t -> truth
(** SQL [LIKE] with ['%'] (any sequence) and ['_'] (any single
    character); UNKNOWN if either operand is NULL. *)

val like_match : string -> string -> bool
(** The underlying pattern matcher, exposed for tests. *)

val to_float : t -> float option
(** Numeric view of a value, for aggregates. *)

val to_string : t -> string
(** SQL-literal rendering (strings quoted, NULL as [NULL]); numeric
    output parses back to an equal value. *)

val to_display : t -> string
(** Rendering for result tables: like {!to_string} but strings are
    unquoted. *)

val pp : Format.formatter -> t -> unit
