(** Static rule analysis (paper Section 6): the may-trigger graph over
    a rule set, potential-infinite-loop warnings (cycles, including
    self-loops like Example 4.1), and order-dependence warnings (rule
    pairs unordered by priorities whose execution order can change the
    final state).

    The analysis is conservative and syntactic: it over-approximates
    both triggering and data access, so absence of a warning is
    meaningful while presence is only a "may". *)

module Ast = Sqlf.Ast

type edge = { from_rule : string; to_rule : string }
type conflict = { rule1 : string; rule2 : string }

type report = {
  graph : edge list;  (** may-trigger edges *)
  potential_loops : string list list;
      (** elementary cycles, each [r1; ...; rk] meaning
          [r1 -> ... -> rk -> r1] *)
  order_conflicts : conflict list;
      (** unordered pairs with intersecting write/read footprints *)
}

val cycles : Rule.t list -> string list list

val analyze : ?priorities:Priority.t -> Rule.t list -> report
val pp_report : Format.formatter -> report -> unit
