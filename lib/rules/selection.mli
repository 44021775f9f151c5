(** Rule selection (paper Section 4.4).

    When several rules are triggered simultaneously, the engine picks a
    rule such that no other triggered rule is strictly higher in the
    declared partial order; a {!strategy} breaks ties among the
    remaining incomparable rules. *)

type strategy =
  | Creation_order  (** earliest-defined rule first (deterministic default) *)
  | Least_recently_considered
      (** prefer rules considered longest ago: round-robin fairness *)
  | Most_recently_considered
      (** prefer rules considered most recently: depth-first chaining *)

(** A logical clock of rule considerations. *)
type clock

val make_clock : unit -> clock
val tick : clock -> int

val eligible : Priority.t -> Rule.t list -> Rule.t list
(** The candidates not dominated by another candidate in the partial
    order: the rules that may be selected next.  Non-empty for a
    non-empty candidate list, since the order is acyclic. *)

val choose :
  strategy ->
  Priority.t ->
  last_considered:(string -> int) ->
  Rule.t list ->
  Rule.t option
(** Pick from the candidates (rules triggered and not yet considered in
    the current state): one of their {!eligible} rules, chosen by
    strategy with ties broken by creation sequence.  [None] iff the
    candidate list is empty. *)
