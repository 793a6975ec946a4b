(** Variant functions synthesized from constraint-graph ranks.

    The paper's concluding remarks observe that its sufficient conditions
    simplify the search for a variant function. This module makes that
    concrete: from a constraint graph whose pairs have ranks [1..R], define

    [V(s) = (v_1, ..., v_R)] where [v_r] = number of violated constraints
    whose edge targets a node of rank [r],

    ordered lexicographically. Under the Theorem-1/2 obligations, every
    convergence action strictly decreases [V] (it establishes its own
    rank-[r] constraint and can only perturb higher ranks) and every closure
    action does not increase it — which is exactly a variant-function proof
    of convergence. [check] verifies both properties exhaustively. *)

type t

val of_cgraph : Cgraph.t -> t option
(** [None] when the graph is cyclic (no ranks). *)

val rank_count : t -> int

val value : t -> Guarded.State.t -> int array
(** Violations per rank; index [r-1] holds rank [r]. *)

val compare_values : int array -> int array -> int
(** Lexicographic. *)

val total_violations : t -> Guarded.State.t -> int

type failure = {
  action : string;
  pre : Guarded.State.t;
  post : Guarded.State.t;
  kind : [ `Convergence_did_not_decrease | `Closure_increased ];
}

val check :
  engine:Explore.Engine.t ->
  spec:Spec.t ->
  cgraph:Cgraph.t ->
  t ->
  (unit, failure) result
(** Exhaustively verify, over fault-span states: every convergence action
    strictly decreases [V]; every closure action does not increase it. *)
