(** Strongly connected components (Tarjan's algorithm, iterative).

    Used by the fair-convergence checker: an infinite execution eventually
    stays inside one SCC of the transition graph, so convergence analysis
    reduces to per-SCC escape arguments. *)

type t = {
  count : int;  (** Number of components. *)
  component : int array;
      (** [component.(v)] is the id of [v]'s component. Ids are in
          topological order of the condensation: every edge [u -> w] with
          [component.(u) <> component.(w)] has
          [component.(u) < component.(w)]. *)
  members : int list array;  (** Nodes of each component. *)
}

val compute : ?poll:(unit -> unit) -> 'a Digraph.t -> t
(** [poll] (default none) runs before the first node is discovered and
    every 4096 nodes after; an exception it raises propagates. *)

val is_trivial : t -> 'a Digraph.t -> int -> bool
(** A component is trivial iff it is a single node without a self-loop —
    i.e. it cannot sustain an infinite execution by itself. *)

val condensation : 'a Digraph.t -> t -> unit Digraph.t
(** The DAG of components (self-edges removed, parallel edges collapsed). *)
