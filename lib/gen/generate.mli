(** Seeded random model generation.

    Draws a well-formed {!Spec.t} from a {!Prng.t} stream: variables over
    small finite domains, guard and right-hand-side expression trees, a
    communication structure borrowed from [lib/topology] (ring, random
    rooted tree, random connected graph, or unstructured), a small fault
    action set, and a satisfiable invariant in cube form. Everything is a
    pure function of the stream, so a model reproduces exactly from the
    seed that created its generator.

    Structure matters for the differential oracles: ring/tree/graph
    flavors constrain each action's read set to its process's
    neighborhood, which produces constraint graphs shaped like the
    paper's protocols rather than arbitrary global programs — while the
    [free] flavor keeps the fully unstructured case in the mix. *)

type config = {
  max_vars : int;  (** at most this many variables (>= 2) *)
  max_dom : int;  (** largest domain size (>= 2) *)
  max_actions : int;  (** at most this many program actions (>= 1) *)
  max_faults : int;  (** at most this many fault actions (>= 1) *)
  max_depth : int;  (** expression tree depth *)
  max_states : int;  (** cap on the product of domain sizes *)
}

val default : config
(** [{ max_vars = 4; max_dom = 4; max_actions = 6; max_faults = 3;
      max_depth = 3; max_states = 4096 }] *)

val with_max_vars : int -> config
(** {!default} with [max_vars] set (and [max_states] scaled so bigger
    instances stay explorable). *)

val spec : ?config:config -> Prng.t -> Spec.t
(** Draw a spec. All invariant cubes are over live slots with in-domain
    values, action names are distinct, and the space size respects
    [max_states]. *)

val model : ?config:config -> Prng.t -> Spec.model
(** [Spec.materialize (spec rng)]. *)

val boolean :
  Prng.t -> depth:int -> reads:Guarded.Var.t array -> Guarded.Expr.boolean
(** Random predicate over the given variables. *)
