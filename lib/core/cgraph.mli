(** Constraint graphs (Section 4 of the paper).

    A constraint graph of a set [q] of convergence actions is a directed
    graph with one edge per action in [q], where

    - each node is labeled with a set of variables, the labels being
      mutually exclusive;
    - the edge of action [ac] goes from [v] to [w] when all variables
      written by [ac] are in the label of [w] and all variables read are in
      the union of the labels of [v] and [w].

    There is a bijection between constraints and convergence actions, so an
    edge also stands for its constraint; we additionally require that the
    constraint's own variables fit in [label v ∪ label w] (when the guard is
    exactly [¬c] this is automatic, and the theorems' structural
    preservation argument relies on it).

    The classification of the graph as out-tree / self-looping / cyclic
    picks which theorem applies (Sections 5–7). *)

type node = private {
  id : int;
  label : string;
  vars : Guarded.Var.Set.t;
}

type t

type pair = { constr : Constr.t; action : Guarded.Action.t }
(** One constraint together with its convergence action. *)

type error =
  | Overlapping_nodes of { node_a : string; node_b : string; var : string }
  | Unassigned_variable of { action : string; var : string }
  | No_writes of { action : string }
  | Writes_cross_nodes of { action : string }
  | Reads_too_wide of { action : string }

val build :
  nodes:(string * Guarded.Var.Set.t) list -> pairs:pair list -> (t, error) result
(** Validate the definition and place each action's edge. *)

val build_exn : nodes:(string * Guarded.Var.Set.t) list -> pairs:pair list -> t
(** @raise Invalid_argument with a rendered {!error}. *)

val infer_nodes : pair list -> (string * Guarded.Var.Set.t) list
(** A canonical node partition: variables written by the same action are
    merged (union–find across all actions); variables only read get
    singleton nodes. Labels list the member variables. The result may still
    fail [build] if some action reads across more than two nodes. *)

val nodes : t -> node array
val pairs : t -> pair array
val graph : t -> int Dgraph.Digraph.t
(** Edge labels are indices into [pairs]. *)

val edge_of_pair : t -> int -> int * int
(** [(src node id, dst node id)] of the pair at this index. *)

val shape : t -> Dgraph.Classify.shape

val ranks : t -> int array option
(** Per-node paper ranks; [None] when the graph is cyclic. *)

val pair_rank : t -> int array option
(** Per-pair rank: the rank of the pair's target node. *)

val constraints : t -> Constr.t list
val actions : t -> Guarded.Action.t list

val to_dot : t -> string
val pp_error : Format.formatter -> error -> unit
val pp : Format.formatter -> t -> unit
