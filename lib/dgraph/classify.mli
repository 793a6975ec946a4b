(** Shape classification of constraint graphs.

    The paper's three sufficient conditions key on the shape of the
    constraint graph:

    - {b Out-tree} (Section 5): weakly connected; one node of indegree zero;
      all other nodes of indegree one. (Theorem 1.)
    - {b Self-looping} (Section 6): every cycle has length 1, i.e. the graph
      is acyclic once self-loops are removed. (Theorem 2.) Every out-tree is
      self-looping.
    - {b Cyclic} (Section 7): has a cycle of length greater than 1.
      (Theorem 3 applies via layering.) *)

type shape =
  | Out_tree
  | Self_looping  (** Acyclic apart from self-loops, but not an out-tree. *)
  | Cyclic  (** Contains a cycle of length [> 1]. *)

val shape : 'a Digraph.t -> shape
(** Most specific shape of the graph. *)

val is_out_tree : 'a Digraph.t -> bool
val is_self_looping : 'a Digraph.t -> bool
(** True for out-trees as well (the class is inclusive). *)

val is_weakly_connected : 'a Digraph.t -> bool
(** Vacuously true for the empty graph. *)

val shape_to_string : shape -> string
