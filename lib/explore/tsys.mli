(** Transition systems.

    The complete step relation of a program over an enumerated state space:
    for each state id and each enabled action, the id of the post-state.
    Stored in compressed-sparse-row form; analyses that need graph
    algorithms materialize the (sub)graphs they care about. *)

type t

val build : ?guard:Rt.Guard.t -> Guarded.Compile.program -> Space.t -> t
(** Explore every state once; cost O(states × actions). [guard]
    (default {!Rt.Guard.inert}) is polled during both CSR passes; a
    trip raises {!Rt.Cancel.Cancelled} — the partial relation is not
    resumable, so eager interruptions carry no snapshot.
    @raise Guarded.State.Domain_violation if some action pushes an in-domain
    state out of its domains — a modeling error worth failing loudly on. *)

val space : t -> Space.t
val program : t -> Guarded.Compile.program
val state_count : t -> int
val transition_count : t -> int

val iter_succ : t -> int -> (action:int -> dst:int -> unit) -> unit
val succ : t -> int -> (int * int) list
(** [(action index, destination id)] pairs. *)

val out_degree : t -> int -> int
val is_terminal : t -> int -> bool

val reachable : t -> int list -> Bitset.t
(** Forward closure of a set of state ids. *)

val region_graph : t -> member:(int -> bool) -> int Dgraph.Digraph.t
(** The subgraph induced on [{ id | member id }]: nodes are re-indexed
    densely; use the returned mapping functions below. Edge labels are
    action indices; the graph is source-free, its labels one byte each
    when the program has at most 256 actions
    ({!Dgraph.Digraph.of_csr_bytes}, else {!Dgraph.Digraph.of_csr}). *)

val region_graph_full :
  t ->
  member:(int -> bool) ->
  int Dgraph.Digraph.t * int array * (int -> int)
(** [(graph, node_to_state, state_to_node)]: the induced subgraph together
    with both direction mappings. [state_to_node] returns [-1] for
    non-members. *)
