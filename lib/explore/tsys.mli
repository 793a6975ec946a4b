(** Transition systems.

    The complete step relation of a program over an enumerated state space:
    for each state id and each enabled action, the id of the post-state.
    Analyses that need graph algorithms materialize the (sub)graphs they
    care about.

    Storage is compressed-sparse-row: a word per state for the row
    offsets ([states + 1] of them), then per transition an int32
    destination id ({!Bigarray}) and the action label, one byte while
    the program has at most 256 actions and a word beyond that — 5 bytes
    per transition (12 when wide) instead of the 16 of two word arrays.
    Rows are filled in state order and, within a row, in action order.
    The int32 destinations cap the space at {!max_states}. *)

type t

val max_states : int
(** [2^31 - 1]: the largest space whose ids fit the int32 destinations. *)

val require_fits : Codec.t -> unit
(** @raise Codec.Overflow (layout ["eager int32"]) when the codec has
    more than {!max_states} states — checked before anything is
    allocated. *)

val build :
  ?guard:Rt.Guard.t -> ?resident:int -> Guarded.Compile.program -> Space.t -> t
(** Explore every state once; cost O(states × actions), with
    [apply_into] and {!Space.encode} (not the engines' delta stepper, so
    the fuzz oracles compare two independent successor paths). [guard]
    (default {!Rt.Guard.inert}) is polled during both CSR passes, with
    the bytes this build holds plus [resident] (default [0]: the bytes
    of relations the caller keeps alive beside it); a trip raises
    {!Rt.Cancel.Cancelled} — the partial relation is not resumable, so
    eager interruptions carry no snapshot.
    @raise Codec.Overflow as {!require_fits}.
    @raise Guarded.State.Domain_violation if some action pushes an in-domain
    state out of its domains — a modeling error worth failing loudly on. *)

val space : t -> Space.t
val program : t -> Guarded.Compile.program
val state_count : t -> int
val transition_count : t -> int

val bytes : t -> int
(** The relation's array bytes: [8 × (states + 1)] for the offsets plus
    5 (12 when wide) per transition. *)

val iter_succ : t -> int -> (action:int -> dst:int -> unit) -> unit
val succ : t -> int -> (int * int) list
(** [(action index, destination id)] pairs. *)

val out_degree : t -> int -> int
val is_terminal : t -> int -> bool

val reachable : t -> int list -> Bitset.t
(** Forward closure of a set of state ids (a breadth-first search over a
    {!Flatqueue}). *)

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
