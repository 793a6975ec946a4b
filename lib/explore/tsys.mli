(** Transition systems.

    The complete step relation of a program over an enumerated state space:
    for each state id and each enabled action, the id of the post-state.
    The eager backend answers region queries by walking it ({!region}),
    in the frontier kernel's order.

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
  ?poll:(states:int -> bytes:int -> unit) ->
  ?resident:int ->
  Guarded.Compile.program ->
  Space.t ->
  t
(** Explore every state once; cost O(states × actions), with
    [apply_into] and {!Space.encode} (not the engines' delta stepper, so
    the fuzz oracles compare two independent successor paths). [poll]
    (default: none) is called every 8192 ids of both CSR passes with the
    id reached and the bytes this build holds plus [resident] (default
    [0]: the bytes of relations the caller keeps alive beside it); it
    stops the build by raising — the partial relation is not resumable,
    so eager interruptions carry no snapshot.
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

val region :
  ?poll:(unit -> unit) ->
  t ->
  roots:(seen:(int -> bool) -> (int -> bool -> unit) -> unit) ->
  member:(int -> bool) ->
  int Dgraph.Digraph.t * int array * int * (int -> int)
(** [region t ~roots ~member] is the frontier kernel's region over the
    relation: [(graph, node_key, explored, node_of_key)] as in
    {!Engine.region}. [roots ~seen add] adds each root once ([add id
    is_member]; [seen id] tells whether [id] was added already). The
    walk then pops the states FIFO in discovery order, expands each
    row in action order, and calls [member] once on each state it
    discovers. Members get node ids in discovery order, [node_key]
    maps them back to state ids, and [node_of_key] returns [-1] off the
    region. The graph is the CSR graph induced on the
    members (rows in node order, each in action order; labels one byte
    each when the program has at most 256 actions). [explored] counts
    the states seen. The walk stops as soon as every state is seen, so
    a sweep of all roots expands nothing. Memory: two int32 arrays over
    the space (state → node and the queue) plus the graph. [poll]
    (default none) runs at the cadence of {!Dgraph.Topo.tick} in the
    walk and in both passes over the members' rows; an exception it
    raises propagates. *)
