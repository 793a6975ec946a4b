(** Transition systems.

    The step relation of a program over an enumerated state space, built
    row by row on demand: a state's row lists, for each enabled action in
    action order, the id of the post-state. The eager backend answers
    region queries by walking it ({!region}), in the frontier kernel's
    order, and builds only the rows that walk reaches; {!build} builds
    them all.

    Storage is compressed-sparse-row with rows appended in the order they
    are built: an int32 row index per state of the space ([-1] while the
    row is not built), a word per built row for the row offsets (plus
    one), then per transition an int32 destination id and the action
    label, one byte while the program has at most 256 actions and a word
    beyond that. A relation with [r] rows and [m] transitions over [n]
    states holds [4n + 8(r + 1) + 5m] bytes ([12m] when wide), {!bytes}.
    The offsets and the transitions grow in blocks of [2^16] slots, never
    by doubling; building every missing row at once (in id order, on the
    {!Space.iter} odometer) sizes them exactly. The int32 destinations
    cap the space at {!max_states}.

    A build poll runs every 8192 rows built with the rows built and the
    bytes held, so a stop reports progress in rows, not in ids. *)

type t

val max_states : int
(** [2^31 - 1]: the largest space whose ids fit the int32 destinations. *)

val require_fits : Codec.t -> unit
(** @raise Codec.Overflow (layout ["eager int32"]) when the codec has
    more than {!max_states} states — checked before anything is
    allocated. *)

val create : Guarded.Compile.program -> Space.t -> t
(** An empty relation over the space: no row is built yet. It holds
    the row index, [4 × states] bytes.
    @raise Codec.Overflow as {!require_fits}. *)

val build : Guarded.Compile.program -> Space.t -> t
(** Every row, built in id order as a region that sees every state
    builds them; cost O(states × actions), with [apply_into] and
    {!Space.encode} (not the engines' delta stepper, so the fuzz oracles
    compare two independent successor paths). Two passes over the
    states, a count then a fill, size the storage exactly.
    @raise Codec.Overflow as {!require_fits}.
    @raise Guarded.State.Domain_violation if some action pushes an in-domain
    state out of its domains — a modeling error worth failing loudly on. *)

val space : t -> Space.t
val program : t -> Guarded.Compile.program
val state_count : t -> int

val rows_built : t -> int
(** The rows built so far: at most {!state_count}, which {!build}
    reaches. *)

val transition_count : t -> int
(** The transitions of the rows built so far. *)

val bytes : t -> int
(** The relation's bytes as the header's formula: [4 × states] for the
    row index, [8 × (rows + 1)] for the offsets, 5 (12 when wide) per
    transition. Block growth may hold up to one more block of each
    array, allocated but not yet written. *)

val iter_succ : t -> int -> (action:int -> dst:int -> unit) -> unit
val succ : t -> int -> (int * int) list
(** [(action index, destination id)] pairs. These and the two below
    build the state's row first when it is not built. *)

val out_degree : t -> int -> int
val is_terminal : t -> int -> bool

val region :
  ?poll:(unit -> unit) ->
  ?grow:(states:int -> bytes:int -> unit) ->
  ?resident:int ->
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
    a sweep of all roots expands nothing.

    A row is built the first time the walk expands its state. Once
    every state is seen, the rows still missing are built at once as
    in {!build}, so every member's row is built before the two passes
    over the members read it. Rows stay built, so a second region over the same roots
    builds none. [grow] (default none) is the build poll: it runs every
    8192 rows built, and every 8192 missing rows of each pass while the
    missing rows are built at once, with the rows built and the bytes
    held plus [resident] (default [0]). Memory: two int32 arrays over the space
    (state → node and the queue) plus the graph and the rows built.
    [poll] (default none) runs at the cadence of {!Dgraph.Topo.tick} in
    the walk and in both passes over the members' rows. An exception
    either poll raises propagates. *)
