(** Pluggable exploration engines.

    The convergence and closure checkers only ever need the states
    {e reachable} from a set of roots; how those states are found is a
    strategy choice:

    - {b Eager} (the classical backend): enumerate the whole mixed-radix
      state space once, build the complete transition relation in CSR form
      ({!Tsys}), and answer every query by walking it ({!Tsys.region}):
      the same FIFO walk as the frontier kernel, reading each state's
      successors off its row instead of stepping the actions. Fast per
      query, but build time is O(states × actions) regardless of how
      small the interesting region is, and a relation costs 8 bytes per
      state plus 5 per transition (12 past 256 actions). The space must
      fit under the [max_states] cap (2M by default) and under {!Tsys.max_states}
      ([2^31 - 1], the int32 destination ids), which no budget lifts.
      The engine keeps the two most recently used relations: a compiled
      program whose action sources are physically those of a kept
      relation, in the same order, reuses it, so a tolerance sweep that
      recompiles the program and program ∪ faults at every budget builds
      each once. The [engine.csr_builds] counter and [engine.csr_bytes]
      gauge (the relations held, at most two) report them.

    - {b Lazy} (on-the-fly frontier search): generate successors on demand
      by stepping the compiled actions in place on a reusable state buffer
      ({!stepper}), keeping a hashed visited set keyed by {!Space.encode}. Only discovered states
      cost anything, so instances far beyond the eager cap get verdicts as
      long as the {e reachable region} from the given roots stays under the
      exploration budget. It is the frontier kernel below at one worker:
      it never starts a pool and ignores [jobs].

    - {b Parallel} (the frontier kernel over a {!Par.Pool}): one FIFO
      search on the same visited table ({!make_visited}: Direct or
      Probed, by the same {!storage} rule), committing successors in
      frontier order × action order. At one worker each successor is
      committed as it is stepped (one probe, [target] once per
      discovered state). At more, each BFS level runs in two phases over
      bounded blocks of the frontier ({!Par.Chunked}): in phase A the
      workers expand frontier states and probe the table, which they
      only read, writing two words per successor; in phase B, after the
      join, the caller alone commits them. The resulting {!region} (node
      numbering, edge order, explored count, even the overflow point)
      and the visited-table bytes are the same at any job count.

    {b The region contract.} Every backend, eager included, returns the
    same {!region} for the same query: the same [node_key] (members
    numbered in FIFO discovery order — the roots in {!seed_roots} order,
    then each popped state's successors in action order), the same
    edges in the same CSR order, the same [terminal] and the same
    [explored]. Eager differs only in its storage. So every analysis
    (deadlock, cycle, SCC escape, closure) is written once against this
    interface and prints the same witnesses on every backend; the
    kernel tests compare the regions field by field, and the fuzz
    oracles compare them, their verdicts' witnesses and the
    certificates' details exactly. *)

type backend = Eager | Lazy | Parallel

(** Visited-set representation for the lazy and parallel backends (the
    eager backend's CSR relation is its own storage):

    - [Direct]: a flat [Bigarray] of int32 node ids indexed by dense
      state code — 4 bytes per state of the {e whole} dense range,
      regardless of how many states the search reaches. Unbeatable when
      most of the space is reachable; needs the dense range to be
      materializable (at most [2^30] slots).
    - [Probed]: an open-addressing flat table ({!Flatset} over
      {!Par.Flattbl}) sized by what the search actually visits —
      roughly 16-32 bytes per {e visited} state at the resting load
      factor. The only choice for sparse regions of huge spaces.
    - [Auto] (default): [Direct] when the dense range has at most
      [2^28] slots {e and} is no more than 8× the exploration budget
      (so the up-front array cannot dwarf what the budget allows the
      search to touch); [Probed] otherwise.

    The choice never affects results: discovery order, node numbering,
    edge order, and overflow points are storage-invariant. *)
type storage = Auto | Direct | Probed

type t

val create :
  ?backend:backend ->
  ?max_states:int ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?storage:storage ->
  ?obs:Obs.Ctx.t ->
  ?guard:Rt.Guard.t ->
  ?snapshots:bool ->
  ?salt:string ->
  Guarded.Env.t ->
  t
(** Build an engine for an environment. [max_states] (default [2_000_000])
    caps the enumerated space for the eager backend and the number of
    {e visited} states for the lazy and parallel backends. [jobs]
    (default {!Par.Pool.default_jobs}, i.e.
    [Domain.recommended_domain_count ()]) sets the worker-domain count
    used by the parallel backend; other backends record but ignore it.
    [pool] (default none) is a caller-owned shared {!Par.Pool} the
    parallel backend (and the analyses layered on the engine — fault
    spans, certification) borrows instead of spawning a transient pool
    per search: the amortization point for a long-lived service. When
    given, it also supplies the default [jobs]; the caller keeps
    ownership and must not run two analyses over it concurrently.
    [storage] (default [Auto]) picks the visited-set representation for
    the lazy/parallel backends; see {!storage}. [obs] (default {!Obs.Ctx.disabled}) receives the
    engine's metrics, trace events, and progress ticks — see the
    README's event schema. [guard] (default {!Rt.Guard.inert}) is the
    cooperative budget/cancellation point every search polls at
    wave/chunk boundaries; a tripped guard raises {!Interrupted} with a
    partial-progress record. [snapshots] (default [false]) makes those
    interrupts carry a resumable {!Rt.Snapshot.t} of the wavefront.
    [salt] (default [""]) is caller context — the CLI's canonical
    instance/flag spelling — folded into snapshot config hashes so a
    checkpoint cannot silently resume against a different model.
    @raise Space.Too_large for an eager engine over a bigger space.
    @raise Codec.Overflow (layout ["dense"]) for an engine whose space
    has more than {!Space.encodable_max} states, and (layout
    ["eager int32"]) for an eager engine over {!Tsys.max_states}: both
    are checked before [max_states], since no budget lifts them.
    @raise Invalid_argument when [jobs <= 0], or when [Direct] is forced
    over a dense range above [2^30]. *)

val of_space : ?obs:Obs.Ctx.t -> Space.t -> t
(** Eager engine over an already-created space. *)

val backend : t -> backend
val backend_name : t -> string
val space : t -> Space.t
val env : t -> Guarded.Env.t
val max_states : t -> int

val jobs : t -> int
(** Worker-domain count used by the parallel backend ([1] for engines
    built via {!of_space}). *)

val pool : t -> Par.Pool.t option
(** The caller-owned shared pool this engine borrows, if any (see
    {!create}), or the one {!sharing_pool} lent it. *)

val sharing_pool : t -> (unit -> 'a) -> 'a
(** [sharing_pool t f] runs [f] with every search and analysis on a
    parallel engine borrowing one pool: [t]'s own when it has one, else
    a fresh pool of [jobs t] workers, lent to [t] until [f] returns or
    raises and then shut down. Multi-step analyses (a tolerance sweep,
    a certificate) wrap themselves in it, so they join their domains
    once instead of once per search. Other backends run [f] as is. *)

val with_workers : t -> (Par.Pool.t -> 'a) -> 'a
(** [with_workers t f] runs [f] on the pool a span-indexed loop splits
    its work over: the parallel backend's pool (its own, the one
    {!sharing_pool} lent it, or a fresh one of [jobs t] workers), else a
    one-worker pool, which starts no domain and runs every chunk inline.
    The fault-span search and every {!sweep} share this one rule. *)

val obs : t -> Obs.Ctx.t
(** The engine's observability context. Analyses layered on the engine
    ({!Faultspan}, certification) record into the same context, so one
    [--metrics-out] snapshot covers the whole pipeline. *)

val config_hash : t -> parts:string list -> string
(** Fingerprint of this engine's result-affecting configuration (codec
    layout, budget, [salt]) combined with
    caller-supplied [parts] such as action names. Backend and job count
    are excluded: checkpoints resume across both. *)

val action_names : Guarded.Compile.program -> string list
(** Action names in index order, as snapshot config hashes fold them in. *)

val check_snapshot_kind : kind:string -> hash:string -> Rt.Snapshot.t -> unit
(** Every resume's header check. @raise Rt.Snapshot.Corrupt when the
    snapshot's kind or config hash is not the expected one. *)

val codec : t -> Codec.t
(** The codec sized from the engine's environment. *)

val storage_name : t -> string
(** Resolved storage representation: ["csr"] (eager), ["direct"], or
    ["probed"]. *)

val storage_bytes : t -> int
(** Flat-storage footprint of the most recent lazy/parallel search that
    finished:
    visited-table bytes plus the frontier's high-water bytes (the queue
    at one worker; the wave vectors and phase-A buffers at more).
    [0] before any search and for the eager backend (whose relations
    report {!Tsys.bytes}, summed in the [engine.csr_bytes] gauge).
    Divide by [region.explored] for the bytes-per-state figure the E19
    experiment reports. *)

val encode_key : t -> Guarded.State.t -> int
(** The key this engine files a state under: its dense id,
    [Space.encode]. *)

val decode_key : t -> int -> Guarded.State.t
(** Decode an engine key (as found in [node_key]) to a fresh state. *)

val decode_key_into : t -> int -> Guarded.State.t -> unit
(** Allocation-free {!decode_key} into a caller buffer. *)

(** {2 Successor stepping}

    A stepper fires actions in place on a decoded state and derives each
    successor's key from the slots the action writes ({!Guarded.Compile}'s
    [slots] and [rhs]): [key + Σ (new - old) · place_i], with the place
    values of {!Codec.places}. Every keyed
    successor loop (the lazy and parallel searches, {!Faultspan}, the
    tolerance certificate's span checks, the adversary) runs on it; the
    eager {!Tsys} build, the obligation scan ({!Closure.scan}),
    refinement and the simulators keep [apply_into], so the fuzz
    oracles compare the two paths. {!sweep} hands each visit a stepper
    loaded with its state. *)

type stepper
(** A state buffer plus the scratch one pending step needs. Not
    thread-safe: give each worker domain its own. *)

val stepper : t -> stepper

val stepper_state : stepper -> Guarded.State.t
(** The buffer: the [load]ed state, or its successor between {!step} and
    {!undo}. Read it; do not write it. *)

val load : stepper -> int -> unit
(** Decode an engine key into the buffer, dropping any pending step. *)

val step : stepper -> Guarded.Compile.action -> int
(** [step st ca] fires [ca] in place on the loaded state (the caller has
    checked its guard) and returns the successor's key, equal to
    {!encode_key} of the post-state. Call {!undo} before the next step.
    @raise Guarded.State.Domain_violation, with the buffer unchanged,
    when a right-hand side leaves its domain. *)

val undo : stepper -> unit
(** Restore the loaded state after a {!step}. *)

val make_visited : t -> Flatset.t
(** A fresh visited table following the engine's storage policy
    (direct-mapped over small dense ranges, open-addressing otherwise).
    Every lazy and parallel search, and the layered searches built on
    the engine ({!Faultspan}), use this so one [storage] knob governs
    the whole pipeline. *)

exception Region_overflow of int
(** Raised when a lazy exploration visits more states than the engine's
    budget; carries the number of states visited so far. *)

(** Partial progress handed back when a search, sweep or analysis
    stops cooperatively at {!poll} — the guard's budget tripped or
    cancellation was requested. When the engine was created with
    [~snapshots:true], [snapshot] holds a resumable checkpoint of the
    wavefront (lazy/parallel region and span searches only). The eager
    relation's build and region walk, {!sweep}, {!iter_reachable}, the
    copy of a region into its graph and the analyses after a search
    carry [None]: [states_seen] is then the ids or states the stream had
    polled at (the relation's state count in the walk), or past a
    search the region's (or span's) explored count. *)
type interrupt = {
  reason : Rt.Cancel.reason;
  states_seen : int;
  frontier_size : int;
  snapshot : Rt.Snapshot.t option;
}

exception Interrupted of interrupt

val poll :
  ?snapshot:(unit -> Rt.Snapshot.t) ->
  t ->
  states:int ->
  bytes:int ->
  frontier:int ->
  unit
(** The one cooperative stop point: every search, sweep and analysis
    polls the engine's guard through here. [poll t ~states ~bytes
    ~frontier] checks the guard ({!Rt.Guard.poll}) against the live
    state count and bytes, and on a trip raises {!Interrupted} with
    [states_seen] = [states], [frontier_size] =
    [frontier] and, when the engine wants snapshots, [snapshot ()].
    Costs one test on the inert guard. *)

val analysis_poll : t -> explored:int -> (unit -> unit) option
(** The poll an analysis of a finished search passes to
    {!Dgraph.Topo} and {!Dgraph.Scc} (and runs itself between its own
    steps): [None] on an inactive guard, so the inert guard pays
    nothing; else a {!poll} with no live counts, which only cancellation
    and the deadline trip — the search already answered to the state and
    byte ceilings. Its interrupt reports [explored] and no snapshot. *)

val check_budget : t -> int -> unit
(** [check_budget t n] is the state cap every search applies to its
    [n]-th visited state. @raise Region_overflow when [n] exceeds
    {!max_states}. *)

(** Root sets for reachability queries. [All] and [Pred] enumerate the
    space (so they require it to fit the budget); [Seeds] works on spaces
    of any size. *)
type roots =
  | All
  | Pred of (Guarded.State.t -> bool)
  | Seeds of Guarded.State.t list

(** The region of interest for convergence checking: the subgraph induced
    on the reachable states where the target predicate does {e not} hold.
    Nodes are dense ints; [node_key.(v)] is the state's engine key, its
    dense mixed-radix id (decode with {!decode_key}). [terminal.(v)] says the state has no
    enabled action in the {e full} program. [explored] counts every state
    visited by the search, members or not. *)
type region = {
  graph : int Dgraph.Digraph.t;  (** edge labels are action indices *)
  node_key : int array;
  terminal : bool array;
  explored : int;
  node_of_key : int -> int;  (** [-1] for non-members *)
}

val region :
  ?resume:Rt.Snapshot.t ->
  t ->
  Guarded.Compile.program ->
  from:roots ->
  target:(Guarded.State.t -> bool) ->
  region
(** States reachable from [from] (paths may pass through target states),
    restricted to those violating [target], with the induced step graph.
    [resume] continues from a checkpoint written by an interrupted
    region search over the same configuration; the continuation (on the
    lazy or parallel backend, at any job count) reaches a result
    bit-identical to the uninterrupted run — the root set is taken from
    the snapshot, so [from] is ignored.
    @raise Region_overflow when a lazy search exceeds the budget.
    @raise Interrupted when the engine's guard trips — on the eager
    backend, while it builds the relation (polled every 8192 ids).
    @raise Rt.Snapshot.Corrupt when [resume] has the wrong kind or a
    mismatched config hash, or on the eager backend. *)

val seed_roots :
  ?pool:Par.Pool.t ->
  ?target:(Guarded.State.t -> bool) ->
  t ->
  from:roots ->
  mem:(int -> bool) ->
  (int -> bool -> unit) ->
  unit
(** [seed_roots t ~from ~mem add] calls [add key member] once for each
    root not yet [mem], in the canonical root order: the seeds as
    listed, or a sweep of the qualifying dense ids in ascending order.
    [member] is [not (target s)] (default [target]: never), and [target]
    runs once per root added. A sweep on a [pool] of more than one
    worker classifies the ids there and then adds them in id order; its
    ids are distinct, so it skips [mem]. Every region search seeds
    through here — lazy, parallel and eager {!region}s — and so do
    {!Faultspan} and {!iter_reachable}.
    @raise Region_overflow when [from] is [All] or [Pred] and the space
    exceeds the budget. *)

val state_of_node : t -> region -> int -> Guarded.State.t
(** Decode a region node's state (fresh copy). *)

(** What a {!sweep} visits: [Whole_space], every in-domain state in id
    order; or [Keys (n, key)], the states [key 0 .. key (n - 1)] in that
    order (a fault span's [Faultspan.nth_key], say). *)
type domain = Whole_space | Keys of int * (int -> int)

val sweep :
  t ->
  domain ->
  scratch:(unit -> 'w) ->
  visit:('w -> stepper -> int -> 'c -> 'c) ->
  empty:'c ->
  fold:('a -> 'c -> 'a) ->
  stop:('a -> bool) ->
  'a ->
  'a
(** The one pass that checks or records something at every state of a
    domain: {!Closure.scan}, refinement, the tolerance certificate's span
    checks and the adversary run on it. [sweep t over ~scratch ~visit
    ~empty ~fold ~stop init] runs on {!with_workers} in slices of 1024
    indices per worker, polling the guard before each slice. A chunk of
    a slice starts from [empty] and calls [visit w st i acc] at each
    index [i] in order, [st] being the worker's stepper {!load}ed with
    the state and [w] its [scratch]. Visits run on several domains at
    once: each must {!undo} its {!step}s and write only its own index's
    entries. After the join the chunk results fold in chunk order, the
    same sequence at every job count; the sweep ends with the domain, or
    when [stop] holds before a slice.
    @raise Region_overflow on [Whole_space] when the space exceeds a
    lazy or parallel engine's budget — use a reachability query instead.
    @raise Interrupted on a trip, with no snapshot and [states_seen] the
    index the slice would have started at. *)

val iter_reachable :
  t ->
  Guarded.Compile.program ->
  from:roots ->
  (Guarded.State.t -> unit) ->
  unit
(** Visit every state reachable from the roots, once each, in BFS order.
    The state is a shared buffer: copy it to retain it, and do not write
    it. @raise Region_overflow over budget. *)

val ball :
  Guarded.Env.t ->
  center:Guarded.State.t ->
  radius:int ->
  Guarded.State.t list
(** All in-domain states differing from [center] in at most [radius]
    variables — the paper's bounded-fault spans, useful as lazy seeds. *)
