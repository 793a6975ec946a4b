(** Pluggable exploration engines.

    The convergence and closure checkers only ever need the states
    {e reachable} from a set of roots; how those states are found is a
    strategy choice:

    - {b Eager} (the classical backend): enumerate the whole mixed-radix
      state space once, build the complete transition relation in CSR form
      ({!Tsys}), and answer every query by array indexing. Fast per query,
      but memory and build time are O(states × actions) regardless of how
      small the interesting region is, and the space must fit under the
      [max_states] cap (2M by default).

    - {b Lazy} (on-the-fly frontier search): generate successors on demand
      by stepping the compiled actions in place on a reusable state buffer
      ({!stepper}), keeping a hashed visited set keyed by {!Space.encode}. Only discovered states
      cost anything, so instances far beyond the eager cap get verdicts as
      long as the {e reachable region} from the given roots stays under the
      exploration budget.

    - {b Parallel} (level-synchronized multicore frontier search): the
      lazy search split over a {!Par.Pool} of worker domains, on the
      same visited table ({!make_visited}: Direct or Probed, by the same
      {!storage} rule). Each BFS level runs in two phases over bounded
      blocks of the frontier ({!Par.Chunked}). In phase A the workers
      expand frontier states and probe the table, which they only read,
      so no probe takes a lock. In phase B, after the join, the caller
      alone commits the discoveries, in frontier order × action order —
      exactly the lazy backend's FIFO discovery order — so the resulting
      {!region} (node numbering, edge order, explored count, even the
      overflow point) and the visited-table bytes are bit-identical to
      [Lazy] at any job count.

    All backends produce the same {!region} record, so every analysis
    (deadlock, cycle, SCC escape, closure) is written once against this
    interface. An equivalence test suite asserts identical verdicts. *)

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
  ?packed_keys:bool ->
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
    the lazy/parallel backends; see {!storage}. [packed_keys] (default
    [false]) keys states by their bit-packed {!Codec} code instead of
    the dense mixed-radix id: decode becomes shift/mask instead of
    division, at the cost of forcing [Probed] storage and making raw
    [node_key] values incomparable with dense-keyed engines (use
    {!decode_key}). [obs] (default {!Obs.Ctx.disabled}) receives the
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
    @raise Codec.Overflow when [packed_keys] and the packed layout
    exceeds one word.
    @raise Invalid_argument when [jobs <= 0], when [packed_keys] is
    combined with the eager backend or [Direct] storage, or when
    [Direct] is forced over a dense range above [2^30]. *)

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

val obs : t -> Obs.Ctx.t
(** The engine's observability context. Analyses layered on the engine
    ({!Faultspan}, certification) record into the same context, so one
    [--metrics-out] snapshot covers the whole pipeline. *)

val guard : t -> Rt.Guard.t
(** The engine's cancellation/budget polling point. Analyses layered on
    the engine ({!Faultspan}, certification) poll the same guard, so one
    budget governs the whole pipeline. *)

val wants_snapshots : t -> bool
(** Whether interrupts should carry resumable snapshots (see
    {!create}). *)

val config_hash : t -> parts:string list -> string
(** Fingerprint of this engine's result-affecting configuration (codec
    layout, key representation, budget, [salt]) combined with
    caller-supplied [parts] such as action names. Backend and job count
    are excluded: checkpoints resume across both. *)

val codec : t -> Codec.t
(** The bit-layout codec sized from the engine's environment. *)

val packed_keys : t -> bool
(** Whether this engine keys states by packed codes (see {!create}). *)

val storage_name : t -> string
(** Resolved storage representation: ["csr"] (eager), ["direct"], or
    ["probed"]. *)

val storage_bytes : t -> int
(** Flat-storage footprint of the most recent lazy/parallel search:
    visited-table bytes plus the frontier's high-water bytes (the lazy
    queue; the parallel wave vectors and phase-A output buffers).
    [0] before any search and for the eager backend (whose CSR cost is
    reported by {!Tsys}). Divide by [region.explored] for the
    bytes-per-state figure the E19 experiment reports. *)

val encode_key : t -> Guarded.State.t -> int
(** The key this engine files a state under — [Space.encode] for dense
    engines, [Codec.encode_packed] under [packed_keys]. *)

val decode_key : t -> int -> Guarded.State.t
(** Decode an engine key (as found in [node_key]) to a fresh state. *)

val decode_key_into : t -> int -> Guarded.State.t -> unit
(** Allocation-free {!decode_key} into a caller buffer. *)

(** {2 Successor stepping}

    A stepper fires actions in place on a decoded state and derives each
    successor's key from the slots the action writes ({!Guarded.Compile}'s
    [slots] and [rhs]): [key + Σ (new - old) · place_i], with the place
    values of {!Codec.places} for the engine's key layout. Every keyed
    successor loop (the lazy and parallel searches, {!Faultspan}, the
    certification scans) runs on it; the eager {!Tsys} build and the
    simulators keep [apply_into], so the fuzz oracles compare the two
    paths. *)

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

(** Partial progress handed back when a search stops cooperatively —
    the guard's budget tripped or cancellation was requested. When the
    engine was created with [~snapshots:true], [snapshot] holds a
    resumable checkpoint of the wavefront (lazy/parallel region and
    span searches only; the eager CSR build and streaming scans carry
    [None]). *)
type interrupt = {
  reason : Rt.Cancel.reason;
  states_seen : int;
  frontier_size : int;
  snapshot : Rt.Snapshot.t option;
}

exception Interrupted of interrupt

(** Root sets for reachability queries. [All] and [Pred] enumerate the
    space (so they require it to fit the budget); [Seeds] works on spaces
    of any size. *)
type roots =
  | All
  | Pred of (Guarded.State.t -> bool)
  | Seeds of Guarded.State.t list

(** The region of interest for convergence checking: the subgraph induced
    on the reachable states where the target predicate does {e not} hold.
    Nodes are dense ints; [node_key.(v)] is the state's engine key — the
    mixed-radix code by default, the bit-packed code under [packed_keys]
    (decode with {!decode_key}). [terminal.(v)] says the state has no
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
    @raise Interrupted when the engine's guard trips.
    @raise Rt.Snapshot.Corrupt when [resume] has the wrong kind or a
    mismatched config hash, or on the eager backend. *)

val state_of_node : t -> region -> int -> Guarded.State.t
(** Decode a region node's state (fresh copy). *)

val iter_states : t -> (Guarded.State.t -> unit) -> unit
(** Visit every in-domain state (full sweep). The state is a shared
    buffer; copy it to retain it. @raise Region_overflow when the space
    exceeds a lazy engine's budget — use a reachability query instead. *)

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
