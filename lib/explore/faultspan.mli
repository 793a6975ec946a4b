(** Computed fault spans (Section 3 of the paper).

    The fault span [T] of a fault class [F] for a program [p] with invariant
    [S] is the closure of [S] under [p ∪ F]: every state a computation can
    be in while faults of the class keep occurring. The paper supplies [T]
    by hand (for stabilizing programs, [T = true]); here it is {e computed},
    so nonmasking [T]-tolerance can be certified exactly — including the
    bounded-fault regime where at most [budget] fault occurrences are
    interleaved with arbitrarily many program steps. The bounded span
    generalizes {!Engine.ball}, which only perturbs the initial state:
    [compute ~budget:k] follows program steps {e between} the perturbations.

    The search is a layered frontier BFS keyed by {!Engine.encode_key}
    (the dense mixed-radix code, or the bit-packed code under an engine's
    [packed_keys]), with discovery indices held in the engine's flat
    visited-table representation ({!Engine.make_visited}) and every
    frontier a run of the discovered-key vector — the same machinery
    for every engine backend; eager
    and lazy engines differ only in their exploration budget
    ({!Engine.max_states}), so verdicts agree whenever neither overflows.
    Layer [d] holds the states whose cheapest derivation from the roots
    uses exactly [d] fault steps; program successors stay in their layer,
    fault successors go to the next.

    Keys are discovered in nondecreasing depth order, so the budget-[b]
    span is a prefix of every larger one: a {!search} is started once
    and {!extend}ed budget by budget, each span a view of the first
    keys (same iter order, counts and histogram as a fresh
    {!compute}). Depths come from the layer boundaries. *)

type t
(** A span: a prefix view of its {!search}. Later extensions of the
    search leave it unchanged. *)

type search
(** One layered search, extended in place. *)

val start :
  Engine.t ->
  ?program:Guarded.Compile.program ->
  ?envs:Guarded.Compile.program ->
  faults:Guarded.Compile.program ->
  from:Engine.roots ->
  unit ->
  search
(** Seed a search with its roots, expanding nothing yet; the arguments
    mean what they mean for {!compute}.
    @raise Engine.Region_overflow when a root sweep exceeds the engine's
    state budget. *)

val extend : search -> ?budget:int -> unit -> t
(** [extend s ~budget ()] runs the search until layer [budget] is
    closed (omitted: until no fault step reaches a new state; a
    negative budget allows no fault step, like [0]) and
    returns the span at that budget — equal in every observable to
    [compute ~budget] over the same arguments. Budgets may come in any
    order; one the search already passed returns its prefix without
    work. On an interrupt, the snapshot is the one [compute ~budget]
    would have written at the same point, so [compute ~budget ~resume]
    finishes it. A search whose extension raised cannot be extended
    again.
    @raise Engine.Region_overflow when the span exceeds the engine's
    state budget.
    @raise Engine.Interrupted when the engine's guard trips.
    @raise Invalid_argument when an earlier extension of [s] raised. *)

val compute :
  Engine.t ->
  ?program:Guarded.Compile.program ->
  ?envs:Guarded.Compile.program ->
  ?budget:int ->
  ?resume:Rt.Snapshot.t ->
  faults:Guarded.Compile.program ->
  from:Engine.roots ->
  unit ->
  t
(** Closure of [from] under the fault actions and (when given) the program
    actions. [budget] caps the number of fault steps along any derivation;
    omitted, faults may occur unboundedly (the paper's recurring-fault
    span). [compute] is {!start} (or a restore) followed by one
    {!extend}. [envs] are environment actions (Roohitavaf–Kulkarni): they
    extend the span exactly like program steps — 0-cost closure edges that
    never consume [budget] — and are folded into the span's config hash,
    so checkpoints cannot cross an environment change. [All]/[Pred] roots
    sweep the space, so they require it to fit the engine's budget;
    [Seeds] works on spaces of any size.

    The search polls the engine's guard ({!Engine.guard}) at chunk/wave
    boundaries; a trip raises {!Engine.Interrupted}, carrying (under
    [~snapshots:true]) a ["span"]-kind checkpoint of the layered
    wavefront. [resume] continues from such a checkpoint over the same
    configuration (same actions, budget, codec, salt) to a span
    bit-identical to the uninterrupted run, on either the sequential or
    parallel backend at any job count — the root set is taken from the
    snapshot, so [from] is ignored.
    @raise Engine.Region_overflow when the span (or a root sweep) exceeds
    the engine's state budget.
    @raise Engine.Interrupted when the engine's guard trips.
    @raise Rt.Snapshot.Corrupt when [resume] has the wrong kind or a
    mismatched config hash. *)

val count : t -> int
(** Number of states in the span. *)

val root_count : t -> int
(** Number of root states the search was seeded with. *)

val max_depth : t -> int
(** Largest fault layer reached: the most fault steps any member of the
    span actually needs. [0] when the span equals the program-closure of
    the roots. *)

val depth_histogram : t -> int array
(** [h.(d)] is the number of states first reached with [d] fault steps;
    length [max_depth + 1]. *)

val mem : t -> Guarded.State.t -> bool
(** Span membership. States outside the variable domains are not members. *)

val mem_key : t -> int -> bool
(** Span membership of an engine key ({!Engine.encode_key}, or a
    {!Engine.step} result). *)

val depth : t -> Guarded.State.t -> int option
(** Fault layer of a member state; [None] for non-members. *)

val iter : t -> (Guarded.State.t -> unit) -> unit
(** Visit every member. The state is a shared buffer; copy it to retain. *)

val nth_key : t -> int -> int
(** Engine key of the [i]-th member {e in iter order} ([0 <= i < count]):
    [iter] visits exactly [decode(nth_key t 0), decode(nth_key t 1), …].
    Lets consumers scan the span by index — chunked, in parallel, without
    materializing the member states. *)

val index_key : t -> int -> int
(** The member index ({!nth_key} order) of an engine key, or [-1] for
    non-members: one visited-table probe. Safe to call from several
    domains at once while no extension of the span's search runs. *)

val decode_nth_into : t -> int -> Guarded.State.t -> unit
(** Decode the [i]-th member (iter order) into a caller buffer —
    allocation-free indexed access for streaming scans
    ({!Core.Certify}'s environment-closure check). *)

val states : t -> Guarded.State.t list
(** All members as fresh states — usable as [Engine.Seeds] roots for
    convergence queries over the span. *)
