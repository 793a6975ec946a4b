(** Adversarial daemon search: the exact worst-case recovery time over a
    fault span.

    Storm simulation ({!Sim.Storm}) samples recovery times under a random
    daemon — its quantiles are {e observations}, not guarantees. This
    module computes the {e sound upper bound}: treating every scheduling
    choice as adversarial, the worst number of program (∪ environment)
    steps any state of [T] can take to reach [S], by a backward attractor
    (rank) computation over the span. A finite bound dominates every
    schedule a storm can sample; an unbounded verdict comes with a
    witness the daemon can exploit forever. *)

type witness =
  | Deadlock of Guarded.State.t
      (** A span state outside [S] with no enabled action. *)
  | Cycle of Guarded.State.t list
      (** The daemon can cycle outside [S] forever; a sample (at most 10,
          span order) of the states never ranked. *)
  | Escape of Guarded.State.t
      (** A step from this state leaves [T] without entering [S] — the
          span does not cover the supplied program/environment (a closure
          violation; certification would also fail). *)

type verdict = Bounded of int | Unbounded of witness

type result = {
  verdict : verdict;
  span_states : int;  (** [|T|] *)
  outside : int;  (** states of [T \ S] *)
  ranked : int;  (** states that received a finite rank *)
  waves : int;  (** backward waves from [S] *)
}

val worst_case :
  Explore.Engine.t ->
  program:Guarded.Compile.program ->
  ?envs:Guarded.Compile.program ->
  span:Explore.Faultspan.t ->
  invariant:(Guarded.State.t -> bool) ->
  unit ->
  result
(** [worst_case engine ~program ~span ~invariant ()] ranks every state of
    the span: [rank s = 0] for [s ∈ S], otherwise [1 + max] over the
    ranks of its program (∪ [envs]) successors, computed backward from
    [S] in Kahn waves. [Bounded w] means every schedule from every span
    state reaches [S] within [w] steps, and some adversarial schedule
    needs exactly [w] — the same quantity as the convergence check's
    exact worst case, derived independently from the span and compiled
    actions. [Unbounded] carries a {!witness}.

    Successor expansion is one {!Explore.Engine.sweep} over the span:
    on the parallel backend's workers, and polling the engine's guard
    before every slice. Results are bit-identical at any job count —
    the rank fixpoint is order-independent.

    @raise Explore.Engine.Interrupted when the engine's guard trips
    during the expansion.

    Faults are deliberately absent: the daemon schedules program and
    environment steps only, matching the nonmasking-tolerance obligation
    (recovery once faults stop; environment never stops). *)

val pp_verdict : Guarded.Env.t -> Format.formatter -> verdict -> unit
