(** Differential and metamorphic oracles over a generated model.

    Every oracle is a property that must hold of {e any} well-formed
    guarded program, so a violation is a bug in the library (or, during
    harness self-tests, the simulated {!config.defect}):

    - [region-agree]: all three {!Explore.Engine} backends produce the
      same reachable region — member keys in node order, edges (by state
      key and action index) in CSR order, terminals, and explored count
      — from both the legitimate-seed and whole-space root sets;
    - [verdict-agree]: {!Explore.Convergence.check_unfair} returns the
      same verdict on every backend — stats on success, and on failure
      the same deadlock state or the same livelock cycle;
    - [span-agree]: {!Explore.Faultspan} computes identical spans (count,
      roots, depth profile) on every backend, at budgets 0, the
      certification budget, and unbounded;
    - [span-monotone]: the span is monotone in the fault budget, and the
      budget-0 span equals the program-only closure of the roots;
    - [cert-agree]: {!Nonmask.Certify.tolerance} produces the same
      certificate (overall verdict, and each check's outcome and detail)
      on every backend;
    - [reorder-stable]: the certificate verdict and the invariant's
      closure verdict are unchanged when the program's actions are
      re-ordered;
    - [storm-consistent]: when the certificate is positive and the
      fault-free convergence verdict is exact (acyclic region), a
      recurring-fault storm under the certified budget converges within
      the theorem-implied step bound — {!Sim.Storm} can never contradict
      a positive certificate;
    - [adversary-sound]: when the certificate is positive,
      {!Tol.Adversary.worst_case} over the budgeted span is identical on
      the eager and lazy engines, its verdict coincides exactly with the
      unfair convergence check over the same span ([Bounded w] iff the
      fault-free region is acyclic with worst case [w], and then the
      bounds are equal), and when bounded the adversary-implied composite
      bound dominates every storm trial — the worst-case daemon really is
      worst-case.

    All randomness (storm streams, the reordering permutation) is drawn
    from the caller's [rng] up front, so a run is a pure function of the
    model and the stream. *)

type failure = { oracle : string; detail : string }

type config = {
  cert_budget : int;  (** fault budget for spans/certificates (default 2) *)
  storm_trials : int;  (** storm trials per model (default 20) *)
  storm_rate : float;  (** per-step fault probability (default 0.2) *)
  defect : Explore.Engine.backend option;
      (** simulate a defect in this backend (off-by-one explored/span
          counts) — used by harness self-tests and shrinker tests *)
}

val default : config

val run :
  ?config:config ->
  ?guard:Rt.Guard.t ->
  rng:Prng.t ->
  Spec.model ->
  failure option
(** First violation, in the order of the list above followed by
    [storage-agree] (the region query again on forced probed storage)
    and [emit-roundtrip] (the model through the [.nm] surface form and
    back), or [None]. This is the
    shrinker's predicate: it short-circuits, so minimization stays fast.

    [guard] (default {!Rt.Guard.inert}) is threaded into every engine
    the oracles build, so a watchdog deadline or cancellation request
    interrupts a pathological model's exploration mid-oracle —
    {!Explore.Engine.Interrupted} (or [Rt.Cancel.Cancelled] from the
    other guarded loops) escapes to the caller; it is {e not} converted
    into an oracle failure. *)
