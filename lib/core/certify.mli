(** Validation certificates.

    A theorem validator discharges a list of obligations — closure of each
    constraint under each closure action, establishment checks, graph
    shapes, orderings, layer conditions — each exhaustively over an
    enumerated state space. The certificate records every obligation with
    its outcome, so a failed validation pinpoints the offending action,
    constraint and counterexample state. *)

type check = {
  label : string;  (** What was checked, human-readable. *)
  ok : bool;
  detail : string option;  (** Counterexample rendering when [not ok]. *)
}

type tolerance_summary = {
  span_states : int;  (** [|T|] *)
  span_roots : int;
  span_max_depth : int;  (** deepest fault layer actually reached *)
  convergence_worst : int option;
      (** exact worst-case recovery steps when the fault-free region is
          acyclic; [None] when convergence holds only under weak
          fairness or failed *)
}
(** Machine-readable digest of a {!tolerance} certification, for
    consumers (budget sweeps, reports) that would otherwise re-parse
    check labels. *)

type t = {
  theorem : string;  (** "Theorem 1" / "Theorem 2" / "Theorem 3". *)
  spec_name : string;
  shapes : (string * Dgraph.Classify.shape) list;
      (** Graph shape per layer (a single entry for Theorems 1 and 2). *)
  checks : check list;
  summary : tolerance_summary option;
      (** Present on {!tolerance} certificates; [None] for the theorem
          validators. *)
}

val ok : t -> bool
(** All checks passed. *)

val failures : t -> check list

val check_pass : string -> check
val check_fail : string -> detail:string -> check

val check_info : string -> detail:string -> check
(** A passing check that still carries a rendered witness — e.g. the
    recurring-fault livelock cycle of a {!tolerance} certificate, which
    does not invalidate nonmasking tolerance but must be shown. *)

val programs :
  Guarded.Env.t ->
  program:Guarded.Program.t ->
  faults:Guarded.Action.t list ->
  envs:Guarded.Action.t list ->
  Guarded.Compile.program
  * Guarded.Compile.program
  * Guarded.Compile.program option
(** The compiled program, fault actions (["<program>:faults"]) and
    environment actions (["<program>:envs"], [None] when none) that
    {!tolerance} runs on; a budget sweep's fault-span search uses the
    same three. *)

val tolerance :
  engine:Explore.Engine.t ->
  program:Guarded.Program.t ->
  faults:Guarded.Action.t list ->
  ?envs:Guarded.Action.t list ->
  invariant:(Guarded.State.t -> bool) ->
  ?from:Explore.Engine.roots ->
  ?budget:int ->
  ?resume:Rt.Snapshot.t ->
  ?span:Explore.Faultspan.t ->
  ?require_recurrence_resilience:bool ->
  name:string ->
  unit ->
  t
(** Certify nonmasking [T]-tolerance (Section 3 of the paper) with a
    {e computed} fault span. The fault class is given as guarded actions
    (see [Sim.Fault.actions]); [T] is computed by {!Explore.Faultspan} as
    the closure of [from] (default: every invariant state) under program
    and fault actions, with at most [budget] fault steps per derivation
    ([None] = the unbounded recurring-fault span). The certificate
    discharges, exhaustively over the computed span:

    - {b span}: [T ⊇ S] with size and fault-depth accounting;
    - {b closure}: every program action (and, when unbudgeted, every fault
      action) maps [T] into [T] — re-verified independently of the span
      construction;
    - {b convergence}: every fault-free computation from [T] reaches [S]
      (the exact unfair check, falling back to the weak-fairness SCC
      criterion);
    - {b nonmasking tolerance}: the combination — faults occurring finitely
      often cannot prevent recovery;
    - {b recurrence}: a livelock detector over the combined program ∪ fault
      transition graph. A cycle outside [S] that contains a fault edge means
      recurring faults can perpetually disrupt recovery; it is rendered in
      the certificate as a concrete counterexample but — faults being
      environment actions, not program defects — reported as informational
      unless [require_recurrence_resilience] is set (default [false]).

    [envs] are environment actions (Roohitavaf–Kulkarni): uncontrollable
    like faults, but free and recurrent — they extend the span like
    program steps (never consuming [budget]), interleave with recovery
    (convergence and recurrence run over program ∪ environment), and may
    never be repaired through. Because the environment can fire at any
    time, a non-empty [envs] adds an {b environment closure} obligation:
    every environment action must map [S] into [S] — an environment step
    that breaks legitimacy fails the certificate outright.

    [span] supplies a precomputed fault span for {e exactly} this
    configuration (same engine, program, [envs], fault actions, [budget],
    and roots) and skips the span search — budget sweeps use it to
    certify without re-exploring. The caller is responsible for the
    match; a mismatched span yields a certificate about the wrong [T].

    The certification pipeline polls the engine's guard throughout: the
    span search at its chunk/wave boundaries, the closure sweep of the
    span (one {!Explore.Engine.sweep}, which also discharges environment
    closure) before every slice, the convergence and recurrence phases
    through their internal region searches. A trip raises
    {!Explore.Engine.Interrupted}; only an interruption {e during the
    span search} carries a resumable
    snapshot ([resume] feeds it back to {!Explore.Faultspan.compute}) —
    the later phases re-derive from the span, so their interrupts carry
    [None] and a resumed run repeats them.

    On the parallel backend every phase borrows one pool
    ({!Explore.Engine.sharing_pool}).

    @raise Explore.Engine.Region_overflow when a lazy engine's budget is
    exceeded while computing the span (the recurring-fault analysis instead
    degrades to an informational "skipped" check on overflow).
    @raise Explore.Engine.Interrupted when the engine's guard trips. *)

val pp : Format.formatter -> t -> unit
(** Summary plus any failing checks in full. *)

val pp_full : Format.formatter -> t -> unit
(** Every check, passing or not; details (counterexamples, witnesses) are
    rendered whenever present. *)
