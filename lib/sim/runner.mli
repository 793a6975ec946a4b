(** Executing programs under a daemon.

    Runs a compiled program step by step: at each step the daemon chooses
    among the enabled actions; execution stops when the [stop] predicate
    holds, when no action is enabled (a maximal finite computation), or when
    the step budget runs out. *)

type stop_reason =
  | Target_reached  (** [stop] held. *)
  | Terminal  (** No enabled action and [stop] did not hold. *)
  | Budget_exhausted  (** [max_steps] steps without reaching [stop]. *)

type outcome = {
  reason : stop_reason;
  steps : int;  (** Daemon invocations performed. *)
  final : Guarded.State.t;
  trace : Trace.t option;
}

val run :
  ?record_trace:bool ->
  ?max_steps:int ->
  daemon:Daemon.t ->
  init:Guarded.State.t ->
  stop:(Guarded.State.t -> bool) ->
  Guarded.Compile.program ->
  outcome
(** [max_steps] defaults to [100_000]. [init] is not mutated. [stop] is
    checked before every step, so an [init] that satisfies it yields 0
    steps. *)

val step_chosen :
  Guarded.Compile.program ->
  int list ->
  state:Guarded.State.t ->
  scratch:Guarded.State.t ->
  unit
(** [step_chosen cp chosen ~state ~scratch] executes the daemon-chosen
    actions (indices into [cp]) simultaneously: each is evaluated on the
    same pre-state [state], which then receives the variables each one
    writes. [scratch] is a buffer over the same environment, clobbered.
    {!run} and {!Storm} step through here. *)

val converged : outcome -> bool
(** [reason = Target_reached]. *)
