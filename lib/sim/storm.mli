(** Fault-storm experiments: faults that keep occurring {e during} recovery.

    A trial's [prepare] injects one fault burst; at [rate = 0.] the trial
    measures the fault-free recovery that follows — the nonmasking-tolerance
    regime where faults occur finitely often, and what [simulate] reports. A
    storm at [rate > 0.] flips a coin every step: with probability [rate] the
    fault injects again, otherwise the daemon executes a program step. This probes the recurring-fault regime that
    [Core.Certify.tolerance]'s recurrence check analyses exhaustively — a
    protocol whose combined program ∪ fault graph has a fault-sustained
    livelock shows up here as stabilization times that grow (and trials that
    fail outright) as [rate] increases. *)

type result = {
  steps : int array;  (** Step counts of the converged trials. *)
  failures : int;
      (** Trials that exhausted [max_steps] without the invariant holding
          (or deadlocked with no fault left to unstick them), including
          trials abandoned by the watchdog. *)
  fault_counts : int array;
      (** Faults injected per trial, converged or not — [trials] entries
          ([0] for skipped trials). *)
  summary : Stats.summary option;  (** Over [steps]; [None] if empty. *)
  skipped : int;
      (** Trials never run because the global [guard] had already tripped
          — the run's verdict is partial (the CLI reports exit 5). *)
  timeouts : int;
      (** Trials abandoned after the watchdog expired on every attempt. *)
  retries : int;
      (** Total replacement attempts launched after a timed-out attempt. *)
}

(** {1 Option ranges}

    The ranges a storm request must respect, shared by the CLI's flags
    and a serve request's options. Each returns the value, or the
    reason it is out of range (["must be non-negative"], ...), which the
    caller prefixes with the option's name. *)

val check_trials : int -> (int, string) Stdlib.result
(** [trials >= 0]. *)

val check_rate : float -> (float, string) Stdlib.result
(** [0 <= rate <= 1]; NaN is rejected. *)

val check_max_steps : int -> (int, string) Stdlib.result
(** [max_steps > 0]. *)

val trials :
  ?max_steps:int ->
  ?fault_budget:int ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?obs:Obs.Ctx.t ->
  ?guard:Rt.Guard.t ->
  ?watchdog:Rt.Watchdog.t ->
  rng:Prng.t ->
  trials:int ->
  daemon:(Prng.t -> Daemon.t) ->
  prepare:(Prng.t -> Guarded.State.t) ->
  stop:(Guarded.State.t -> bool) ->
  fault:Fault.t ->
  rate:float ->
  Guarded.Compile.program ->
  result
(** Run [trials] independent storms (each trial gets its own [Prng.split] of
    [rng], and builds its daemon from it after [prepare]). A trial starts from
    [prepare] and iterates until [stop] holds or [max_steps] (default
    [100_000]) iterations elapse. Each iteration is either a fault injection
    (probability [rate], while under [fault_budget] — default unlimited) or
    one daemon-chosen program step; every iteration counts toward the step
    budget, so a trial stuck in a program-terminal state waiting on the coin
    still terminates. [rate = 0.] degenerates to fault-free convergence
    trials: no coin is drawn and [fault] never fires.

    [jobs] (default [1]) spreads the trials over that many worker domains;
    [pool] (default none) borrows a caller-owned shared {!Par.Pool} instead
    of spawning a transient one (and supplies the default [jobs]).
    Every trial's PRNG stream is split off [rng] up front in trial order
    and each trial runs on its own state buffers, so the [result] — step counts,
    failures, fault counts, quantiles — is bit-identical at any job count.
    When [jobs > 1], [prepare], [daemon], [stop], and [fault] must be safe
    to call from concurrent domains (the built-in faults and daemons are:
    they only touch the trial's own state and stream).

    [obs] (default {!Obs.Ctx.disabled}) records storm metrics
    ([storm.trials]/[converged]/[failures]/[faults_injected]/
    [steps_total], histogram [storm.steps]), emits one [storm.trial]
    event per trial — post-hoc, in trial-index order, so the trace is
    byte-stable at any job count — plus a closing [storm.done], and
    drives progress ticks as trials complete.

    [guard] (default {!Rt.Guard.inert}) is polled before each trial
    starts: once the run's deadline passes or cancellation is requested,
    the remaining trials are {e skipped} (counted in [skipped], their
    [storm.trial] events annotated [skipped=true]) instead of the whole
    run being thrown away — graceful degradation to a partial sample.
    [watchdog] (default none) puts a wall-clock timeout on every
    individual trial: a trial that exceeds [timeout_s] is abandoned and
    retried up to [retries] times, attempt [k] replaying on a stream
    derived from the trial's own base stream ([Prng.copy], then [k]
    discarded splits — attempt 0 is bit-identical to the watchdog-free
    trial, and every retry is reproducible from the same root seed).
    A trial whose every attempt times out counts as a failure and a
    [timeouts] entry. Watchdog and guard trips depend on wall-clock
    timing, so runs that trip are {e reproducibly seeded} but not
    bit-deterministic; undisturbed runs remain bit-identical at any job
    count.
    @raise Invalid_argument when [jobs <= 0]. *)

val pp_result : Format.formatter -> result -> unit
(** Step summary plus failure count and mean faults injected per trial.
    The quantile columns are prefixed [observed]: they are clamped at
    whatever the sampled trials happened to see under one random daemon,
    never a guarantee. *)

val pp_result_with_bound :
  bound:int option -> Format.formatter -> result -> unit
(** {!pp_result} plus a [bound=] column carrying the {e sound} worst-case
    recovery bound the caller computed (e.g. [Tol.Adversary.worst_case]
    over the same span): [bound=N] for a finite bound, [bound=unbounded]
    when no finite bound exists ([None]). Keeping [observed] and [bound]
    as separately labeled columns is what stops a storm report from
    being misread as a recovery-time guarantee. *)
