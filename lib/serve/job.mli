(** One serve job: request validation, content-addressed cache key, and
    the analysis runners both front ends share.

    {!prepare} is the reader-thread half — cheap and bounded (option
    validation, one compile of the size-capped model text, a SHA-256) —
    so cache probes and rejections never occupy the executor. {!run} is
    the executor half, one job at a time over the server's shared
    {!Par.Pool}: the op's runner, then its JSON.

    The runners ({!check}, {!certify}, {!tolerance}, {!storm},
    {!fuzz}) set an analysis up and sort every way it can stop into one
    typed {!answer}; the CLI subcommands call the same runners and
    render the same answer as text, so {!exit_code} is the one
    definition of both front ends' exit codes. *)

type options = {
  engine : Explore.Engine.backend;
      (** default [Lazy] — serves arbitrary models without the eager
          size cap *)
  max_states : int;  (** default [2_000_000] *)
  ball : int;  (** fault-ball radius; negative = from every state *)
  seed : int;  (** default [42] *)
  trials : int;  (** storm trials; default [500] *)
  rate : float;  (** storm fault rate; default [0.05] *)
  max_steps : int;  (** storm step budget per trial; default [100_000] *)
  faults : string option;  (** [corrupt | corrupt:k=N | scramble] *)
  fault_budget : int option;
  budget_max : int;
      (** tolerance sweep range, budgets [0..budget_max]; default [3] *)
  adversary : bool;
      (** tolerance: also compute the adversary bound; default [false] *)
  count : int;  (** fuzz trials; default [200] *)
  max_vars : int;  (** fuzz model size cap; default [4] *)
  params : (string * int) list;  (** .nm parameter overrides *)
  deadline : float option;  (** resource knob — never in the cache key *)
  budget_states : int option;  (** resource knob *)
  budget_bytes : int option;  (** resource knob *)
}

val defaults : options

val backends : (string * Explore.Engine.backend) list
(** The [engine] option's values, by name. *)

val backend_name : Explore.Engine.backend -> string

(** Range rules shared by both front ends. [Error] carries the reason,
    for each front end to prefix with its spelling of the option. *)

val check_max_states : int -> (int, string) result
(** [max_states] (the CLI's [--max-states]): positive. *)

val check_budget_max : int -> (int, string) result
(** [budget_max] (the CLI's [--budget-max], and each [--budgets]
    entry): non-negative. *)

val check_count : int -> (int, string) result
(** [count] (fuzz's [--count]): non-negative. *)

val check_max_vars : int -> (int, string) result
(** [max_vars] (fuzz's [--max-vars]): at least [2]. *)

(** A model as the runners see it: the CLI builds one from a built-in
    instance or a .nm model, serve from the request's model. *)
type model = {
  name : string;
  env : Guarded.Env.t;
  program : Guarded.Program.t;
  invariant : Guarded.State.t -> bool;
  init : unit -> Guarded.State.t;
      (** a fresh legitimate state per call: the [ball] center and every
          storm trial's start, which the fault then corrupts *)
  faults : Guarded.Action.t list;
      (** declared fault actions: the default fault class *)
  envs : Guarded.Action.t list;
      (** declared environment actions, threaded into every certificate
          and sweep *)
}

val model_of_elab : Lang.Elab.t -> model

type prepared = {
  op : Proto.op;
  opts : options;
  model : model option;  (** [None] only for fuzz *)
  fault : Sim.Fault.t option;
      (** resolved fault class (certify/tolerance/storm): the [faults]
          option, else the model's declared faults, else [corrupt:k=1]
          (storm and tolerance only — certify requires one) *)
  model_digest : string;  (** canonical digest, params folded; ["-"] for
                              fuzz *)
  key : string;
      (** cache key: SHA-256 over op, model digest, and the op's
          semantic options — excluding [jobs] (bit-identical at any job
          count) and the resource knobs (a completed verdict is valid
          under any budget) *)
}

val prepare : Proto.request -> (prepared, Proto.error_code * string) result
(** Validate options, compile the model, resolve the fault class, and
    derive the cache key. Every rejection (unknown option, compile
    error, missing model, certify without a fault class) comes back as
    [Bad_request] with a located message — never an exception. *)

(** {2 Runners} *)

(** What a runner returns: the finished analysis, or why it stopped.
    Exceptions never escape a runner. *)
type 'a answer =
  | Holds of 'a  (** the verdict holds, or the sweep completed: exit 0 *)
  | Fails of 'a  (** a failed verdict: exit 2 *)
  | Counterexamples of 'a  (** fuzz kept a counterexample: exit 3 *)
  | Partial of 'a * Explore.Engine.interrupt
      (** a trial sweep stopped early; the trials it finished: exit 5 *)
  | Error of string  (** a usage or input error: exit 1 *)
  | Too_large of float  (** over the eager engine's cap: exit 3 *)
  | Unaddressable of { layout : string; bits : int; states : float }
      (** more states than the state encoding can address: exit 3 *)
  | Region_overflow of int
      (** lazy or parallel search over [max_states]: exit 4 *)
  | Interrupted of Explore.Engine.interrupt
      (** the guard tripped mid-search or mid-analysis: exit 5 *)

val exit_code : 'a answer -> int
(** The exit code both front ends report for an answer: 0 holds,
    1 error, 2 failed verdict, 3 too large or a fuzz counterexample,
    4 region overflow, 5 incomplete. *)

val catch : (unit -> 'a answer) -> 'a answer
(** Run an analysis, sorting the exceptions an engine run raises into
    the answer. The runners use it; so does the CLI's theorem
    certificate for built-in protocols. *)

(** Every runner (and {!engine}) runs over a caller's [pool] (serve) or
    a transient one of [jobs] workers (CLI), records into [obs] and
    polls [guard]. *)
type 'a runner =
  ?pool:Par.Pool.t -> ?jobs:int -> obs:Obs.Ctx.t -> guard:Rt.Guard.t -> 'a

val engine :
  (?snapshots:bool -> ?salt:string -> model -> options -> Explore.Engine.t)
  runner
(** The engine the options ask for ([engine], [max_states]). *)

val title : model -> Sim.Fault.t -> string
(** ["NAME under FAULT"]: the name of a certificate or a sweep. *)

type checked =
  string * (Explore.Convergence.stats, Explore.Convergence.failure) result

val check :
  (?snapshots:bool ->
  ?salt:string ->
  ?resume:Rt.Snapshot.t ->
  model ->
  options ->
  checked answer)
  runner
(** Convergence without fairness from every state, or from the states
    within [ball] faults of [init]: the engine's backend name and the
    verdict. [snapshots], [salt] and [resume] are the CLI's
    checkpoint/resume arguments. *)

val certify :
  (?snapshots:bool ->
  ?salt:string ->
  ?resume:Rt.Snapshot.t ->
  model ->
  Sim.Fault.t ->
  options ->
  Nonmask.Certify.t answer)
  runner
(** Nonmasking tolerance of the fault over the computed span, under the
    model's environment actions. The fault budget is [fault_budget]
    (negative: unbounded), by default the fault's burst. *)

val tolerance :
  (?budgets:int list ->
  ?on_point:(Tol.Sweep.point -> unit) ->
  model ->
  Sim.Fault.t ->
  options ->
  (string * Tol.Sweep.frontier) answer)
  runner
(** The frontier over [budgets] (default [0..budget_max]), with the
    adversary bound when [adversary]; [on_point] streams each point as
    it completes. A completed sweep [Holds], with the engine's backend
    name. *)

val storm :
  (?watchdog:Rt.Watchdog.t ->
  model ->
  Sim.Fault.t ->
  options ->
  Sim.Storm.result answer)
  runner
(** [trials] storms from [init] at [rate]; [Partial] when the guard
    stopped the sweep before every trial ran. *)

val fuzz :
  (?shrink:bool ->
  ?watchdog:Rt.Watchdog.t ->
  ?corpus_out:string ->
  ?corpus_all:bool ->
  options ->
  Gen.Fuzz.report answer)
  runner
(** [count] generated models from [seed]; [Counterexamples] outranks
    [Partial] (skipped or watchdog-abandoned trials). *)

(** {2 The JSON renderer} *)

type outcome = {
  exit_code : int;  (** {!exit_code} of the runner's answer *)
  cacheable : bool;
      (** complete deterministic outcomes only (exit 0/2/3/4) — an
          incomplete (exit-5) outcome is never cached, so a budget trip
          or drain can never poison the cache *)
  result : Obs.Json.t;  (** the reply's [result] object, byte-stable *)
  states_explored : int;  (** work accounting for the server metrics *)
}

val run :
  pool:Par.Pool.t -> obs:Obs.Ctx.t -> guard:Rt.Guard.t -> prepared -> outcome
(** Execute: the op's runner, then its answer as JSON. Never raises:
    engine overflows, guard trips, and cancellation map to the matching
    in-protocol outcome. *)
