(** Fault models: RNG injectors with first-class action semantics.

    Section 3 of the paper defines every fault class as a set of {e actions}
    that perturb program state; the fault span [T] is the set of states those
    actions can produce. A {!t} therefore carries two equivalent views of the
    same fault class:

    - [inject]: the RNG form, mutating a state in place — what the simulator
      and the storm harness fire during runs;
    - [actions]/[burst]: the action-set form — ordinary guarded actions (one
      per atomic perturbation) plus the maximum number of those actions a
      single occurrence of the fault may perform. This form is what the
      exhaustive analyses consume: [Explore.Faultspan] computes the fault
      span [T] as a closure under these actions, and [Nonmask.Certify.
      tolerance] certifies nonmasking [T]-tolerance against them.

    Both views keep every variable inside its domain (the domains {e define}
    the state space — a value outside every domain is not a state of the
    program). The two views produce the same span: e.g. [corrupt ~k]'s RNG
    form changes at most [k] variables, and its action form is the
    single-variable reassignments with [burst = k], whose [k]-step closure
    is exactly the Hamming ball of radius [k]. For [compose] the action form
    over-approximates (any interleaving of the parts, not their fixed
    order), which is sound for tolerance certification: a larger [T] only
    strengthens the certificate's obligations. *)

type t = {
  name : string;
  inject : Prng.t -> Guarded.State.t -> unit;
  actions : Guarded.Action.t list Lazy.t;
      (** One guarded action per atomic perturbation, lazily built. Action
          names carry the ["fault:"] prefix so they never clash with program
          actions when combined via {!Guarded.Program.add_actions}. *)
  burst : int;
      (** Maximum number of [actions] steps a single occurrence (one
          [inject] call) of this fault can perform. *)
}

val actions : t -> Guarded.Action.t list
(** Force and return the action-set view. *)

val burst : t -> int

val corrupt : Guarded.Env.t -> k:int -> t
(** Pick [min k var_count] distinct variables; set each to a uniformly
    random value of its domain (possibly the current one). Action form: for
    every variable [v] and every domain value [x ≠ v]'s current value, the
    action [fault:v:=x]; [burst = min k var_count]. *)

val corrupt_vars : Guarded.Var.t list -> k:int -> t
(** Same, but drawing only from the given variables — e.g. the variables of
    [k] chosen processes. *)

val scramble : Guarded.Env.t -> t
(** Replace the whole state by a uniformly random one: the harshest fault
    the paper's model admits, and the standard initial condition for
    stabilization experiments. Action form: all single-variable
    reassignments with [burst = var_count], whose closure is the whole
    space — the stabilizing fault span [T = true]. *)

val reset_vars : (Guarded.Var.t * int) list -> t
(** Deterministically force the given variables to the given values —
    models a crash-and-restart that reinitializes part of a process.
    Action form: a single simultaneous assignment, guarded to exclude the
    no-op self-loop; [burst = 1]. *)

val compose : string -> t list -> t
(** Apply each fault in order. Action form: the union of the parts' actions
    (deduplicated by name) with [burst] the sum of the parts' bursts — an
    over-approximation of the ordered application, hence sound for span
    computation. *)

val of_actions : string -> burst:int -> Guarded.Action.t list -> t
(** A fault class given directly by its actions. The derived RNG form
    performs up to [burst] steps, each executing a uniformly chosen enabled
    action (stopping early when none is enabled). *)

(** {1 Fault classes by name}

    The CLI's [--faults SPEC] flag and a serve request's [faults] option
    name fault classes in one grammar and resolve them by one rule. *)

val spec_syntax : string
(** ["corrupt | corrupt:k=N | scramble"], for error messages. *)

val of_spec : Guarded.Env.t -> string -> t option
(** [corrupt] is [corrupt ~k:1], [corrupt:k=N] is [corrupt ~k:N] for
    [N > 0], [scramble] is {!scramble}; [None] for anything else. *)

val resolve :
  Guarded.Env.t ->
  spec:string option ->
  declared:Guarded.Action.t list ->
  (t option, string) result
(** The fault class a request names: [spec] wins; without it, a model's
    [declared] fault actions, as {!of_actions} ["declared faults"] with
    [burst = 1]; without those, [None]. [Error spec] when [spec] is not
    in the {!of_spec} grammar. *)

val resolve_or_corrupt :
  Guarded.Env.t ->
  spec:string option ->
  declared:Guarded.Action.t list ->
  (t, string) result
(** {!resolve}, falling back to [corrupt ~k:1] when the request names no
    fault class — the default of tolerance sweeps and storms. *)

val pp : Format.formatter -> t -> unit
