(** Closure checking (Section 3 of the paper), and the one sweep that
    discharges every whole-space proof obligation.

    A state predicate [R] is closed in a program iff every action preserves
    [R]: from any state where the action is enabled and [R] holds,
    execution yields a state where [R] holds. The check sweeps every
    in-domain state, so a success is a proof for that instance and a
    failure carries a concrete counterexample step. Closure is one kind
    of {!obligation}; the theorem certificates, stairs and variant
    checks hand theirs to the same {!scan}. *)

type violation = {
  pre : Guarded.State.t;
  action : Guarded.Action.t;
  post : Guarded.State.t;
}

val pp_violation : Guarded.Env.t -> Format.formatter -> violation -> unit

(** A claim over every in-domain state [s]. *)
type obligation =
  | Implies of {
      hyp : Guarded.State.t -> bool;
      conc : Guarded.State.t -> bool;
    }  (** [hyp s ⟹ conc s] *)
  | Step of {
      pre : Guarded.State.t -> bool;
      action : Guarded.Compile.action;
      post : Guarded.State.t -> Guarded.State.t -> bool;
    }  (** [pre s ∧ enabled s ⟹ post s s'], [s'] the action's result *)

(** A failing state ({!Implies}) or step ({!Step}). *)
type witness = Counterexample of Guarded.State.t | Violation of violation

val scan : Engine.t -> obligation array -> witness option array
(** One ascending sweep ({!Engine.iter_states}) that decodes each state
    once and tests the obligations still open, in index order. Entry [i]
    is [None] when obligation [i] holds, else its {e first} witness in id
    order — the one a sweep of that obligation alone finds. The sweep
    stops once every obligation has one; an empty array sweeps nothing.
    @raise Engine.Region_overflow when the space exceeds a lazy engine's
    budget. @raise Engine.Interrupted when the engine's guard trips. *)

val preserves :
  pred:(Guarded.State.t -> bool) -> Guarded.Compile.action -> obligation
(** The step "the action preserves [pred]": [pre = post = pred]. *)

val first_violation : witness option array -> (unit, violation) result
(** The lowest-indexed witness among {!Step} results, if any.
    @raise Invalid_argument on an {!Implies} witness. *)

val program_closed :
  Engine.t ->
  Guarded.Compile.program ->
  pred:(Guarded.State.t -> bool) ->
  (unit, violation) result
(** Is [pred] closed under every action? One {!scan} of {!preserves} per
    action, read by {!first_violation}. *)
