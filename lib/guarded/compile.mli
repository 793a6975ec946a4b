(** Compilation of expressions and actions to closures.

    The AST representation in {!Expr} is what analyses need, but it is slow
    to interpret in the simulator's and model checker's hot paths. This pass
    translates expressions to OCaml closures over the raw state slots once,
    so that each evaluation costs no dispatch over constructors beyond the
    precompiled closure tree. Measured speedups are reported by the [micro]
    benchmarks. *)

type guard = State.t -> bool

type action = {
  index : int;  (** Position in the source program's action array. *)
  source : Action.t;
  enabled : guard;
  slots : int array;
      (** The written slots ({!Var.index} of each assignment target), in
          assignment order. Distinct, since {!Action.make} rejects
          duplicate targets. *)
  rhs : (State.t -> int) array;
      (** [rhs.(k) s] is the value the action writes to [slots.(k)] from
          pre-state [s]. Domain-checked: it raises
          [State.Domain_violation] for a value outside the target's
          domain. The closures are pure, so one compiled action may be
          shared across domains. A caller that writes in place must
          evaluate every right-hand side before its first write, since the
          assignment is simultaneous. *)
  apply : State.t -> State.t;
      (** Functional execution; domain-checked like {!Action.execute}. *)
  apply_into : State.t -> State.t -> unit;
      (** [apply_into src dst] writes the post-state of [src] into [dst]
          (which must be a state of the same environment); [src] and [dst]
          may not alias. Avoids allocation in tight loops. On
          [State.Domain_violation], [dst] holds a partial write. *)
}

type program = { source : Program.t; actions : action array }

val num : Expr.num -> State.t -> int
(** Compile an integer expression. *)

val pred : Expr.boolean -> guard
(** Compile a predicate. *)

val action : index:int -> Action.t -> action
val program : Program.t -> program

val enabled_indices : program -> State.t -> int list
val any_enabled : program -> State.t -> bool
