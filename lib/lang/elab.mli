(** Elaboration: typecheck a parsed {!Ast.model} and compile it to the
    executable {!Guarded} representation.

    The result runs unchanged on every [Explore.Engine] backend and on
    the simulator: variables are declared in source order (families as
    [x.0 .. x.(n-1)], matching {!Guarded.Env.fresh_family}), binder
    families expand to one action per index with dotted names
    ([copy.3]), fault actions are prefixed [fault:], assignment
    right-hand sides are clamped to the target domain exactly as
    [Gen.Spec.materialize] clamps generated programs, and [/] and [mod]
    require divisors that constant-fold to a non-zero constant (the same
    rule [Gen.Generate] obeys).

    Every rejected model raises {!Err.Error} with a [file:line:col]
    location and caret snippet — never an unlocated exception. *)

type t = {
  name : string;  (** the model's declared name *)
  env : Guarded.Env.t;
  program : Guarded.Program.t;
  fault_actions : Guarded.Action.t list;
      (** declared [fault] items, expanded; names are [fault:<name>] *)
  env_actions : Guarded.Action.t list;
      (** declared [env] items, expanded; names are [env:<name>].
          Environment actions are uncontrollable like faults but free:
          they extend the fault span without consuming budget, closure
          and convergence must hold under them, and they are never part
          of a repair. *)
  constraints : (string * Guarded.Expr.boolean) list;
      (** expanded constraint instances, in declaration order *)
  invariant_expr : Guarded.Expr.boolean;
      (** conjunction of all constraints and [invariant] items *)
  invariant : Guarded.State.t -> bool;
      (** [invariant_expr] compiled ({!Guarded.Compile.pred}): the same
          verdicts, and the same [Division_by_zero] cases, as
          [Guarded.Expr.eval] over it *)
  init : Guarded.State.t;
      (** the [init] item applied over domain-minimal defaults; always
          satisfies [invariant] *)
  params : (string * int) list;
      (** final parameter values, in declaration order *)
}

val model : ?params:(string * int) list -> Source.t -> Ast.model -> t
(** Elaborate. [params] overrides declared [param] defaults by name;
    naming a parameter the model does not declare is an error.
    @raise Err.Error on any type, scope, arity, domain, or divisor
    error. *)
