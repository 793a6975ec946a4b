(** Helpers for the paper's design recipe (Section 3).

    The recipe: given a candidate triple, add for each constraint [c] one
    convergence action [¬c → "establish c while preserving T"]. When the
    establishing statement coincides with a closure action's statement, the
    two actions can be merged by disjoining their guards — both worked
    examples in the paper perform this simplification. *)

val convergence_action :
  name:string -> Constr.t -> (Guarded.Var.t * Guarded.Expr.num) list ->
  Guarded.Action.t
(** [convergence_action ~name c stmt] is the action [¬c → stmt]. *)

val same_statement : Guarded.Action.t -> Guarded.Action.t -> bool
(** Do two actions perform the same simultaneous assignment? *)

val combine : name:string -> Guarded.Action.t -> Guarded.Action.t -> Guarded.Action.t
(** [combine ~name a b] merges actions with equal statements into
    [guard a ∨ guard b -> statement], the paper's simplification.
    @raise Invalid_argument if the statements differ. *)

val simplify_action : Guarded.Action.t -> Guarded.Action.t
(** Constant-fold the guard and right-hand sides. *)
