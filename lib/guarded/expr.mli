(** Expressions over program variables.

    Guards and assignment right-hand sides are abstract syntax, not OCaml
    closures, for two reasons that matter to the paper's method:

    - the {e read set} of an action is derived from its syntax, and the
      constraint-graph definition (Section 4) is stated in terms of the
      variables an action reads and writes;
    - programs and constraints can be pretty-printed in notation close to
      the paper's, and re-parsed as the expressions of a [.nm] model
      ([Lang.Parser]).

    [num] is integer-valued, [boolean] is a state predicate. Division and
    modulus follow OCaml semantics and raise [Division_by_zero] on a zero
    divisor. *)

type num =
  | Const of int
  | Var of Var.t
  | Neg of num
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num
  | Mod of num * num
  | Min of num * num
  | Max of num * num
  | Ite of boolean * num * num  (** if-then-else *)

and boolean =
  | True
  | False
  | Cmp of cmp * num * num
  | Not of boolean
  | And of boolean * boolean
  | Or of boolean * boolean
  | Implies of boolean * boolean
  | Iff of boolean * boolean

and cmp = Eq | Ne | Lt | Le | Gt | Ge

(** {1 Construction} *)

val int : int -> num
val var : Var.t -> num

val tt : boolean
val ff : boolean

val ( + ) : num -> num -> num
val ( - ) : num -> num -> num
val ( * ) : num -> num -> num
val ( / ) : num -> num -> num
val ( mod ) : num -> num -> num
val neg : num -> num
val min_ : num -> num -> num
val max_ : num -> num -> num
val ite : boolean -> num -> num -> num

val ( = ) : num -> num -> boolean
val ( <> ) : num -> num -> boolean
val ( < ) : num -> num -> boolean
val ( <= ) : num -> num -> boolean
val ( > ) : num -> num -> boolean
val ( >= ) : num -> num -> boolean

val not_ : boolean -> boolean
val ( && ) : boolean -> boolean -> boolean
val ( || ) : boolean -> boolean -> boolean
val ( ==> ) : boolean -> boolean -> boolean
val ( <=> ) : boolean -> boolean -> boolean

val conj : boolean list -> boolean
(** Conjunction of a list; [conj [] = tt]. *)

val disj : boolean list -> boolean
(** Disjunction of a list; [disj [] = ff]. *)

val forall : 'a list -> ('a -> boolean) -> boolean
(** Finite universal quantification, expanded at construction time — the
    paper's [(∀ k :: ...)] over process indices. *)

val exists : 'a list -> ('a -> boolean) -> boolean

(** {1 Evaluation} *)

val eval_num : State.t -> num -> int
val eval : State.t -> boolean -> bool

(** {1 Analysis} *)

val reads_num : num -> Var.Set.t
val reads : boolean -> Var.Set.t

val simplify_num : num -> num
(** Constant folding and local algebraic identities; semantics-preserving. *)

val simplify : boolean -> boolean

val subst_num : (Var.t -> num option) -> num -> num
(** Substitute variables by expressions; [None] leaves a variable as is. *)

val subst : (Var.t -> num option) -> boolean -> boolean

(** {1 Printing} *)

val pp_num : Format.formatter -> num -> unit
val pp : Format.formatter -> boolean -> unit
val num_to_string : num -> string
val to_string : boolean -> string

val equal_num : num -> num -> bool
val equal : boolean -> boolean -> bool
