(** Program states.

    A state assigns to each variable of an environment a value of its domain
    (Section 2 of the paper). States are dense int arrays indexed by
    {!Var.index}; they are cheap to copy, hash and compare, which the model
    checker and the simulator both rely on.

    A state may deliberately hold out-of-domain values: fault injection
    (Section 3 views faults as actions that perturb the state) may corrupt a
    variable arbitrarily. [set] enforces domains; [set_corrupt] does not. *)

type t

exception Domain_violation of Var.t * int
(** Raised by [set] when the value is outside the variable's domain. *)

val make : Env.t -> t
(** State with every variable at the first value of its domain. *)

val init : Env.t -> (Var.t -> int) -> t
(** State computed per-variable. Values are domain-checked.
    @raise Domain_violation if the function returns an illegal value. *)

val of_list : Env.t -> (Var.t * int) list -> t
(** [make] then [set] each binding. *)

val get : t -> Var.t -> int
val set : t -> Var.t -> int -> unit
val set_corrupt : t -> Var.t -> int -> unit
(** Like [set] but skips the domain check; used by fault injectors. *)

val in_domain : Env.t -> t -> bool
(** Do all variables currently hold legal values? *)

val copy : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val get_index : t -> int -> int
(** Value at a raw slot index (compiled-code hot path). *)

val set_index : t -> int -> int -> unit
(** Unchecked write at a raw slot index (compiled-code hot path). *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents; same environment assumed. *)

val to_array : t -> int array
(** Fresh snapshot of the underlying values. *)

val pp : Env.t -> Format.formatter -> t -> unit
(** Print as [{x=1, y=true, c.0=red, ...}] using domain notation. *)

val to_string : Env.t -> t -> string
