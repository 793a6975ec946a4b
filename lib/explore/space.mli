(** Enumerable state spaces.

    A program over finite domains has [Π size(domain)] states; this module
    gives every state a dense integer id via mixed-radix encoding, so the
    checker can index per-state data with arrays rather than hash tables.

    For stabilizing programs the fault span is [true]: the state space
    {e is} the fault span, so exhaustively checking all ids checks all
    corrupted states the paper's fault model can produce (faults keep each
    variable within its domain; that is what "domain" means in Section 2). *)

type t

exception Too_large of float
(** Raised by [create] when the space exceeds the cap; carries the size. *)

val create : ?max_states:int -> Guarded.Env.t -> t
(** Build the enumeration for an environment. [max_states] defaults to
    [2_000_000]. @raise Too_large when the product of domain sizes exceeds
    the cap (or {!encodable_max}, whichever is smaller). *)

val of_codec : ?max_states:int -> Codec.t -> t
(** {!create} over an already-sized codec. *)

val create_unbounded : Guarded.Env.t -> t
(** Build the mixed-radix encoding without the [max_states] cap. The
    resulting space supports {!encode}/{!decode} but is generally too big
    to materialize arrays over: it is meant for on-the-fly engines that
    key hash tables by state code. @raise Too_large only when the product
    of domain sizes exceeds {!encodable_max} (encoding would overflow). *)

val encodable_max : int
(** Largest state count whose mixed-radix codes fit in an OCaml [int]. *)

val env : t -> Guarded.Env.t
val size : t -> int

val codec : t -> Codec.t
(** The underlying codec; the space's own {!encode}/{!decode} are its
    dense layout. Engines step keys with its place values
    ({!Codec.places}) without re-deriving the per-slot layout. *)

val encode : t -> Guarded.State.t -> int
(** @raise Invalid_argument if some variable is outside its domain. *)

val decode : t -> int -> Guarded.State.t
val decode_into : t -> int -> Guarded.State.t -> unit
(** Fill an existing state buffer; avoids allocation in the checker loop. *)

val iter : t -> (int -> Guarded.State.t -> unit) -> unit
(** Visit every state in id order. The state value is one shared buffer
    that steps from id to id+1 by {!Codec.next_into} (the odometer: no
    division per state), so callbacks must not write it — the next id
    is derived from what it holds — and must copy it to retain it. *)

val count_satisfying : t -> (Guarded.State.t -> bool) -> int
(** States satisfying the predicate, counted in one {!iter} sweep. *)
