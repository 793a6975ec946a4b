(** State codec: one audited translation between [Guarded.State.t] and
    machine integers, sized from the finite domains of an environment.

    The layout is {b dense} (mixed-radix): slot [i] contributes
    [digit_i * weight_i] with [weight_i = Π_{j<i} base_j]. Codes are the
    contiguous range [0 .. Π base_i - 1] — the id space the eager
    backend's CSR arrays and the direct-mapped visited tables index by,
    and the key every engine, span and snapshot files states under. It
    is available whenever the product of domain sizes fits
    {!Space.encodable_max} ([2^60]).

    Availability is explicit: {!require_dense} raises the typed
    {!Overflow} instead of silently wrapping past the word size. The
    encoder raises [Invalid_argument] on a state outside its domains,
    like [Space.encode] always has. *)

type t

exception Overflow of { layout : string; bits : int; states : float }
(** The layout cannot represent this environment: [bits] is the width it
    would need, [states] the (possibly huge, hence float) state count. *)

val of_env : Guarded.Env.t -> t
(** Size the codec from an environment's variable domains. Never raises:
    availability is queried (or enforced) separately. *)

val env : t -> Guarded.Env.t

val states : t -> float
(** Product of the domain sizes, as a float (may exceed any int, or be
    infinite). *)

val slots : t -> int

val dense_bits : t -> int
(** Bits of the largest dense code, [ceil(log2 states)]; at least [61]
    when the dense layout is unavailable, and finite even when
    {!states} is not. *)

val dense_ok : t -> bool
(** Dense codes fit an OCaml int: [states <= Space.encodable_max]. *)

val require_dense : t -> unit
(** @raise Overflow (with [layout = "dense"]) when {!dense_ok} is
    false. *)

val dense_size : t -> int
(** The dense code range as an int. @raise Overflow when not {!dense_ok}. *)

val encode_dense : t -> Guarded.State.t -> int
(** @raise Invalid_argument if some variable is outside its domain. *)

val decode_dense_into : t -> int -> Guarded.State.t -> unit

val next_into : t -> Guarded.State.t -> unit
(** Step a state in place to the one whose dense code is one more (the
    last state wraps to code [0]), with no division: sweeping
    [0 .. n - 1] by {!decode_dense_into} of [0] and then [next_into]
    visits the states {!decode_dense_into} gives, in the same order. *)

val places : t -> int array
(** Per-slot place value of a code, the dense [weight_i]. The layout is
    positional, so a state whose slot [i] changes from [old] to [v]
    (both in the domain) has code [code + (v - old) * place_i]: the
    domain's low value cancels. Fresh array. *)

val pp_layout : Format.formatter -> t -> unit
(** Render the per-slot layout table (base, low, weight, and the bit
    width and offset a bit-field layout would give each slot) — the
    diagram DESIGN.md's state-storage section refers to. Snapshot config
    hashes fold this text in, so its format is frozen. *)
