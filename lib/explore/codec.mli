(** State codecs: one audited translation between [Guarded.State.t] and
    machine integers, sized from the finite domains of an environment.

    Three layouts over the same per-slot data:

    - {b Dense} (mixed-radix): slot [i] contributes [digit_i * weight_i]
      with [weight_i = Π_{j<i} base_j]. Codes are the contiguous range
      [0 .. Π base_i - 1] — the id space the eager backend's CSR arrays
      and the direct-mapped visited tables index by. Available whenever
      the product of domain sizes fits {!Space.encodable_max} ([2^60]).

    - {b Packed} (bit fields): slot [i] contributes
      [digit_i lsl shift_i] with [ceil(log2 base_i)] bits per slot.
      Decoding is shift/mask instead of div/mod, but the code range is
      sparse: packed codes only key hash tables, never arrays. Packed
      needs at least as many bits as dense ([Σ ceil(log2 b_i) ≥
      log2 Π b_i]), so it is a decode-speed representation, not a
      capacity extension. Available when the fields fit 62 bits (packed
      codes stay non-negative OCaml ints).

    - {b Wide} (two words): the packed fields split across two 62-bit
      words for environments up to 124 bits — the spill format for
      future disk/mmap state stores. No engine uses it yet; it is
      tested and kept in lockstep with the one-word layouts.

    Layout availability is explicit: [require_*] raises the typed
    {!Overflow} instead of silently wrapping past the word size (the
    enforcement the 2^60 cap previously only had in documentation, via
    float comparison at space construction). All encoders raise
    [Invalid_argument] on a state outside its domains, like
    [Space.encode] always has. *)

type t

exception Overflow of { layout : string; bits : int; states : float }
(** A layout cannot represent this environment: [bits] is the width the
    layout would need, [states] the (possibly huge, hence float) state
    count. *)

val of_env : Guarded.Env.t -> t
(** Size the codec from an environment's variable domains. Never raises:
    availability of each layout is queried (or enforced) separately. *)

val env : t -> Guarded.Env.t

val states : t -> float
(** Product of the domain sizes, as a float (may exceed any int). *)

val slots : t -> int

val dense_bits : t -> int
(** Bits of the largest dense code, [ceil(log2 states)]; [> 62] when the
    dense layout is unavailable (capped at 126 to avoid float overflow
    games). *)

val packed_bits : t -> int
(** Total bit-field width, [Σ ceil(log2 base_i)]. *)

val dense_ok : t -> bool
(** Dense codes fit an OCaml int: [states <= Space.encodable_max]. *)

val packed_ok : t -> bool
(** Packed codes fit one non-negative OCaml int: [packed_bits <= 62]. *)

val wide_ok : t -> bool
(** The packed fields, laid out word-aligned (no field straddles the
    boundary), fit two 62-bit words. Always true when
    [packed_bits <= 63]; bounded above by [packed_bits <= 124]. *)

val require_dense : t -> unit
(** @raise Overflow when {!dense_ok} is false. *)

val require_packed : t -> unit
(** @raise Overflow when {!packed_ok} is false. *)

val require_wide : t -> unit
(** @raise Overflow when {!wide_ok} is false. *)

val dense_size : t -> int
(** The dense code range as an int. @raise Overflow when not {!dense_ok}. *)

val encode_dense : t -> Guarded.State.t -> int
(** @raise Invalid_argument if some variable is outside its domain. *)

val decode_dense_into : t -> int -> Guarded.State.t -> unit

val encode_packed : t -> Guarded.State.t -> int
(** @raise Invalid_argument if some variable is outside its domain. *)

val decode_packed_into : t -> int -> Guarded.State.t -> unit

val places : t -> packed:bool -> int array
(** Per-slot place value of a one-word code: the dense [weight_i], or
    [1 lsl shift_i] when [packed]. Both layouts are positional, so a
    state whose slot [i] changes from [old] to [v] (both in the domain)
    has code [code + (v - old) * place_i]: the domain's low value
    cancels, and no field carries into its neighbour. Fresh array. *)

val encode_wide : t -> Guarded.State.t -> int * int
(** [(lo, hi)]: word-aligned fields, low word first.
    @raise Overflow when not {!wide_ok}.
    @raise Invalid_argument if some variable is outside its domain. *)

val decode_wide_into : t -> int * int -> Guarded.State.t -> unit

val pp_layout : Format.formatter -> t -> unit
(** Render the per-slot layout table (base, bits, shift, weight) — the
    diagram DESIGN.md's state-storage section refers to. *)
