(** Random {!Obs.Json} values for roundtrip fuzzing.

    Values are drawn so that [Json.of_string (Json.to_string v)] must
    reproduce [v] exactly: floats are always finite (non-finite floats
    render as [null] by design, which cannot roundtrip) and integral
    floats below [1e15] render with a [.0] suffix so they parse back as
    {!Obs.Json.Float}, never {!Obs.Json.Int}. Strings deliberately cover
    every escape class (quotes, backslashes, control characters, raw
    UTF-8); numbers cover [min_int]/[max_int], negative zero, and
    magnitudes that force exponent forms. *)

val value : ?depth:int -> Prng.t -> Obs.Json.t
(** An arbitrary roundtrip-safe value: nulls, bools, numbers, strings,
    and nested arrays/objects up to [depth] (default 4). *)
