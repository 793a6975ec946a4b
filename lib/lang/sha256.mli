(** Self-contained SHA-256 (FIPS 180-4).

    The basis of content addressing in this codebase: the canonical
    model digest ({!Canon}) and the serve result-cache key are SHA-256
    hex strings. Correctness is pinned by the FIPS test vectors in the
    test suite. *)

val hex : string -> string
(** 64-character lowercase hex digest of the input. *)
