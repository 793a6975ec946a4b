(** Canonical formatter for [.nm] models.

    [print] is deterministic and depends only on the location-stripped
    tree, so it is idempotent as a source formatter
    ([fmt ∘ fmt = fmt]); and it emits exactly the grammar {!Parser}
    accepts, giving the round-trip law [parse (print ast) ≡ ast]
    (modulo locations — see {!Ast.equal}). *)

val print : Ast.model -> string
(** The whole model, canonically formatted, ending in a newline. *)

