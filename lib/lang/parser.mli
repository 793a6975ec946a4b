(** Recursive-descent parser for [.nm] model files.

    The grammar (EBNF; see the README "Model language" section):

    {v
model       ::= "model" name item*
item        ::= "param" IDENT "=" nexp
              | "topology" ("ring" "(" nexp ")"
                           | "tree" "(" name "," nexp ["," INT] ")")
              | "var" vdecl ("," vdecl)* [";"]
              | ("action" | "fault") name binder* ":" bexp "->" stmt
              | "constraint" name binder* ":" bexp
              | "invariant" bexp
              | "init" bind ("," bind)*
vdecl       ::= IDENT ["[" nexp "]"] ":" domain
domain      ::= "bool" | nexp ".." nexp | IDENT "{" IDENT ("," IDENT)* "}"
binder      ::= "[" IDENT "in" iset "]"
iset        ::= nexp ".." nexp | "nodes" | "nonroot" | "children" "(" nexp ")"
stmt        ::= "skip" | lhs ("," lhs)* ":=" nexp ("," nexp)*
lhs         ::= IDENT ["[" nexp "]"]
bind        ::= IDENT ["[" (IDENT "in" iset | nexp) "]"] "=" nexp
    v}

    Expressions are the paper's guarded-command notation, the syntax
    {!Guarded.Expr.pp} prints: [~ /\ \/ => <=>] over comparisons
    [= <> < <= > >=] of numeric expressions [+ - * / mod], with
    [min(a, b)], [max(a, b)], [(if b then a else c)], family indexing
    [x\[e\]], topology calls [parent(e)], [succ(e)], [pred(e)], and
    parenthesized quantifiers [(forall j in S: b)]. Names may contain
    dashes ([bump-y]).

    Expressions nest at most 512 levels: each bracket pair (grouping,
    call, index), [~], unary minus, [=>] and quantifier opens one. *)

val parse : Source.t -> Ast.model
(** @raise Err.Error on any lexical or syntax error, or on an
    expression nested past the limit, located with a caret snippet (at
    the opening token of the first level past it). *)
