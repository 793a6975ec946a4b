(** The located abstract syntax of [.nm] model files.

    Every node carries the {!Loc.t} of its first token so the elaborator
    can point type errors at source positions. Parentheses are not
    recorded: two parses that differ only in redundant grouping or
    formatting produce equal trees under {!equal}, which is what the
    round-trip law [parse ∘ print = id] is stated over. *)

type binop = Add | Sub | Mul | Div | Mod
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type quant = Forall | Exists

(** Index sets for binders and quantifiers. *)
type iset =
  | Srange of nexp * nexp  (** [lo .. hi], inclusive *)
  | Snodes  (** all topology nodes *)
  | Snonroot  (** tree nodes except the root *)
  | Schildren of nexp  (** children of a tree node *)

and nexp =
  | Int of Loc.t * int
  | Ref of Loc.t * string * nexp option
      (** [x] or [x\[e\]]; also binders, params, enum labels, [root] *)
  | Call of Loc.t * string * nexp list
      (** [min], [max], [parent], [succ], [pred] *)
  | Neg of Loc.t * nexp
  | Binop of Loc.t * binop * nexp * nexp
  | Ite of Loc.t * bexp * nexp * nexp

and bexp =
  | Bool of Loc.t * bool
  | Cmp of Loc.t * cmp * nexp * nexp
  | Not of Loc.t * bexp
  | And of Loc.t * bexp * bexp
  | Or of Loc.t * bexp * bexp
  | Implies of Loc.t * bexp * bexp
  | Iff of Loc.t * bexp * bexp
  | Quant of Loc.t * quant * string * iset * bexp
      (** [(forall j in S: b)] — always parenthesized in the surface
          syntax, like [Guarded.Expr]'s [(if _ then _ else _)] *)

type domain =
  | Dbool
  | Drange of nexp * nexp  (** bounds are compile-time constants *)
  | Denum of string * string list

type vdecl = {
  v_loc : Loc.t;
  v_name : string;
  v_size : nexp option;  (** [Some n]: the family [x\[0\] .. x\[n-1\]] *)
  v_dom : domain;
}

type binder = { b_loc : Loc.t; b_name : string; b_set : iset }

(** [x := e] targets; [None] index for scalars. *)
type lhs = { l_loc : Loc.t; l_name : string; l_index : nexp option }

type act = {
  a_loc : Loc.t;
  a_name : string;
  a_binders : binder list;
  a_guard : bexp;
  a_assigns : (lhs list * nexp list) option;  (** [None] is [skip] *)
}

type constr = {
  c_loc : Loc.t;
  c_name : string;
  c_binders : binder list;
  c_body : bexp;
}

(** [x = e], [x\[i\] = e], or the family form [x\[j in S\] = e]. *)
type init_index = Iexact of nexp | Iall of string * iset

type init_bind = {
  i_loc : Loc.t;
  i_name : string;
  i_index : init_index option;
  i_value : nexp;
}

type topo =
  | Tring of Loc.t * nexp
  | Ttree of Loc.t * string * nexp * int option
      (** shape, size, optional PRNG seed (shape [random]) *)

type item =
  | Param of Loc.t * string * nexp
  | Topology of topo
  | Vars of vdecl list
  | Action of act
  | Fault of act
  | Env of act
      (** environment action: uncontrollable but budget-free — the
          certifier must tolerate it and may never repair through it *)
  | Constraint of constr
  | Invariant of Loc.t * bexp
  | Init of Loc.t * init_bind list

type model = { m_loc : Loc.t; m_name : string; m_items : item list }

val equal : model -> model -> bool
(** Structural equality modulo locations. *)
