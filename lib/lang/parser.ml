open Lexer

type state = {
  toks : located array;
  mutable pos : int;
  mutable depth : int;  (* expression nesting levels open at [pos] *)
  src : Source.t;
}

let current p = p.toks.(p.pos)
let peek_tok p = (current p).tok
let loc p = (current p).loc

let peek2 p =
  if p.pos + 1 < Array.length p.toks then p.toks.(p.pos + 1).tok else EOF

let advance p = if p.pos < Array.length p.toks - 1 then p.pos <- p.pos + 1
let failp p message = Err.fail p.src (loc p) message

(* Expression nesting limit. Brackets (grouping, calls, indexing), [~],
   unary minus, [=>] and quantifiers each open one level. It bounds the
   recursion on hostile input, and with it the parser's one backtracking
   point, which re-scans a parenthesised prefix once per open level. *)
let max_nesting = 512

(* Parse [f ()] one level deeper; [l] is where the level opens. *)
let nested p l f =
  if p.depth >= max_nesting then
    Err.fail p.src l
      (Printf.sprintf "expression nested more than %d levels deep" max_nesting);
  p.depth <- p.depth + 1;
  let r = f () in
  p.depth <- p.depth - 1;
  r

let eat p tok =
  if peek_tok p = tok then advance p
  else
    failp p
      (Printf.sprintf "expected %s but found %s" (token_to_string tok)
         (token_to_string (peek_tok p)))

(* --- numeric expressions ---
   Precedence, loosest first: additive, multiplicative, unary minus,
   atoms — the precedence Guarded.Expr.pp prints with, so its output
   reparses. *)

let rec parse_nexp p = parse_additive p

and parse_additive p =
  let lhs = ref (parse_multiplicative p) in
  let continue = ref true in
  while !continue do
    let l = loc p in
    match peek_tok p with
    | PLUS ->
        advance p;
        lhs := Ast.Binop (l, Ast.Add, !lhs, parse_multiplicative p)
    | MINUS ->
        advance p;
        lhs := Ast.Binop (l, Ast.Sub, !lhs, parse_multiplicative p)
    | _ -> continue := false
  done;
  !lhs

and parse_multiplicative p =
  let lhs = ref (parse_unary p) in
  let continue = ref true in
  while !continue do
    let l = loc p in
    match peek_tok p with
    | STAR ->
        advance p;
        lhs := Ast.Binop (l, Ast.Mul, !lhs, parse_unary p)
    | SLASH ->
        advance p;
        lhs := Ast.Binop (l, Ast.Div, !lhs, parse_unary p)
    | KW_MOD ->
        advance p;
        lhs := Ast.Binop (l, Ast.Mod, !lhs, parse_unary p)
    | _ -> continue := false
  done;
  !lhs

and parse_unary p =
  match peek_tok p with
  | MINUS -> (
      let l = loc p in
      advance p;
      match peek_tok p with
      | INT n ->
          advance p;
          Ast.Int (l, -n)
      | _ -> Ast.Neg (l, nested p l (fun () -> parse_unary p)))
  | _ -> parse_num_atom p

and parse_num_atom p =
  let l = loc p in
  match peek_tok p with
  | INT n ->
      advance p;
      Ast.Int (l, n)
  | IDENT name -> (
      advance p;
      match peek_tok p with
      | LPAREN ->
          advance p;
          let args = nested p l (fun () -> parse_args p) in
          Ast.Call (l, name, args)
      | LBRACKET ->
          advance p;
          let idx = nested p l (fun () -> parse_nexp p) in
          eat p RBRACKET;
          Ast.Ref (l, name, Some idx)
      | _ -> Ast.Ref (l, name, None))
  | KW_MIN ->
      advance p;
      eat p LPAREN;
      Ast.Call (l, "min", nested p l (fun () -> parse_args p))
  | KW_MAX ->
      advance p;
      eat p LPAREN;
      Ast.Call (l, "max", nested p l (fun () -> parse_args p))
  | LPAREN -> (
      advance p;
      nested p l @@ fun () ->
      match peek_tok p with
      | KW_IF ->
          advance p;
          let c = parse_bexp p in
          eat p KW_THEN;
          let a = parse_nexp p in
          eat p KW_ELSE;
          let b = parse_nexp p in
          eat p RPAREN;
          Ast.Ite (l, c, a, b)
      | _ ->
          let e = parse_nexp p in
          eat p RPAREN;
          e)
  | t ->
      failp p
        (Printf.sprintf "expected an expression, found %s" (token_to_string t))

and parse_args p =
  (* after the opening '(' *)
  if peek_tok p = RPAREN then begin
    advance p;
    []
  end
  else begin
    let rec more acc =
      let e = parse_nexp p in
      if peek_tok p = COMMA then begin
        advance p;
        more (e :: acc)
      end
      else begin
        eat p RPAREN;
        List.rev (e :: acc)
      end
    in
    more []
  end

(* --- boolean expressions ---
   Precedence, loosest first: => and <=> < \/ < /\ < ~ < atoms. *)
and parse_bexp p =
  let lhs = parse_disj p in
  let l = loc p in
  match peek_tok p with
  | IMPLIES ->
      advance p;
      Ast.Implies (l, lhs, nested p l (fun () -> parse_bexp p))
  | IFF ->
      advance p;
      Ast.Iff (l, lhs, parse_disj p)
  | _ -> lhs

and parse_disj p =
  let lhs = ref (parse_conj p) in
  while peek_tok p = OR do
    let l = loc p in
    advance p;
    lhs := Ast.Or (l, !lhs, parse_conj p)
  done;
  !lhs

and parse_conj p =
  let lhs = ref (parse_neg p) in
  while peek_tok p = AND do
    let l = loc p in
    advance p;
    lhs := Ast.And (l, !lhs, parse_neg p)
  done;
  !lhs

and parse_neg p =
  match peek_tok p with
  | NOT ->
      let l = loc p in
      advance p;
      Ast.Not (l, nested p l (fun () -> parse_neg p))
  | _ -> parse_bool_atom p

and parse_bool_atom p =
  let l = loc p in
  match peek_tok p with
  | KW_TRUE ->
      advance p;
      Ast.Bool (l, true)
  | KW_FALSE ->
      advance p;
      Ast.Bool (l, false)
  | LPAREN when peek2 p = KW_FORALL || peek2 p = KW_EXISTS ->
      advance p;
      let q = nested p l (fun () -> parse_quant_body p l) in
      eat p RPAREN;
      q
  | KW_FORALL | KW_EXISTS ->
      (* unparenthesized quantifier: the body extends as far right as an
         expression can (like if-then-else), so it only appears as the
         trailing form of a formula *)
      nested p l (fun () -> parse_quant_body p l)
  | LPAREN -> (
      (* backtracking: a '(' opens either a numeric atom of a comparison
         or a parenthesized boolean *)
      let saved = p.pos and depth = p.depth in
      match parse_comparison p with
      | cmp -> cmp
      | exception Err.Error _ ->
          p.pos <- saved;
          p.depth <- depth;
          advance p;
          let b = nested p l (fun () -> parse_bexp p) in
          eat p RPAREN;
          b)
  | _ -> parse_comparison p

and parse_quant_body p l =
  let q = match peek_tok p with KW_FORALL -> Ast.Forall | _ -> Ast.Exists in
  advance p;
  let x =
    match peek_tok p with
    | IDENT x ->
        advance p;
        x
    | t ->
        failp p
          (Printf.sprintf "expected a quantified variable, found %s"
             (token_to_string t))
  in
  eat p KW_IN;
  let s = parse_iset p in
  eat p COLON;
  let body = parse_bexp p in
  Ast.Quant (l, q, x, s, body)

and parse_comparison p =
  let lhs = parse_nexp p in
  let l = loc p in
  let cmp =
    match peek_tok p with
    | EQ -> Ast.Eq
    | NE -> Ast.Ne
    | LT -> Ast.Lt
    | LE -> Ast.Le
    | GT -> Ast.Gt
    | GE -> Ast.Ge
    | t ->
        failp p
          (Printf.sprintf "expected a comparison, found %s"
             (token_to_string t))
  in
  advance p;
  let rhs = parse_nexp p in
  Ast.Cmp (l, cmp, lhs, rhs)

(* --- index sets --- *)
and parse_iset p =
  match peek_tok p with
  | KW_NODES ->
      advance p;
      Ast.Snodes
  | KW_NONROOT ->
      advance p;
      Ast.Snonroot
  | KW_CHILDREN ->
      advance p;
      eat p LPAREN;
      let e = parse_nexp p in
      eat p RPAREN;
      Ast.Schildren e
  | _ ->
      let lo = parse_nexp p in
      eat p DOTDOT;
      let hi = parse_nexp p in
      Ast.Srange (lo, hi)

(* Model, action, and constraint names may contain dashes, which lex as
   MINUS: re-join the fragments up to the given stop condition. *)
let parse_name p ~stop =
  let buf = Buffer.create 16 in
  let continue = ref true in
  while !continue do
    match peek_tok p with
    | t when stop t -> continue := false
    | IDENT s ->
        Buffer.add_string buf s;
        advance p
    | INT n ->
        Buffer.add_string buf (string_of_int n);
        advance p
    | MINUS ->
        Buffer.add_char buf '-';
        advance p
    | t -> (
        (* keyword words are fine as name fragments ("token-ring"): the
           stop condition has already claimed the tokens that end the
           name, so no ambiguity remains *)
        match Lexer.keyword_text t with
        | Some w ->
            Buffer.add_string buf w;
            advance p
        | None ->
            failp p
              (Printf.sprintf "unexpected %s in name" (token_to_string t)))
  done;
  if Buffer.length buf = 0 then failp p "expected a name";
  Buffer.contents buf

let parse_binders p =
  let rec more acc =
    match peek_tok p with
    | LBRACKET ->
        let l = loc p in
        advance p;
        let x =
          match peek_tok p with
          | IDENT x ->
              advance p;
              x
          | t ->
              failp p
                (Printf.sprintf "expected a binder variable, found %s"
                   (token_to_string t))
        in
        eat p KW_IN;
        let s = parse_iset p in
        eat p RBRACKET;
        more ({ Ast.b_loc = l; b_name = x; b_set = s } :: acc)
    | _ -> List.rev acc
  in
  more []

let parse_domain p =
  match peek_tok p with
  | KW_BOOL ->
      advance p;
      Ast.Dbool
  | IDENT ename when peek2 p = LBRACE ->
      advance p;
      advance p;
      let rec labels acc =
        match peek_tok p with
        | IDENT l ->
            advance p;
            if peek_tok p = COMMA then begin
              advance p;
              labels (l :: acc)
            end
            else List.rev (l :: acc)
        | t ->
            failp p
              (Printf.sprintf "expected an enum label, found %s"
                 (token_to_string t))
      in
      let ls = labels [] in
      eat p RBRACE;
      Ast.Denum (ename, ls)
  | _ ->
      let lo = parse_nexp p in
      eat p DOTDOT;
      let hi = parse_nexp p in
      Ast.Drange (lo, hi)

let parse_vdecls p =
  let rec more acc =
    let l = loc p in
    let name =
      match peek_tok p with
      | IDENT x ->
          advance p;
          x
      | t ->
          failp p
            (Printf.sprintf "expected a variable name, found %s"
               (token_to_string t))
    in
    let size =
      if peek_tok p = LBRACKET then begin
        advance p;
        let e = parse_nexp p in
        eat p RBRACKET;
        Some e
      end
      else None
    in
    eat p COLON;
    let dom = parse_domain p in
    let d = { Ast.v_loc = l; v_name = name; v_size = size; v_dom = dom } in
    if peek_tok p = COMMA then begin
      advance p;
      more (d :: acc)
    end
    else begin
      if peek_tok p = SEMI then advance p;
      List.rev (d :: acc)
    end
  in
  more []

let parse_statement p =
  match peek_tok p with
  | KW_SKIP ->
      advance p;
      None
  | _ ->
      let parse_lhs () =
        let l = loc p in
        match peek_tok p with
        | IDENT name ->
            advance p;
            let idx =
              if peek_tok p = LBRACKET then begin
                advance p;
                let e = parse_nexp p in
                eat p RBRACKET;
                Some e
              end
              else None
            in
            { Ast.l_loc = l; l_name = name; l_index = idx }
        | t ->
            failp p
              (Printf.sprintf "expected an assignment target, found %s"
                 (token_to_string t))
      in
      let rec lhs_list acc =
        let v = parse_lhs () in
        if peek_tok p = COMMA then begin
          advance p;
          lhs_list (v :: acc)
        end
        else List.rev (v :: acc)
      in
      let targets = lhs_list [] in
      eat p ASSIGN;
      let rec rhs_list acc =
        let e = parse_nexp p in
        if peek_tok p = COMMA then begin
          advance p;
          rhs_list (e :: acc)
        end
        else List.rev (e :: acc)
      in
      let exprs = rhs_list [] in
      if List.length targets <> List.length exprs then
        failp p
          (Printf.sprintf "%d assignment targets but %d expressions"
             (List.length targets) (List.length exprs));
      Some (targets, exprs)

let item_start = function
  | KW_PARAM | KW_TOPOLOGY | KW_VAR | KW_ACTION | KW_FAULT | KW_ENV
  | KW_CONSTRAINT | KW_INVARIANT | KW_INIT | EOF ->
      true
  | _ -> false

let parse_action p =
  let l = loc p in
  let name = parse_name p ~stop:(fun t -> t = COLON || t = LBRACKET) in
  let binders = parse_binders p in
  eat p COLON;
  let guard = parse_bexp p in
  eat p ARROW;
  let assigns = parse_statement p in
  {
    Ast.a_loc = l;
    a_name = name;
    a_binders = binders;
    a_guard = guard;
    a_assigns = assigns;
  }

let parse_init_binds p =
  let rec more acc =
    let l = loc p in
    let name =
      match peek_tok p with
      | IDENT x ->
          advance p;
          x
      | t ->
          failp p
            (Printf.sprintf "expected a variable name, found %s"
               (token_to_string t))
    in
    let idx =
      if peek_tok p = LBRACKET then begin
        advance p;
        let idx =
          match peek_tok p with
          | IDENT x when peek2 p = KW_IN ->
              advance p;
              advance p;
              Ast.Iall (x, parse_iset p)
          | _ -> Ast.Iexact (parse_nexp p)
        in
        eat p RBRACKET;
        Some idx
      end
      else None
    in
    eat p EQ;
    let value = parse_nexp p in
    let bind =
      { Ast.i_loc = l; i_name = name; i_index = idx; i_value = value }
    in
    if peek_tok p = COMMA then begin
      advance p;
      more (bind :: acc)
    end
    else List.rev (bind :: acc)
  in
  more []

let parse_topology p =
  let l = loc p in
  match peek_tok p with
  | KW_RING ->
      advance p;
      eat p LPAREN;
      let n = parse_nexp p in
      eat p RPAREN;
      Ast.Tring (l, n)
  | KW_TREE ->
      advance p;
      eat p LPAREN;
      let shape = parse_name p ~stop:(fun t -> t = COMMA) in
      eat p COMMA;
      let n = parse_nexp p in
      let seed =
        if peek_tok p = COMMA then begin
          advance p;
          match peek_tok p with
          | INT s ->
              advance p;
              Some s
          | t ->
              failp p
                (Printf.sprintf "expected a seed integer, found %s"
                   (token_to_string t))
        end
        else None
      in
      eat p RPAREN;
      Ast.Ttree (l, shape, n, seed)
  | t ->
      failp p
        (Printf.sprintf "expected 'ring' or 'tree', found %s"
           (token_to_string t))

let parse_item p =
  let l = loc p in
  match peek_tok p with
  | KW_PARAM ->
      advance p;
      let name =
        match peek_tok p with
        | IDENT x ->
            advance p;
            x
        | t ->
            failp p
              (Printf.sprintf "expected a parameter name, found %s"
                 (token_to_string t))
      in
      eat p EQ;
      Ast.Param (l, name, parse_nexp p)
  | KW_TOPOLOGY ->
      advance p;
      Ast.Topology (parse_topology p)
  | KW_VAR ->
      advance p;
      Ast.Vars (parse_vdecls p)
  | KW_ACTION ->
      advance p;
      Ast.Action (parse_action p)
  | KW_FAULT ->
      advance p;
      Ast.Fault (parse_action p)
  | KW_ENV ->
      advance p;
      Ast.Env (parse_action p)
  | KW_CONSTRAINT ->
      advance p;
      let cl = loc p in
      let name = parse_name p ~stop:(fun t -> t = COLON || t = LBRACKET) in
      let binders = parse_binders p in
      eat p COLON;
      let body = parse_bexp p in
      Ast.Constraint
        { Ast.c_loc = cl; c_name = name; c_binders = binders; c_body = body }
  | KW_INVARIANT ->
      advance p;
      Ast.Invariant (l, parse_bexp p)
  | KW_INIT ->
      advance p;
      Ast.Init (l, parse_init_binds p)
  | t ->
      failp p
        (Printf.sprintf
           "expected a model item (param, topology, var, action, fault, \
            env, constraint, invariant, init), found %s"
           (token_to_string t))

let parse src =
  let p = { toks = Lexer.lex src; pos = 0; depth = 0; src } in
  let l = loc p in
  eat p KW_MODEL;
  let name = parse_name p ~stop:item_start in
  let rec items acc =
    if peek_tok p = EOF then List.rev acc else items (parse_item p :: acc)
  in
  let its = items [] in
  { Ast.m_loc = l; m_name = name; m_items = its }
