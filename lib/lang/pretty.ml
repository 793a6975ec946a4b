open Ast

(* Precedence levels mirror Guarded.Expr.pp so that printing an
   elaborated expression with Expr.pp yields text this module's parser
   accepts with the same meaning. Numeric: additive = 1,
   multiplicative = 2, atoms = 3. Boolean: implies/iff = 1, or = 2,
   and = 3, not = 4, atoms self-delimiting. *)

let rec nexp buf prec (e : nexp) =
  let paren level body =
    if prec > level then begin
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')'
    end
    else body ()
  in
  match e with
  | Int (_, n) ->
      if n < 0 then Buffer.add_string buf (Printf.sprintf "(%d)" n)
      else Buffer.add_string buf (string_of_int n)
  | Ref (_, name, None) -> Buffer.add_string buf name
  | Ref (_, name, Some idx) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '[';
      nexp buf 0 idx;
      Buffer.add_char buf ']'
  | Call (_, name, args) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '(';
      List.iteri
        (fun k a ->
          if k > 0 then Buffer.add_string buf ", ";
          nexp buf 0 a)
        args;
      Buffer.add_char buf ')'
  | Neg (_, a) ->
      Buffer.add_string buf "-(";
      nexp buf 0 a;
      Buffer.add_char buf ')'
  | Binop (_, op, a, b) ->
      let level, sym =
        match op with
        | Add -> (1, " + ")
        | Sub -> (1, " - ")
        | Mul -> (2, " * ")
        | Div -> (2, " / ")
        | Mod -> (2, " mod ")
      in
      paren level (fun () ->
          nexp buf level a;
          Buffer.add_string buf sym;
          nexp buf (level + 1) b)
  | Ite (_, c, a, b) ->
      Buffer.add_string buf "(if ";
      bexp buf 0 c;
      Buffer.add_string buf " then ";
      nexp buf 0 a;
      Buffer.add_string buf " else ";
      nexp buf 0 b;
      Buffer.add_char buf ')'

and bexp buf prec (e : bexp) =
  let paren level body =
    if prec > level then begin
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')'
    end
    else body ()
  in
  match e with
  | Bool (_, b) -> Buffer.add_string buf (if b then "true" else "false")
  | Cmp (_, op, a, b) ->
      let sym =
        match op with
        | Eq -> " = "
        | Ne -> " <> "
        | Lt -> " < "
        | Le -> " <= "
        | Gt -> " > "
        | Ge -> " >= "
      in
      nexp buf 1 a;
      Buffer.add_string buf sym;
      nexp buf 1 b
  | Not (_, a) ->
      paren 4 (fun () ->
          Buffer.add_char buf '~';
          bexp buf 4 a)
  | And (_, a, b) ->
      paren 3 (fun () ->
          bexp buf 3 a;
          Buffer.add_string buf " /\\ ";
          bexp buf 4 b)
  | Or (_, a, b) ->
      paren 2 (fun () ->
          bexp buf 2 a;
          Buffer.add_string buf " \\/ ";
          bexp buf 3 b)
  | Implies (_, a, b) ->
      paren 1 (fun () ->
          bexp buf 2 a;
          Buffer.add_string buf " => ";
          bexp buf 1 b)
  | Iff (_, a, b) ->
      paren 1 (fun () ->
          bexp buf 2 a;
          Buffer.add_string buf " <=> ";
          bexp buf 2 b)
  | Quant (_, q, x, set, body) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (match q with Forall -> "forall" | Exists -> "exists");
      Buffer.add_char buf ' ';
      Buffer.add_string buf x;
      Buffer.add_string buf " in ";
      iset buf set;
      Buffer.add_string buf ": ";
      bexp buf 0 body;
      Buffer.add_char buf ')'

and iset buf = function
  | Srange (lo, hi) ->
      nexp buf 0 lo;
      Buffer.add_string buf "..";
      nexp buf 0 hi
  | Snodes -> Buffer.add_string buf "nodes"
  | Snonroot -> Buffer.add_string buf "nonroot"
  | Schildren e ->
      Buffer.add_string buf "children(";
      nexp buf 0 e;
      Buffer.add_char buf ')'

let domain buf = function
  | Dbool -> Buffer.add_string buf "bool"
  | Drange (lo, hi) ->
      nexp buf 0 lo;
      Buffer.add_string buf "..";
      nexp buf 0 hi
  | Denum (name, labels) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '{';
      List.iteri
        (fun k l ->
          if k > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf l)
        labels;
      Buffer.add_char buf '}'

let binders buf bs =
  List.iter
    (fun b ->
      Buffer.add_char buf '[';
      Buffer.add_string buf b.b_name;
      Buffer.add_string buf " in ";
      iset buf b.b_set;
      Buffer.add_char buf ']')
    bs

let act buf kw (a : act) =
  Buffer.add_string buf kw;
  Buffer.add_char buf ' ';
  Buffer.add_string buf a.a_name;
  binders buf a.a_binders;
  Buffer.add_string buf ":\n  ";
  bexp buf 0 a.a_guard;
  Buffer.add_string buf " -> ";
  (match a.a_assigns with
  | None -> Buffer.add_string buf "skip"
  | Some (lhss, rhss) ->
      List.iteri
        (fun k l ->
          if k > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf l.l_name;
          match l.l_index with
          | None -> ()
          | Some idx ->
              Buffer.add_char buf '[';
              nexp buf 0 idx;
              Buffer.add_char buf ']')
        lhss;
      Buffer.add_string buf " := ";
      List.iteri
        (fun k r ->
          if k > 0 then Buffer.add_string buf ", ";
          nexp buf 0 r)
        rhss);
  Buffer.add_char buf '\n'

let item buf = function
  | Param (_, name, e) ->
      Buffer.add_string buf "param ";
      Buffer.add_string buf name;
      Buffer.add_string buf " = ";
      nexp buf 0 e;
      Buffer.add_char buf '\n'
  | Topology (Tring (_, n)) ->
      Buffer.add_string buf "topology ring(";
      nexp buf 0 n;
      Buffer.add_string buf ")\n"
  | Topology (Ttree (_, shape, n, seed)) ->
      Buffer.add_string buf "topology tree(";
      Buffer.add_string buf shape;
      Buffer.add_string buf ", ";
      nexp buf 0 n;
      (match seed with
      | None -> ()
      | Some s ->
          Buffer.add_string buf ", ";
          Buffer.add_string buf (string_of_int s));
      Buffer.add_string buf ")\n"
  | Vars decls ->
      Buffer.add_string buf "var ";
      List.iteri
        (fun k d ->
          if k > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf d.v_name;
          (match d.v_size with
          | None -> ()
          | Some n ->
              Buffer.add_char buf '[';
              nexp buf 0 n;
              Buffer.add_char buf ']');
          Buffer.add_string buf " : ";
          domain buf d.v_dom)
        decls;
      Buffer.add_char buf '\n'
  | Action a -> act buf "action" a
  | Fault a -> act buf "fault" a
  | Env a -> act buf "env" a
  | Constraint c ->
      Buffer.add_string buf "constraint ";
      Buffer.add_string buf c.c_name;
      binders buf c.c_binders;
      Buffer.add_string buf ":\n  ";
      bexp buf 0 c.c_body;
      Buffer.add_char buf '\n'
  | Invariant (_, e) ->
      Buffer.add_string buf "invariant ";
      bexp buf 0 e;
      Buffer.add_char buf '\n'
  | Init (_, binds) ->
      Buffer.add_string buf "init ";
      List.iteri
        (fun k b ->
          if k > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf b.i_name;
          (match b.i_index with
          | None -> ()
          | Some (Iexact e) ->
              Buffer.add_char buf '[';
              nexp buf 0 e;
              Buffer.add_char buf ']'
          | Some (Iall (x, set)) ->
              Buffer.add_char buf '[';
              Buffer.add_string buf x;
              Buffer.add_string buf " in ";
              iset buf set;
              Buffer.add_char buf ']');
          Buffer.add_string buf " = ";
          nexp buf 0 b.i_value)
        binds;
      Buffer.add_char buf '\n'

let print (m : model) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "model ";
  Buffer.add_string buf m.m_name;
  Buffer.add_char buf '\n';
  List.iter
    (fun it ->
      Buffer.add_char buf '\n';
      item buf it)
    m.m_items;
  Buffer.contents buf
