open Guarded
module Tree = Topology.Tree
module Ring = Topology.Ring

type t = {
  name : string;
  env : Env.t;
  program : Program.t;
  fault_actions : Action.t list;
  env_actions : Action.t list;
  constraints : (string * Expr.boolean) list;
  invariant_expr : Expr.boolean;
  invariant : State.t -> bool;
  init : State.t;
  params : (string * int) list;
}

type topo = Tring of Ring.t | Ttree of Tree.t
type ventry = Scalar of Var.t | Family of Var.t array

type ctx = {
  src : Source.t;
  env : Env.t;
  mutable params : (string * int) list;  (* declaration order *)
  mutable labels : (string * int) list;  (* enum label -> value *)
  mutable topo : topo option;
  mutable vents : (string * ventry) list;
}

let fail ctx loc msg = Err.fail ctx.src loc msg

let nexp_loc : Ast.nexp -> Loc.t = function
  | Ast.Int (l, _)
  | Ast.Ref (l, _, _)
  | Ast.Call (l, _, _)
  | Ast.Neg (l, _)
  | Ast.Binop (l, _, _, _)
  | Ast.Ite (l, _, _, _) ->
      l

(* Same clamping discipline as Gen.Spec.materialize: every assignment
   right-hand side is pinched into the target domain, so executing an
   action can never raise State.Domain_violation. *)
let bounds = function
  | Domain.Bool -> (0, 1)
  | Domain.Range { lo; hi } -> (lo, hi)
  | Domain.Enum { labels; _ } -> (0, Array.length labels - 1)

let clamp_rhs dom rhs =
  let lo, hi = bounds dom in
  if lo = hi then Expr.Const lo
  else
    Expr.simplify_num (Expr.max_ (Expr.min_ rhs (Expr.Const hi)) (Expr.Const lo))

let topo_size ctx =
  match ctx.topo with
  | Some (Ttree t) -> Tree.size t
  | Some (Tring r) -> Ring.size r
  | None -> 0

let check_node ctx loc what j =
  let n = topo_size ctx in
  if j < 0 || j >= n then
    fail ctx loc
      (Printf.sprintf "%s: node index %d is out of range 0..%d" what j (n - 1));
  j

let topo_call ctx loc fn j =
  match (fn, ctx.topo) with
  | _, None ->
      fail ctx loc (Printf.sprintf "%s requires a topology declaration" fn)
  | "parent", Some (Ttree t) -> Tree.parent t (check_node ctx loc fn j)
  | "parent", Some (Tring _) -> fail ctx loc "parent requires a tree topology"
  | "succ", Some (Tring r) -> Ring.succ r (check_node ctx loc fn j)
  | "pred", Some (Tring r) -> Ring.pred r (check_node ctx loc fn j)
  | ("succ" | "pred"), Some (Ttree _) ->
      fail ctx loc (Printf.sprintf "%s requires a ring topology" fn)
  | _ -> fail ctx loc (Printf.sprintf "unknown function %s" fn)

let cmp_int (op : Ast.cmp) a b =
  match op with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b

let cmp_op : Ast.cmp -> Expr.cmp = function
  | Ast.Eq -> Expr.Eq
  | Ast.Ne -> Expr.Ne
  | Ast.Lt -> Expr.Lt
  | Ast.Le -> Expr.Le
  | Ast.Gt -> Expr.Gt
  | Ast.Ge -> Expr.Ge

(* ------------------------------------------------------------------ *)
(* Constant evaluation: parameters, binders, enum labels, topology.   *)
(* State variables are rejected — these contexts (domain bounds,      *)
(* family sizes and indices, binder sets, init values) must be fixed  *)
(* at compile time.                                                   *)
(* ------------------------------------------------------------------ *)

let rec eval_const ctx bnd (e : Ast.nexp) : int =
  match e with
  | Ast.Int (_, n) -> n
  | Ast.Ref (loc, name, None) -> (
      match List.assoc_opt name bnd with
      | Some v -> v
      | None -> (
          match List.assoc_opt name ctx.params with
          | Some v -> v
          | None -> (
              match (name, ctx.topo) with
              | "root", Some (Ttree t) -> Tree.root t
              | "root", Some (Tring _) ->
                  fail ctx loc "root requires a tree topology"
              | _ -> (
                  match List.assoc_opt name ctx.labels with
                  | Some v -> v
                  | None ->
                      if List.mem_assoc name ctx.vents then
                        fail ctx loc
                          (Printf.sprintf
                             "variable %s cannot appear in a constant \
                              expression"
                             name)
                      else
                        fail ctx loc
                          (Printf.sprintf
                             "unknown name %s in constant expression" name)))))
  | Ast.Ref (loc, name, Some _) ->
      fail ctx loc
        (Printf.sprintf "%s[...] is not allowed in a constant expression" name)
  | Ast.Call (loc, ("min" | "max" as fn), args) -> (
      match args with
      | [ a; b ] ->
          let a = eval_const ctx bnd a and b = eval_const ctx bnd b in
          if fn = "min" then min a b else max a b
      | _ ->
          fail ctx loc
            (Printf.sprintf "%s expects 2 arguments, got %d" fn
               (List.length args)))
  | Ast.Call (loc, fn, args) -> (
      match args with
      | [ a ] -> topo_call ctx loc fn (eval_const ctx bnd a)
      | _ ->
          fail ctx loc
            (Printf.sprintf "%s expects 1 argument, got %d" fn
               (List.length args)))
  | Ast.Neg (_, a) -> -eval_const ctx bnd a
  | Ast.Binop (_, op, a, b) -> (
      let a = eval_const ctx bnd a in
      let bv = eval_const ctx bnd b in
      match op with
      | Ast.Add -> a + bv
      | Ast.Sub -> a - bv
      | Ast.Mul -> a * bv
      | Ast.Div ->
          if bv = 0 then
            fail ctx (nexp_loc b) "division by zero in constant expression"
          else a / bv
      | Ast.Mod ->
          if bv = 0 then
            fail ctx (nexp_loc b) "division by zero in constant expression"
          else a mod bv)
  | Ast.Ite (_, c, a, b) ->
      if eval_const_bool ctx bnd c then eval_const ctx bnd a
      else eval_const ctx bnd b

and eval_const_bool ctx bnd (e : Ast.bexp) : bool =
  match e with
  | Ast.Bool (_, b) -> b
  | Ast.Cmp (_, op, a, b) ->
      cmp_int op (eval_const ctx bnd a) (eval_const ctx bnd b)
  | Ast.Not (_, a) -> not (eval_const_bool ctx bnd a)
  | Ast.And (_, a, b) -> eval_const_bool ctx bnd a && eval_const_bool ctx bnd b
  | Ast.Or (_, a, b) -> eval_const_bool ctx bnd a || eval_const_bool ctx bnd b
  | Ast.Implies (_, a, b) ->
      (not (eval_const_bool ctx bnd a)) || eval_const_bool ctx bnd b
  | Ast.Iff (_, a, b) ->
      eval_const_bool ctx bnd a = eval_const_bool ctx bnd b
  | Ast.Quant (loc, q, x, set, body) -> (
      let vals = eval_iset ctx bnd loc set in
      let test v = eval_const_bool ctx ((x, v) :: bnd) body in
      match q with
      | Ast.Forall -> List.for_all test vals
      | Ast.Exists -> List.exists test vals)

and eval_iset ctx bnd loc (s : Ast.iset) : int list =
  match s with
  | Ast.Srange (lo, hi) ->
      let lo = eval_const ctx bnd lo and hi = eval_const ctx bnd hi in
      List.init (max 0 (hi - lo + 1)) (fun k -> lo + k)
  | Ast.Snodes -> (
      match ctx.topo with
      | Some (Ttree t) -> Tree.nodes t
      | Some (Tring r) -> Ring.nodes r
      | None -> fail ctx loc "nodes requires a topology declaration")
  | Ast.Snonroot -> (
      match ctx.topo with
      | Some (Ttree t) -> Tree.non_root_nodes t
      | Some (Tring _) -> fail ctx loc "nonroot requires a tree topology"
      | None -> fail ctx loc "nonroot requires a tree topology")
  | Ast.Schildren e -> (
      match ctx.topo with
      | Some (Ttree t) ->
          Tree.children t (check_node ctx loc "children" (eval_const ctx bnd e))
      | Some (Tring _) -> fail ctx loc "children requires a tree topology"
      | None -> fail ctx loc "children requires a tree topology")

(* ------------------------------------------------------------------ *)
(* State expressions: guards, right-hand sides, constraint bodies.    *)
(* ------------------------------------------------------------------ *)

let mk_binop (op : Ast.binop) a b =
  match (a, b) with
  | Expr.Const x, Expr.Const y ->
      Expr.Const
        (match op with
        | Ast.Add -> x + y
        | Ast.Sub -> x - y
        | Ast.Mul -> x * y
        | Ast.Div -> x / y
        | Ast.Mod -> x mod y)
  | _ -> (
      match op with
      | Ast.Add -> Expr.Add (a, b)
      | Ast.Sub -> Expr.Sub (a, b)
      | Ast.Mul -> Expr.Mul (a, b)
      | Ast.Div -> Expr.Div (a, b)
      | Ast.Mod -> Expr.Mod (a, b))

let rec compile_num ctx bnd (e : Ast.nexp) : Expr.num =
  match e with
  | Ast.Int (_, n) -> Expr.Const n
  | Ast.Ref (loc, name, None) -> (
      match List.assoc_opt name bnd with
      | Some v -> Expr.Const v
      | None -> (
          match List.assoc_opt name ctx.vents with
          | Some (Scalar v) -> Expr.Var v
          | Some (Family arr) ->
              fail ctx loc
                (Printf.sprintf
                   "%s is a family of %d variables and needs an index" name
                   (Array.length arr))
          | None -> (
              match List.assoc_opt name ctx.params with
              | Some v -> Expr.Const v
              | None -> (
                  match (name, ctx.topo) with
                  | "root", Some (Ttree t) -> Expr.Const (Tree.root t)
                  | "root", Some (Tring _) ->
                      fail ctx loc "root requires a tree topology"
                  | _ -> (
                      match List.assoc_opt name ctx.labels with
                      | Some v -> Expr.Const v
                      | None ->
                          fail ctx loc
                            (Printf.sprintf "unknown variable %s" name))))))
  | Ast.Ref (loc, name, Some idx) -> (
      match List.assoc_opt name ctx.vents with
      | Some (Family arr) ->
          let i = eval_const ctx bnd idx in
          if i < 0 || i >= Array.length arr then
            fail ctx (nexp_loc idx)
              (Printf.sprintf "index %d is out of range for %s[0..%d]" i name
                 (Array.length arr - 1));
          Expr.Var arr.(i)
      | Some (Scalar _) ->
          fail ctx loc
            (Printf.sprintf "%s is a scalar variable and cannot be indexed"
               name)
      | None -> fail ctx loc (Printf.sprintf "unknown family %s" name))
  | Ast.Call (loc, ("min" | "max" as fn), args) -> (
      match args with
      | [ a; b ] ->
          let a = compile_num ctx bnd a and b = compile_num ctx bnd b in
          if fn = "min" then Expr.Min (a, b) else Expr.Max (a, b)
      | _ ->
          fail ctx loc
            (Printf.sprintf "%s expects 2 arguments, got %d" fn
               (List.length args)))
  | Ast.Call (loc, fn, args) -> (
      (* parent/succ/pred: topology is static, so the argument must be
         a compile-time constant and the call folds to a constant *)
      match args with
      | [ a ] -> Expr.Const (topo_call ctx loc fn (eval_const ctx bnd a))
      | _ ->
          fail ctx loc
            (Printf.sprintf "%s expects 1 argument, got %d" fn
               (List.length args)))
  | Ast.Neg (_, a) -> (
      match compile_num ctx bnd a with
      | Expr.Const n -> Expr.Const (-n)
      | a -> Expr.Neg a)
  | Ast.Binop (_, op, a, b) -> (
      let a' = compile_num ctx bnd a in
      let b' = compile_num ctx bnd b in
      match op with
      | Ast.Div | Ast.Mod -> (
          match Expr.simplify_num b' with
          | Expr.Const 0 -> fail ctx (nexp_loc b) "division by zero"
          | Expr.Const _ -> mk_binop op a' b'
          | _ ->
              fail ctx (nexp_loc b)
                "divisor must be a non-zero constant expression")
      | _ -> mk_binop op a' b')
  | Ast.Ite (_, c, a, b) ->
      Expr.Ite (compile_bool ctx bnd c, compile_num ctx bnd a, compile_num ctx bnd b)

and compile_bool ctx bnd (e : Ast.bexp) : Expr.boolean =
  match e with
  | Ast.Bool (_, true) -> Expr.True
  | Ast.Bool (_, false) -> Expr.False
  | Ast.Cmp (_, op, a, b) ->
      Expr.Cmp (cmp_op op, compile_num ctx bnd a, compile_num ctx bnd b)
  | Ast.Not (_, a) -> Expr.Not (compile_bool ctx bnd a)
  | Ast.And (_, a, b) -> Expr.And (compile_bool ctx bnd a, compile_bool ctx bnd b)
  | Ast.Or (_, a, b) -> Expr.Or (compile_bool ctx bnd a, compile_bool ctx bnd b)
  | Ast.Implies (_, a, b) ->
      Expr.Implies (compile_bool ctx bnd a, compile_bool ctx bnd b)
  | Ast.Iff (_, a, b) -> Expr.Iff (compile_bool ctx bnd a, compile_bool ctx bnd b)
  | Ast.Quant (loc, q, x, set, body) -> (
      let vals = eval_iset ctx bnd loc set in
      let insts = List.map (fun v -> compile_bool ctx ((x, v) :: bnd) body) vals in
      match q with Ast.Forall -> Expr.conj insts | Ast.Exists -> Expr.disj insts)

(* ------------------------------------------------------------------ *)
(* Items.                                                             *)
(* ------------------------------------------------------------------ *)

let resolve_lhs ctx bnd (l : Ast.lhs) : Var.t =
  match List.assoc_opt l.Ast.l_name ctx.vents with
  | Some (Scalar v) -> (
      match l.Ast.l_index with
      | None -> v
      | Some _ ->
          fail ctx l.Ast.l_loc
            (Printf.sprintf "%s is a scalar variable and cannot be indexed"
               l.Ast.l_name))
  | Some (Family arr) -> (
      match l.Ast.l_index with
      | None ->
          fail ctx l.Ast.l_loc
            (Printf.sprintf "%s is a family of %d variables and needs an index"
               l.Ast.l_name (Array.length arr))
      | Some idx ->
          let i = eval_const ctx bnd idx in
          if i < 0 || i >= Array.length arr then
            fail ctx (nexp_loc idx)
              (Printf.sprintf "index %d is out of range for %s[0..%d]" i
                 l.Ast.l_name (Array.length arr - 1));
          arr.(i))
  | None ->
      if List.mem_assoc l.Ast.l_name ctx.params then
        fail ctx l.Ast.l_loc
          (Printf.sprintf "cannot assign to parameter %s" l.Ast.l_name)
      else
        fail ctx l.Ast.l_loc
          (Printf.sprintf "unknown variable %s" l.Ast.l_name)

(* Expand an action's (or constraint's) binder list into the list of
   complete bindings, in declaration order per binder and ascending
   value order per set — the expansion order fixes action order in the
   compiled program. *)
let expand_binders ctx (binders : Ast.binder list) : (string * int) list list =
  let rec go bnd = function
    | [] -> [ List.rev bnd ]
    | (b : Ast.binder) :: rest ->
        if List.mem_assoc b.Ast.b_name bnd then
          fail ctx b.Ast.b_loc
            (Printf.sprintf "duplicate binder %s" b.Ast.b_name);
        let vals = eval_iset ctx bnd b.Ast.b_loc b.Ast.b_set in
        List.concat_map (fun v -> go ((b.Ast.b_name, v) :: bnd) rest) vals
  in
  go [] binders

let suffix_of bnd =
  String.concat "" (List.map (fun (_, v) -> "." ^ string_of_int v) bnd)

let elaborate_act ctx seen ~prefix (a : Ast.act) : Action.t list =
  expand_binders ctx a.Ast.a_binders
  |> List.map (fun bnd ->
         let name = a.Ast.a_name ^ suffix_of bnd in
         let full = prefix ^ name in
         (if Hashtbl.mem seen full then
            fail ctx a.Ast.a_loc
              (Printf.sprintf "duplicate action name %s" full));
         Hashtbl.add seen full ();
         (* binder lookup wants innermost-first *)
         let bnd = List.rev bnd in
         let guard = compile_bool ctx bnd a.Ast.a_guard in
         let assigns =
           match a.Ast.a_assigns with
           | None -> []
           | Some (lhss, rhss) ->
               List.map2
                 (fun l r ->
                   let v = resolve_lhs ctx bnd l in
                   let rhs = compile_num ctx bnd r in
                   (match Expr.simplify_num rhs with
                   | Expr.Const c when not (Domain.mem (Var.domain v) c) ->
                       fail ctx (nexp_loc r)
                         (Printf.sprintf
                            "value %d is outside the domain of %s" c
                            (Var.name v))
                   | _ -> ());
                   (v, clamp_rhs (Var.domain v) rhs))
                 lhss rhss
         in
         let rec dup_target = function
           | [] -> None
           | (v, _) :: rest ->
               if List.exists (fun (w, _) -> Var.equal v w) rest then Some v
               else dup_target rest
         in
         (match dup_target assigns with
         | Some v ->
             fail ctx a.Ast.a_loc
               (Printf.sprintf "action %s assigns twice to %s" full
                  (Var.name v))
         | None -> ());
         Action.make ~name:full ~guard assigns)

let model ?(params = []) (src : Source.t) (m : Ast.model) : t =
  let ctx =
    { src; env = Env.create (); params = []; labels = []; topo = None; vents = [] }
  in
  List.iter
    (fun (name, _) ->
      let declared =
        List.exists
          (function Ast.Param (_, n, _) -> n = name | _ -> false)
          m.Ast.m_items
      in
      if not declared then
        Err.fail src m.Ast.m_loc
          (Printf.sprintf "unknown parameter %s (model %s does not declare it)"
             name m.Ast.m_name))
    params;
  let prog_acts = ref [] and fault_acts = ref [] and env_acts = ref [] in
  let prog_seen = Hashtbl.create 16
  and fault_seen = Hashtbl.create 16
  and env_seen = Hashtbl.create 16 in
  let constraints = ref [] and invariants = ref [] in
  let init_sets = ref [] and init_loc = ref None in
  let do_item = function
    | Ast.Param (loc, name, e) ->
        if List.mem_assoc name ctx.params then
          fail ctx loc (Printf.sprintf "duplicate parameter %s" name);
        if List.mem_assoc name ctx.vents then
          fail ctx loc
            (Printf.sprintf "parameter %s collides with a variable" name);
        let v =
          match List.assoc_opt name params with
          | Some v -> v
          | None -> eval_const ctx [] e
        in
        ctx.params <- ctx.params @ [ (name, v) ]
    | Ast.Topology topo ->
        let loc =
          match topo with Ast.Tring (l, _) | Ast.Ttree (l, _, _, _) -> l
        in
        (match ctx.topo with
        | Some _ -> fail ctx loc "topology already declared"
        | None -> ());
        let built =
          match topo with
          | Ast.Tring (_, n) ->
              let n = eval_const ctx [] n in
              if n < 2 then
                fail ctx loc
                  (Printf.sprintf "ring size must be at least 2, got %d" n);
              Tring (Ring.create n)
          | Ast.Ttree (_, shape, n, seed) -> (
              let n = eval_const ctx [] n in
              if n < 1 then
                fail ctx loc
                  (Printf.sprintf "tree size must be positive, got %d" n);
              match shape with
              | "chain" -> Ttree (Tree.chain n)
              | "star" -> Ttree (Tree.star n)
              | "balanced" | "balanced-2" -> Ttree (Tree.balanced ~arity:2 n)
              | "balanced-3" -> Ttree (Tree.balanced ~arity:3 n)
              | "random" ->
                  let seed = match seed with Some s -> s | None -> 0 in
                  Ttree (Tree.random (Prng.create seed) n)
              | s ->
                  fail ctx loc
                    (Printf.sprintf
                       "unknown tree shape %s (expected chain, star, \
                        balanced, balanced-2, balanced-3, or random)"
                       s))
        in
        ctx.topo <- Some built
    | Ast.Vars decls ->
        List.iter
          (fun (d : Ast.vdecl) ->
            if List.mem_assoc d.Ast.v_name ctx.vents then
              fail ctx d.Ast.v_loc
                (Printf.sprintf "duplicate variable %s" d.Ast.v_name);
            if List.mem_assoc d.Ast.v_name ctx.params then
              fail ctx d.Ast.v_loc
                (Printf.sprintf "variable %s collides with a parameter"
                   d.Ast.v_name);
            let dom =
              match d.Ast.v_dom with
              | Ast.Dbool -> Domain.bool
              | Ast.Drange (lo, hi) ->
                  let l = eval_const ctx [] lo in
                  let h = eval_const ctx [] hi in
                  if h < l then
                    fail ctx (nexp_loc lo)
                      (Printf.sprintf "empty range %d..%d" l h);
                  Domain.range l h
              | Ast.Denum (ename, lbls) ->
                  let here = Hashtbl.create 8 in
                  List.iteri
                    (fun i lbl ->
                      if Hashtbl.mem here lbl then
                        fail ctx d.Ast.v_loc
                          (Printf.sprintf "duplicate enum label %s" lbl);
                      Hashtbl.add here lbl ();
                      match List.assoc_opt lbl ctx.labels with
                      | Some v when v <> i ->
                          fail ctx d.Ast.v_loc
                            (Printf.sprintf
                               "enum label %s already denotes %d and cannot \
                                also denote %d"
                               lbl v i)
                      | Some _ -> ()
                      | None -> ctx.labels <- ctx.labels @ [ (lbl, i) ])
                    lbls;
                  Domain.enum ename lbls
            in
            let ent =
              match d.Ast.v_size with
              | None -> Scalar (Env.fresh ctx.env d.Ast.v_name dom)
              | Some n ->
                  let k = eval_const ctx [] n in
                  if k < 1 then
                    fail ctx (nexp_loc n)
                      (Printf.sprintf "family size must be positive, got %d" k);
                  Family (Env.fresh_family ctx.env d.Ast.v_name k dom)
            in
            ctx.vents <- ctx.vents @ [ (d.Ast.v_name, ent) ])
          decls
    | Ast.Action a ->
        prog_acts := List.rev_append (elaborate_act ctx prog_seen ~prefix:"" a) !prog_acts
    | Ast.Fault a ->
        fault_acts :=
          List.rev_append (elaborate_act ctx fault_seen ~prefix:"fault:" a) !fault_acts
    | Ast.Env a ->
        env_acts :=
          List.rev_append (elaborate_act ctx env_seen ~prefix:"env:" a) !env_acts
    | Ast.Constraint c ->
        expand_binders ctx c.Ast.c_binders
        |> List.iter (fun bnd ->
               let name = c.Ast.c_name ^ suffix_of bnd in
               if List.mem_assoc name !constraints then
                 fail ctx c.Ast.c_loc
                   (Printf.sprintf "duplicate constraint name %s" name);
               let body = compile_bool ctx (List.rev bnd) c.Ast.c_body in
               constraints := !constraints @ [ (name, body) ])
    | Ast.Invariant (_, e) -> invariants := !invariants @ [ compile_bool ctx [] e ]
    | Ast.Init (loc, binds) ->
        if !init_loc = None then init_loc := Some loc;
        List.iter
          (fun (b : Ast.init_bind) ->
            let targets =
              match List.assoc_opt b.Ast.i_name ctx.vents with
              | Some (Scalar v) -> (
                  match b.Ast.i_index with
                  | None -> [ (v, []) ]
                  | Some _ ->
                      fail ctx b.Ast.i_loc
                        (Printf.sprintf
                           "%s is a scalar variable and cannot be indexed"
                           b.Ast.i_name))
              | Some (Family arr) -> (
                  match b.Ast.i_index with
                  | None ->
                      fail ctx b.Ast.i_loc
                        (Printf.sprintf
                           "%s is a family; write %s[i] = e or %s[j in set] \
                            = e"
                           b.Ast.i_name b.Ast.i_name b.Ast.i_name)
                  | Some (Ast.Iexact e) ->
                      let i = eval_const ctx [] e in
                      if i < 0 || i >= Array.length arr then
                        fail ctx (nexp_loc e)
                          (Printf.sprintf "index %d is out of range for \
                                           %s[0..%d]"
                             i b.Ast.i_name (Array.length arr - 1));
                      [ (arr.(i), []) ]
                  | Some (Ast.Iall (x, set)) ->
                      eval_iset ctx [] b.Ast.i_loc set
                      |> List.map (fun j ->
                             if j < 0 || j >= Array.length arr then
                               fail ctx b.Ast.i_loc
                                 (Printf.sprintf
                                    "index %d is out of range for %s[0..%d]" j
                                    b.Ast.i_name (Array.length arr - 1));
                             (arr.(j), [ (x, j) ])))
              | None ->
                  fail ctx b.Ast.i_loc
                    (Printf.sprintf "unknown variable %s" b.Ast.i_name)
            in
            List.iter
              (fun (var, bnd) ->
                let v = eval_const ctx bnd b.Ast.i_value in
                if not (Domain.mem (Var.domain var) v) then
                  fail ctx (nexp_loc b.Ast.i_value)
                    (Printf.sprintf "value %d is outside the domain of %s" v
                       (Var.name var));
                init_sets := !init_sets @ [ (var, v) ])
              targets)
          binds
  in
  List.iter do_item m.Ast.m_items;
  if Env.var_count ctx.env = 0 then
    Err.fail src m.Ast.m_loc "model declares no variables";
  let program = Program.make ~name:m.Ast.m_name ctx.env (List.rev !prog_acts) in
  let constraints = !constraints in
  if constraints = [] && !invariants = [] then
    Err.fail src m.Ast.m_loc
      "model has no invariant (add an invariant or constraint item)";
  let invariant_expr = Expr.conj (List.map snd constraints @ !invariants) in
  let init = State.make ctx.env in
  List.iter (fun (var, v) -> State.set init var v) !init_sets;
  if not (Expr.eval init invariant_expr) then begin
    let loc = match !init_loc with Some l -> l | None -> m.Ast.m_loc in
    Err.fail src loc
      (Printf.sprintf "the initial state %s does not satisfy the invariant"
         (State.to_string ctx.env init))
  end;
  {
    name = m.Ast.m_name;
    env = ctx.env;
    program;
    fault_actions = List.rev !fault_acts;
    env_actions = List.rev !env_acts;
    constraints;
    invariant_expr;
    invariant = Compile.pred invariant_expr;
    init;
    params = ctx.params;
  }
