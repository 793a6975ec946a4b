(* Tests for the guarded-command notation as the .nm front end parses
   it: expressions, actions, declarations, whole models, located errors
   — and the roundtrip law over every protocol program in the library:
   a program printed with Guarded.Expr's printer and wrapped in a model
   compiles back to the same guards and right-hand sides. *)

module Env = Guarded.Env
module Domain = Guarded.Domain
module State = Guarded.State
module Expr = Guarded.Expr
module Action = Guarded.Action
module Program = Guarded.Program
module Var = Guarded.Var

let compile src = Lang.Driver.compile_string src

(* The variables of [xy_model], declared in the same order with the same
   domains: they compare equal to the compiled model's own. *)
let mk_env () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range (-5) 5) in
  let y = Env.fresh env "y" (Domain.range (-5) 5) in
  (env, x, y)

(* A two-variable model whose one action carries [bexp] as its guard. *)
let xy_model bexp =
  Printf.sprintf
    "model t\nvar x : -5..5\nvar y : -5..5\naction a: %s -> skip\n\
     invariant true\n"
    bexp

let guard_of bexp =
  Action.guard (Program.action_at (compile (xy_model bexp)).program 0)

(* A numeric expression rides in the guard as [<nexp> = 0]. *)
let num_of nexp =
  match guard_of (nexp ^ " = 0") with
  | Expr.Cmp (Expr.Eq, e, Expr.Const 0) -> e
  | b -> Alcotest.failf "%s = 0 compiled to %s" nexp (Expr.to_string b)

(* --- expressions --- *)

let test_parse_num_basics () =
  let _, x, y = mk_env () in
  let check src expected =
    let e = num_of src in
    if not (Expr.equal_num e expected) then
      Alcotest.failf "%s parsed as %s" src (Expr.num_to_string e)
  in
  check "42" (Expr.Const 42);
  check "x" (Expr.Var x);
  check "x + 1" Expr.(var x + int 1);
  check "x + y * 2" Expr.(var x + (var y * int 2));
  check "(x + y) * 2" Expr.((var x + var y) * int 2);
  check "x - 1 - 2" Expr.(var x - int 1 - int 2);
  check "x mod 3" Expr.(var x mod int 3);
  check "x / 2" Expr.(var x / int 2);
  check "min(x, y)" (Expr.min_ (Expr.var x) (Expr.var y));
  check "max(x, 0)" (Expr.max_ (Expr.var x) (Expr.int 0));
  check "-x" (Expr.neg (Expr.var x));
  check "(-3)" (Expr.Const (-3));
  check "(if x = y then 1 else 0)"
    (Expr.ite Expr.(var x = var y) (Expr.int 1) (Expr.int 0))

let test_parse_bexp_basics () =
  let _, x, y = mk_env () in
  let check src expected =
    let b = guard_of src in
    if not (Expr.equal b expected) then
      Alcotest.failf "%s parsed as %s" src (Expr.to_string b)
  in
  check "true" Expr.tt;
  check "false" Expr.ff;
  check "x = y" Expr.(var x = var y);
  check "x <> y" Expr.(var x <> var y);
  check "x <= y" Expr.(var x <= var y);
  check "x = 1 /\\ y = 2" Expr.(var x = int 1 && var y = int 2);
  check "x = 1 \\/ y = 2" Expr.(var x = int 1 || var y = int 2);
  check "~x = 1" (Expr.not_ Expr.(var x = int 1));
  check "x = 1 => y = 2" Expr.(var x = int 1 ==> (var y = int 2));
  check "x = 1 <=> y = 2" Expr.(var x = int 1 <=> (var y = int 2));
  (* precedence: /\ binds tighter than \/ *)
  check "x = 1 /\\ y = 2 \\/ x = 3"
    Expr.(var x = int 1 && var y = int 2 || var x = int 3);
  (* parenthesized boolean *)
  check "x = 1 /\\ (y = 2 \\/ x = 3)"
    Expr.(var x = int 1 && (var y = int 2 || var x = int 3))

let test_parse_action () =
  let _, x, y = mk_env () in
  let p =
    (compile
       {|model t
var x : -5..5
var y : -5..5
action step: x < y -> x, y := x + 1, y - 1
action noop: x = 0 -> skip
action bump-y[j in 2..2]: true -> y := 0
invariant true
|})
      .program
  in
  let a = Program.action_at p 0 in
  Alcotest.(check string) "name" "step" (Action.name a);
  Alcotest.(check bool) "guard" true
    (Expr.equal (Action.guard a) Expr.(var x < var y));
  Alcotest.(check int) "two assignments" 2 (List.length (Action.assigns a));
  let skip = Program.action_at p 1 in
  Alcotest.(check int) "skip" 0 (List.length (Action.assigns skip));
  let dashed = Program.action_at p 2 in
  Alcotest.(check string) "dashed name" "bump-y.2" (Action.name dashed)

let test_parse_program () =
  let src =
    {|
    model updown
    var x : 0..3
    var b : bool
    var c : color{green,red}
    action up: x < 3 /\ b = 1 -> x := x + 1
    action down: x > 0 -> x, b := x - 1, 0
    action paint: c = 0 -> c := 1
    invariant true
    |}
  in
  let em = compile src in
  let env = em.env and p = em.program in
  Alcotest.(check string) "name" "updown" (Program.name p);
  Alcotest.(check int) "three actions" 3 (Program.action_count p);
  Alcotest.(check int) "three vars" 3 (Env.var_count env);
  let x = Env.lookup_exn env "x" in
  Alcotest.(check bool) "x domain" true
    (Domain.equal (Var.domain x) (Domain.range 0 3));
  let c = Env.lookup_exn env "c" in
  Alcotest.(check bool) "enum domain" true
    (Domain.equal (Var.domain c) (Domain.enum "color" [ "green"; "red" ]));
  (* behave sanity: run a step *)
  let s = State.make env in
  State.set s (Env.lookup_exn env "b") 1;
  let up = Option.get (Program.find_action p "up") in
  Alcotest.(check bool) "up enabled" true (Action.enabled up s)

let test_parse_comments_and_multi_decl () =
  let src =
    {|
    model demo (* a (* nested *) comment *)
    var a : 0..1, b : 0..1;
    action t: a = 0 -> a := 1
    invariant true
    |}
  in
  let em = compile src in
  Alcotest.(check int) "two vars" 2 (Env.var_count em.env);
  Alcotest.(check int) "one action" 1 (Program.action_count em.program)

let test_parse_empty_program () =
  let em = compile "model nothing\nvar x : 0..1\ninvariant true" in
  Alcotest.(check int) "no actions" 0 (Program.action_count em.program)

let compile_error src =
  match compile src with
  | exception Lang.Err.Error e -> Some e
  | _ -> None

let test_parse_errors () =
  let expect_error bexp =
    if compile_error (xy_model bexp) = None then
      Alcotest.failf "%s should not parse" bexp
  in
  expect_error "x +";
  expect_error "x = ";
  expect_error "unknownvar = 1";
  expect_error "x = 1 /\\";
  expect_error "x = 1 extra";
  (match compile_error "model p\nvar x : 5..2\ninvariant true" with
  | Some e -> Alcotest.(check bool) "line info" true (e.Lang.Err.line >= 1)
  | None -> Alcotest.fail "empty range should be rejected");
  match
    compile_error
      "model p\nvar x : 0..1\naction q: true -> skip\n\
       action q: true -> skip\ninvariant true"
  with
  | Some _ -> ()
  | None -> Alcotest.fail "duplicate action names should be rejected"

let test_error_position () =
  match
    compile_error
      "model p\nvar x : bool\n(* actions *)\naction a: x @ 1 -> skip\n\
       invariant true"
  with
  | Some e ->
      Alcotest.(check int) "line" 4 e.Lang.Err.line;
      Alcotest.(check bool) "message mentions char" true
        (Astring_contains.contains e.Lang.Err.msg "'@'")
  | None -> Alcotest.fail "@ is not a token"

(* --- the roundtrip law --- *)

(* .nm identifiers carry no dots: [x.0] is written [x_0], [copy.3]
   [copy_3]. *)
let nm_name = String.map (fun c -> if c = '.' then '_' else c)

let domain_text = function
  | Domain.Bool -> "bool"
  | Domain.Range { lo; hi } -> Printf.sprintf "%d..%d" lo hi
  | Domain.Enum { name; labels } ->
      Printf.sprintf "%s{%s}" name (String.concat "," (Array.to_list labels))

(* [p] as a .nm model: one [var] line per variable and one action per
   program action, each guard and right-hand side printed by
   [Expr.to_string] over the renamed variables. Returns the model text
   and the renaming, so expected expressions print the same way. *)
let model_of_program p =
  let env' = Env.create () in
  let renamed =
    Array.map
      (fun v -> Env.fresh env' (nm_name (Var.name v)) (Var.domain v))
      (Env.vars (Program.env p))
  in
  let rename v = Some (Expr.Var renamed.(Var.index v)) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "model roundtrip\n";
  Array.iter
    (fun v ->
      Printf.bprintf buf "var %s : %s\n" (Var.name v)
        (domain_text (Var.domain v)))
    renamed;
  Array.iter
    (fun a ->
      let lhs, rhs =
        List.split
          (List.map
             (fun (v, e) ->
               ( Var.name renamed.(Var.index v),
                 Expr.num_to_string (Expr.subst_num rename e) ))
             (Action.assigns a))
      in
      Printf.bprintf buf "action %s: %s -> %s\n" (nm_name (Action.name a))
        (Expr.to_string (Expr.subst rename (Action.guard a)))
        (if lhs = [] then "skip"
         else String.concat ", " lhs ^ " := " ^ String.concat ", " rhs))
    (Program.actions p);
  Buffer.add_string buf "invariant true\n";
  (Buffer.contents buf, rename)

(* Elab pinches every right-hand side into its target's domain with
   [max(min(e, hi), lo)]; peel that clamp off before comparing. *)
let unclamp = function
  | Expr.Max (Expr.Min (e, Expr.Const _), Expr.Const _) -> e
  | e -> e

let check_roundtrip p =
  let text, rename = model_of_program p in
  let em =
    try compile text
    with Lang.Err.Error e ->
      Alcotest.failf "program %s does not compile: %s@.--@.%s"
        (Program.name p) (Lang.Err.to_string e) text
  in
  let vars = Env.vars (Program.env p) and vars' = Env.vars em.env in
  Alcotest.(check int) (Program.name p ^ ": var count") (Array.length vars)
    (Array.length vars');
  Array.iter2
    (fun v v' ->
      if
        nm_name (Var.name v) <> Var.name v'
        || not (Domain.equal (Var.domain v) (Var.domain v'))
      then
        Alcotest.failf "%s: variable %s changed" (Program.name p)
          (Var.name v))
    vars vars';
  Alcotest.(check int)
    (Program.name p ^ ": action count")
    (Program.action_count p)
    (Program.action_count em.program);
  Array.iter2
    (fun a a' ->
      let fail what want got =
        Alcotest.failf "%s: action %s %s changed:\n  %s\n  %s" (Program.name p)
          (Action.name a) what want got
      in
      if nm_name (Action.name a) <> Action.name a' then
        fail "name" (Action.name a) (Action.name a');
      let guard = Expr.to_string (Expr.subst rename (Action.guard a))
      and guard' = Expr.to_string (Action.guard a') in
      if guard <> guard' then fail "guard" guard guard';
      let assigns = Action.assigns a and assigns' = Action.assigns a' in
      if List.length assigns <> List.length assigns' then
        fail "assignment count" (Action.to_string a) (Action.to_string a');
      List.iter2
        (fun (v, e) (v', e') ->
          let rhs = Expr.num_to_string (Expr.subst_num rename e)
          and rhs' = Expr.num_to_string (unclamp e') in
          if Var.index v <> Var.index v' || rhs <> rhs' then
            fail "assignment"
              (Var.name v ^ " := " ^ rhs)
              (Var.name v' ^ " := " ^ rhs'))
        assigns assigns')
    (Program.actions p) (Program.actions em.program)

let test_roundtrip_protocols () =
  let tree = Topology.Tree.balanced ~arity:2 5 in
  let d = Protocols.Diffusing.make tree in
  check_roundtrip (Protocols.Diffusing.combined d);
  check_roundtrip (Protocols.Diffusing.separate d);
  check_roundtrip (Nonmask.Spec.program (Protocols.Diffusing.spec d));
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  check_roundtrip (Protocols.Token_ring.combined tr);
  check_roundtrip (Protocols.Token_ring.separate tr);
  let dr = Protocols.Dijkstra_ring.make ~nodes:5 ~k:6 in
  check_roundtrip (Protocols.Dijkstra_ring.program dr);
  let a = Protocols.Atomic_action.make tree in
  check_roundtrip (Protocols.Atomic_action.program a);
  let la = Protocols.Diffusing_lowatomic.make tree in
  check_roundtrip (Protocols.Diffusing_lowatomic.program la);
  let nr = Protocols.Naive_ring.make ~nodes:4 in
  check_roundtrip (Protocols.Naive_ring.program nr);
  List.iter
    (fun v -> check_roundtrip (Protocols.Xyz_demo.program (Protocols.Xyz_demo.make v)))
    [ Protocols.Xyz_demo.Good_tree; Protocols.Xyz_demo.Good_ordered;
      Protocols.Xyz_demo.Bad ]

(* Elab folds constant subterms ([1 + 2] compiles to [3]), so a printed
   expression comes back equal in value, not always in shape: compare
   both sides on all 121 (x, y) states. *)
let same_values eval a b =
  let env, x, y = mk_env () in
  let s = State.make env in
  let agree = ref true in
  for vx = -5 to 5 do
    for vy = -5 to 5 do
      State.set s x vx;
      State.set s y vy;
      if eval s a <> eval s b then agree := false
    done
  done;
  !agree

let check_num_roundtrip e =
  let printed = Expr.num_to_string e in
  let e' = num_of printed in
  if not (same_values Expr.eval_num e e') then
    Alcotest.failf "roundtrip changed %s into %s" printed
      (Expr.num_to_string e')

let check_bexp_roundtrip b =
  let printed = Expr.to_string b in
  let b' = guard_of printed in
  if not (same_values Expr.eval b b') then
    Alcotest.failf "roundtrip changed %s into %s" printed (Expr.to_string b')

let test_roundtrip_tricky_expressions () =
  let _, x, y = mk_env () in
  List.iter check_num_roundtrip
    Expr.
      [
        var x + var y * int 2;
        (var x + var y) * int 2;
        var x - (var y - int 1);
        neg (var x + int 1);
        Const (-4);
        min_ (var x) (max_ (var y) (int 0));
        ite (var x = var y) (var x mod int 2) (var y / int 2);
      ];
  List.iter check_bexp_roundtrip
    Expr.
      [
        var x = int 1 && var y = int 2 || var x = int 3;
        (var x = int 1 || var y = int 2) && var x = int 3;
        not_ (var x = int 1 && var y = int 2);
        var x = int 1 ==> (var y = int 2 ==> (var x = int 0));
        (var x = int 1 ==> (var y = int 2)) ==> (var x = int 0);
        var x = int 1 <=> (var y = int 2);
        tt && (ff || var x > int 0);
      ]

let test_roundtrip_random_expressions () =
  (* Random ASTs through print-then-compile keep their value. Divisors
     are non-zero constants: .nm rejects any other divisor. *)
  let _, x, y = mk_env () in
  let rng = Prng.create 20260705 in
  let divisor () =
    let n = Prng.int_in rng 1 4 in
    Expr.Const (if Prng.bool rng then n else -n)
  in
  let rec random_num depth =
    match if depth = 0 then 0 else 1 + Prng.int rng 8 with
    | 0 ->
        if Prng.bool rng then Expr.Const (Prng.int_in rng (-4) 4)
        else Expr.Var (if Prng.bool rng then x else y)
    | 1 -> Expr.Add (random_num (depth - 1), random_num (depth - 1))
    | 2 -> Expr.Sub (random_num (depth - 1), random_num (depth - 1))
    | 3 -> Expr.Mul (random_num (depth - 1), random_num (depth - 1))
    | 4 -> Expr.Div (random_num (depth - 1), divisor ())
    | 5 -> Expr.Mod (random_num (depth - 1), divisor ())
    | 6 -> Expr.Min (random_num (depth - 1), random_num (depth - 1))
    | 7 -> Expr.Neg (random_num (depth - 1))
    | _ -> Expr.Ite (random_bexp (depth - 1), random_num (depth - 1), random_num (depth - 1))
  and random_bexp depth =
    match if depth = 0 then Prng.int rng 2 else Prng.int rng 7 with
    | 0 -> Expr.True
    | 1 -> Expr.False
    | 2 -> Expr.And (random_bexp (depth - 1), random_bexp (depth - 1))
    | 3 -> Expr.Or (random_bexp (depth - 1), random_bexp (depth - 1))
    | 4 -> Expr.Not (random_bexp (depth - 1))
    | 5 -> Expr.Implies (random_bexp (depth - 1), random_bexp (depth - 1))
    | _ ->
        let cmp =
          match Prng.int rng 6 with
          | 0 -> Expr.Eq
          | 1 -> Expr.Ne
          | 2 -> Expr.Lt
          | 3 -> Expr.Le
          | 4 -> Expr.Gt
          | _ -> Expr.Ge
        in
        Expr.Cmp (cmp, random_num (depth - 1), random_num (depth - 1))
  in
  for _ = 1 to 300 do
    check_num_roundtrip (random_num 3);
    check_bexp_roundtrip (random_bexp 3)
  done

let test_parsed_program_runs () =
  (* a compiled model is a first-class citizen: check it *)
  let src =
    {|
    model two-cell-agreement
    var x : 0..2
    var y : 0..2
    action sync: ~x = y -> y := x
    invariant x = y
    |}
  in
  let em = compile src in
  let engine = Explore.Engine.create em.env in
  match
    Explore.Convergence.check_unfair engine (Guarded.Compile.program em.program)
      ~from:Explore.Engine.All ~target:em.invariant
  with
  | Ok { worst_case_steps = Some 1; _ } -> ()
  | Ok { worst_case_steps; _ } ->
      Alcotest.failf "expected worst case 1, got %s"
        (match worst_case_steps with Some w -> string_of_int w | None -> "-")
  | Error _ -> Alcotest.fail "should converge"

let suite =
  [
    Alcotest.test_case "parse numeric expressions" `Quick test_parse_num_basics;
    Alcotest.test_case "parse boolean expressions" `Quick test_parse_bexp_basics;
    Alcotest.test_case "parse actions" `Quick test_parse_action;
    Alcotest.test_case "parse programs" `Quick test_parse_program;
    Alcotest.test_case "comments and multi declarations" `Quick
      test_parse_comments_and_multi_decl;
    Alcotest.test_case "empty program" `Quick test_parse_empty_program;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error positions" `Quick test_error_position;
    Alcotest.test_case "roundtrip: all protocol programs" `Quick
      test_roundtrip_protocols;
    Alcotest.test_case "roundtrip: tricky expressions" `Quick
      test_roundtrip_tricky_expressions;
    Alcotest.test_case "roundtrip: random expressions" `Quick
      test_roundtrip_random_expressions;
    Alcotest.test_case "parsed programs are runnable" `Quick
      test_parsed_program_runs;
  ]
