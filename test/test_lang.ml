(* The model language: parser/elaborator twin-equality against the
   OCaml-embedded protocols, print/parse round-trip laws over generated
   models, located error goldens, and TLA+/DOT export goldens. *)

module Engine = Explore.Engine
module Convergence = Explore.Convergence
module Faultspan = Explore.Faultspan
module Compile = Guarded.Compile
module Program = Guarded.Program
module Var = Guarded.Var
module Env = Guarded.Env
module State = Guarded.State

(* `dune runtest` runs with cwd _build/default/test; `dune exec
   test/test_main.exe` from the project root. Probe both. *)
let locate candidates =
  try List.find Sys.file_exists candidates
  with Not_found -> List.hd candidates

let model_path name =
  locate
    [
      Filename.concat "../examples/models" name;
      Filename.concat "examples/models" name;
    ]

let golden_path name =
  locate [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

let compile ?params name = Lang.Driver.compile_file ?params (model_path name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- twin equality ---------------------------------------------------

   A .nm model must compile to the *same* model as its OCaml twin:
   identical environment (variable names, order, domains), identical
   program action names and order, and bit-identical exploration
   artifacts — regions from both root sets, fault spans, certification
   verdicts — on the eager and lazy backends. *)

let backends = [ Engine.Eager; Engine.Lazy ]
let budget = 1 lsl 21

let check_env_equal em_env t_env =
  let sig_of env =
    Env.vars env
    |> Array.map (fun v -> (Var.name v, Var.domain v))
    |> Array.to_list
  in
  let show l =
    String.concat "; " (List.map (fun (n, _) -> n) l)
  in
  let a = sig_of em_env and b = sig_of t_env in
  if a <> b then
    Alcotest.failf "environments differ: [%s] vs [%s]" (show a) (show b)

let check_actions_equal em_p t_p =
  let names p =
    Program.actions p |> Array.map Guarded.Action.name |> Array.to_list
  in
  Alcotest.(check (list string))
    "program action names and order" (names t_p) (names em_p)

(* A region rewritten in terms of state keys: with identical
   environments the codec is identical, so key-level equality is
   bit-identity of the explored region. *)
let region_sig (r : Engine.region) =
  let key v = r.Engine.node_key.(v) in
  let edges =
    Dgraph.Digraph.fold_edges
      (fun acc e -> (key e.Dgraph.Digraph.src, key e.dst, e.label) :: acc)
      [] r.Engine.graph
  in
  let terminals = ref [] in
  Array.iteri
    (fun v t -> if t then terminals := key v :: !terminals)
    r.Engine.terminal;
  ( List.sort compare (Array.to_list r.Engine.node_key),
    List.sort compare edges,
    List.sort compare !terminals,
    r.Engine.explored )

let verdict_sig = function
  | Ok { Convergence.region_states; explored; worst_case_steps } ->
      (true, region_states, explored, worst_case_steps)
  | Error (Convergence.Deadlock _) -> (false, 0, 0, None)
  | Error (Convergence.Livelock _) -> (false, 1, 0, None)

let span_sig span =
  ( Faultspan.count span,
    Faultspan.root_count span,
    Faultspan.max_depth span,
    Array.to_list (Faultspan.depth_histogram span) )

let cert_sig cert =
  ( Nonmask.Certify.ok cert,
    List.map
      (fun c -> (c.Nonmask.Certify.label, c.Nonmask.Certify.ok))
      cert.Nonmask.Certify.checks )

let check_twin ~nm ?params ~t_env ~t_program ~t_invariant ~t_legit () =
  let em = compile ?params nm in
  check_env_equal em.Lang.Elab.env t_env;
  check_actions_equal em.Lang.Elab.program t_program;
  Alcotest.(check string)
    "initial states agree"
    (State.to_string t_env t_legit)
    (State.to_string em.Lang.Elab.env em.Lang.Elab.init);
  let em_cp = Compile.program em.Lang.Elab.program in
  let t_cp = Compile.program t_program in
  List.iter
    (fun backend ->
      let e_em =
        Engine.create ~backend ~max_states:budget ~jobs:1 em.Lang.Elab.env
      in
      let e_t = Engine.create ~backend ~max_states:budget ~jobs:1 t_env in
      List.iter
        (fun (rname, from_em, from_t) ->
          let r_em =
            region_sig
              (Engine.region e_em em_cp ~from:from_em
                 ~target:em.Lang.Elab.invariant)
          in
          let r_t =
            region_sig (Engine.region e_t t_cp ~from:from_t ~target:t_invariant)
          in
          if r_em <> r_t then
            Alcotest.failf "%s: regions differ from %s roots"
              (Engine.backend_name e_em) rname;
          let v_em =
            verdict_sig
              (Convergence.check_unfair e_em em_cp ~from:from_em
                 ~target:em.Lang.Elab.invariant)
          in
          let v_t =
            verdict_sig
              (Convergence.check_unfair e_t t_cp ~from:from_t
                 ~target:t_invariant)
          in
          if v_em <> v_t then
            Alcotest.failf "%s: verdicts differ from %s roots"
              (Engine.backend_name e_em) rname)
        [
          ( "legit",
            Engine.Seeds [ em.Lang.Elab.init ],
            Engine.Seeds [ t_legit ] );
          ("all", Engine.All, Engine.All);
        ];
      (* fault span of one-variable corruption: identical environments
         give identical fault actions, so the spans must coincide *)
      let f_em = Sim.Fault.corrupt em.Lang.Elab.env ~k:1 in
      let f_t = Sim.Fault.corrupt t_env ~k:1 in
      let faults_em =
        Compile.program
          (Program.make ~name:"faults" em.Lang.Elab.env
             (Sim.Fault.actions f_em))
      in
      let faults_t =
        Compile.program
          (Program.make ~name:"faults" t_env (Sim.Fault.actions f_t))
      in
      let s_em =
        span_sig
          (Faultspan.compute e_em ~program:em_cp ~budget:1
             ~faults:faults_em
             ~from:(Engine.Seeds [ em.Lang.Elab.init ])
             ())
      in
      let s_t =
        span_sig
          (Faultspan.compute e_t ~program:t_cp ~budget:1
             ~faults:faults_t
             ~from:(Engine.Seeds [ t_legit ])
             ())
      in
      if s_em <> s_t then
        Alcotest.failf "%s: fault spans differ" (Engine.backend_name e_em);
      (* tolerance certificate: same name on both sides, so the check
         labels — which embed action names — must match exactly *)
      let cert side engine program invariant legit fault =
        Nonmask.Certify.tolerance ~engine ~program
          ~faults:(Sim.Fault.actions fault) ~invariant
          ~from:(Engine.Seeds [ legit ]) ~budget:1
          ~name:(Printf.sprintf "twin:%s" side) ()
      in
      let c_em =
        cert_sig
          (cert nm e_em em.Lang.Elab.program em.Lang.Elab.invariant
             em.Lang.Elab.init f_em)
      in
      let c_t = cert_sig (cert nm e_t t_program t_invariant t_legit f_t) in
      if c_em <> c_t then
        Alcotest.failf "%s: certificates differ" (Engine.backend_name e_em))
    backends

let test_twin_xyz () =
  let d = Protocols.Xyz_demo.make Protocols.Xyz_demo.Good_tree in
  let env = Protocols.Xyz_demo.env d in
  check_twin ~nm:"xyz.nm" ~t_env:env
    ~t_program:(Protocols.Xyz_demo.program d)
    ~t_invariant:(fun s -> Protocols.Xyz_demo.invariant d s)
    ~t_legit:
      (State.of_list env
         [
           (Protocols.Xyz_demo.x d, 0);
           (Protocols.Xyz_demo.y d, 1);
           (Protocols.Xyz_demo.z d, 1);
         ])
    ()

let test_twin_token_ring () =
  let tr = Protocols.Token_ring.make ~nodes:5 ~k:6 in
  check_twin ~nm:"token_ring.nm"
    ~t_env:(Protocols.Token_ring.env tr)
    ~t_program:(Protocols.Token_ring.combined tr)
    ~t_invariant:(fun s -> Protocols.Token_ring.invariant tr s)
    ~t_legit:(Protocols.Token_ring.all_zero tr)
    ()

(* --param overrides reshape the instance: N=3, K=4 must equal the
   OCaml twin of that size, not the declared default. *)
let test_twin_token_ring_params () =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  check_twin ~nm:"token_ring.nm"
    ~params:[ ("N", 3); ("K", 4) ]
    ~t_env:(Protocols.Token_ring.env tr)
    ~t_program:(Protocols.Token_ring.combined tr)
    ~t_invariant:(fun s -> Protocols.Token_ring.invariant tr s)
    ~t_legit:(Protocols.Token_ring.all_zero tr)
    ()

let test_twin_diffusing () =
  let d = Protocols.Diffusing.make (Topology.Tree.balanced ~arity:2 7) in
  check_twin ~nm:"diffusing.nm"
    ~t_env:(Protocols.Diffusing.env d)
    ~t_program:(Protocols.Diffusing.combined d)
    ~t_invariant:(fun s -> Protocols.Diffusing.invariant d s)
    ~t_legit:(Protocols.Diffusing.all_green d)
    ()

(* --- print/parse round-trip ------------------------------------------

   parse ∘ print = id (modulo formatting): printing a parsed model and
   re-parsing it reproduces the same canonical text — checked over 500
   generator seeds via the Gen.Emit surface form, which also proves the
   emitted corpus files are parseable and elaborable. *)

let test_roundtrip_generated () =
  for seed = 0 to 499 do
    let spec = Gen.Generate.spec (Prng.create seed) in
    let text = Gen.Emit.spec_to_nm spec in
    let file = Printf.sprintf "<seed %d>" seed in
    let canon =
      try Lang.Pretty.print (Lang.Driver.parse_string ~file text)
      with Lang.Err.Error e ->
        Alcotest.failf "seed %d: emitted model does not parse: %s" seed
          (Lang.Err.to_string e)
    in
    let again =
      try Lang.Pretty.print (Lang.Driver.parse_string ~file canon)
      with Lang.Err.Error e ->
        Alcotest.failf "seed %d: canonical text does not re-parse: %s" seed
          (Lang.Err.to_string e)
    in
    if canon <> again then
      Alcotest.failf "seed %d: print/parse round-trip is not a fixpoint" seed;
    match Lang.Driver.compile_string ~file canon with
    | (_ : Lang.Elab.t) -> ()
    | exception Lang.Err.Error e ->
        Alcotest.failf "seed %d: canonical text does not elaborate: %s" seed
          (Lang.Err.to_string e)
  done

(* The checked-in example models are fixpoints of the formatter modulo
   their leading comments (which the formatter strips). *)
let test_fmt_idempotent_examples () =
  List.iter
    (fun name ->
      let text = read_file (model_path name) in
      let canon = Lang.Pretty.print (Lang.Driver.parse_string ~file:name text) in
      let again =
        Lang.Pretty.print (Lang.Driver.parse_string ~file:name canon)
      in
      Alcotest.(check string) (name ^ " formats to a fixpoint") canon again)
    [ "xyz.nm"; "token_ring.nm"; "diffusing.nm" ]

(* --- located errors --------------------------------------------------

   Every malformed input is a single Err.Error carrying file:line:col
   and a caret snippet — never an escaped exception. The exact texts
   are goldens: error messages are part of the interface. *)

let check_error ~name text expected =
  match Lang.Driver.compile_string ~file:"m.nm" text with
  | (_ : Lang.Elab.t) -> Alcotest.failf "%s: expected an error" name
  | exception Lang.Err.Error e ->
      Alcotest.(check string) name expected (Lang.Err.to_string e)

let test_parse_errors () =
  check_error ~name:"truncated guard"
    "model m\nvar x : 0..3\naction a:\n  x = -> x := 1\ninvariant x = 0\n"
    "m.nm:4:7: expected an expression, found '->'\n\
    \  4 |   x = -> x := 1\n\
    \    |       ^";
  check_error ~name:"missing model header" "var x : 0..3\n"
    "m.nm:1:1: expected 'model' but found 'var'\n\
    \  1 | var x : 0..3\n\
    \    | ^";
  check_error ~name:"unterminated comment" "model m (* oops\nvar x : bool\n"
    "m.nm:1:9: unterminated comment\n\
    \  1 | model m (* oops\n\
    \    |         ^";
  check_error ~name:"illegal character" "model m\nvar x : 0..3 ? bool\n"
    "m.nm:2:14: unexpected character '?'\n\
    \  2 | var x : 0..3 ? bool\n\
    \    |              ^"

let test_elab_errors () =
  check_error ~name:"unknown variable"
    "model m\nvar x : 0..3\naction a:\n  y > 0 -> x := 1\ninvariant x = 0\n"
    "m.nm:4:3: unknown variable y\n\
    \  4 |   y > 0 -> x := 1\n\
    \    |   ^";
  check_error ~name:"out-of-domain constant"
    "model m\n\
     var x : 0..3\n\
     action a:\n\
    \  x < 3 -> x := 9\n\
     invariant true \\/ x = 0\n"
    "m.nm:4:17: value 9 is outside the domain of x\n\
    \  4 |   x < 3 -> x := 9\n\
    \    |                 ^";
  check_error ~name:"division by zero"
    "model m\nvar x : 0..3\naction a:\n  x > 1 -> x := x / 0\ninvariant x >= 0\n"
    "m.nm:4:21: division by zero\n\
    \  4 |   x > 1 -> x := x / 0\n\
    \    |                     ^";
  check_error ~name:"non-constant divisor"
    "model m\n\
     var x : 0..3\n\
     action a:\n\
    \  x > 1 -> x := x mod (x - x)\n\
     invariant x >= 0\n"
    "m.nm:4:26: divisor must be a non-zero constant expression\n\
    \  4 |   x > 1 -> x := x mod (x - x)\n\
    \    |                          ^";
  check_error ~name:"init violates invariant"
    "model m\nvar x : 0..3\ninvariant x = 9\n"
    "m.nm:1:1: the initial state {x=0} does not satisfy the invariant\n\
    \  1 | model m\n\
    \    | ^";
  check_error ~name:"init out of domain"
    "model m\nvar x : 0..3\ninvariant x >= 0\ninit x = 9\n"
    "m.nm:4:10: value 9 is outside the domain of x\n\
    \  4 | init x = 9\n\
    \    |          ^"

(* --- nesting limit ---------------------------------------------------

   Expressions nest at most Parser's 512 levels. Deeper input fails with
   a located error at the opening token of the first level past the
   limit, and fails fast: the parser's backtracking over a parenthesised
   prefix costs time quadratic in the depth, which the limit caps. *)

let nested_guard ~depth body =
  Printf.sprintf
    "model m\nvar x : 0..3\nvar y : 0..3\naction a:\n  %s%s%s -> x := y\n\
     invariant x >= 0\n"
    (String.make depth '(') body (String.make depth ')')

let test_nesting_limit () =
  let t0 = Unix.gettimeofday () in
  (match
     Lang.Driver.compile_string ~file:"m.nm"
       (nested_guard ~depth:10_000 "x = y")
   with
  | (_ : Lang.Elab.t) -> Alcotest.fail "10,000 levels must be rejected"
  | exception Lang.Err.Error e ->
      Alcotest.(check (pair int int))
        "line:col of the 513th '('" (5, 3 + 512)
        (e.Lang.Err.line, e.Lang.Err.col);
      Alcotest.(check string) "message"
        "expression nested more than 512 levels deep" e.Lang.Err.msg);
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 2.0 then Alcotest.failf "rejecting 10,000 levels took %.2f s" dt;
  (* the limit is exact: 512 parenthesised levels parse, 513 do not *)
  ignore (Lang.Driver.compile_string (nested_guard ~depth:512 "x = y"));
  (match Lang.Driver.compile_string (nested_guard ~depth:513 "x = y") with
  | _ -> Alcotest.fail "513 levels must be rejected"
  | exception Lang.Err.Error _ -> ())

(* A few hundred levels of each nesting form still parse, to a guard
   that holds exactly where its flat spelling does. *)
let test_nesting_below_limit () =
  let guard_table body =
    let em = Lang.Driver.compile_string (nested_guard ~depth:0 body) in
    let a = (Compile.program em.Lang.Elab.program).Compile.actions.(0) in
    let acc = ref [] in
    Explore.Space.iter (Explore.Space.create em.Lang.Elab.env) (fun _ s ->
        acc := a.Compile.enabled s :: !acc);
    !acc
  in
  let n = 300 in
  let rep k s = String.concat "" (List.init k (fun _ -> s)) in
  List.iter
    (fun (name, body, flat) ->
      Alcotest.(check (list bool)) name (guard_table flat) (guard_table body))
    [
      ("parentheses", rep n "(" ^ "x = y" ^ rep n ")", "x = y");
      ("numeric parentheses", "x = " ^ rep n "(" ^ "y" ^ rep n ")", "x = y");
      ("not", rep n "~" ^ "(x = y)", "x = y");
      ("unary minus", "x = " ^ rep n "- " ^ "y", "x = y");
      ("implies", rep n "x = y => " ^ "x = y", "true");
      ( "quantifier",
        String.concat ""
          (List.init n (fun i -> Printf.sprintf "(forall i%d in 0..0: " i))
        ^ "x = y" ^ rep n ")",
        "x = y" );
    ]

(* --- exporter goldens ------------------------------------------------ *)

let test_export_goldens () =
  List.iter
    (fun (nm, golden_tla, golden_dot) ->
      let em = compile nm in
      Alcotest.(check string)
        (nm ^ " TLA+ module")
        (read_file (golden_path golden_tla))
        (Lang.Tla.render em);
      Alcotest.(check string)
        (nm ^ " DOT graph")
        (read_file (golden_path golden_dot))
        (Lang.Dot.render em))
    [
      ("xyz.nm", "xyz.tla", "xyz.dot");
      ("token_ring.nm", "token_ring.tla", "token_ring.dot");
      ("diffusing.nm", "diffusing.tla", "diffusing.dot");
    ]

(* --- the compiled invariant ------------------------------------------

   Elab hands out [invariant_expr] compiled; on random in-domain states
   of generated models it must give the interpreter's verdict, or raise
   [Division_by_zero] exactly when the interpreter does. *)

let prop_compiled_invariant =
  QCheck.Test.make ~name:"elab: compiled invariant agrees with Expr.eval"
    ~count:200
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let text = Gen.Emit.spec_to_nm (Gen.Generate.spec rng) in
      let em = Lang.Driver.compile_string ~file:"<generated>" text in
      let outcome f st = try Ok (f st) with Division_by_zero -> Error () in
      List.for_all
        (fun _ ->
          let st =
            State.init em.Lang.Elab.env (fun v ->
                let d = Var.domain v in
                Guarded.Domain.first d + Prng.int rng (Guarded.Domain.size d))
          in
          outcome em.Lang.Elab.invariant st
          = outcome (fun st -> Guarded.Expr.eval st em.Lang.Elab.invariant_expr) st)
        (List.init 32 Fun.id))

let suite =
  [
    Alcotest.test_case "twin: xyz-good-tree" `Quick test_twin_xyz;
    Alcotest.test_case "twin: token-ring" `Quick test_twin_token_ring;
    Alcotest.test_case "twin: token-ring --param" `Quick
      test_twin_token_ring_params;
    Alcotest.test_case "twin: diffusing" `Slow test_twin_diffusing;
    Alcotest.test_case "roundtrip: 500 generated models" `Quick
      test_roundtrip_generated;
    Alcotest.test_case "fmt: examples are formatter fixpoints" `Quick
      test_fmt_idempotent_examples;
    Alcotest.test_case "errors: parser goldens" `Quick test_parse_errors;
    Alcotest.test_case "errors: elaborator goldens" `Quick test_elab_errors;
    Alcotest.test_case "golden: TLA+ and DOT exports" `Quick
      test_export_goldens;
    Alcotest.test_case "errors: nesting limit" `Quick test_nesting_limit;
    Alcotest.test_case "nesting: 300 levels still parse" `Quick
      test_nesting_below_limit;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_compiled_invariant ]
