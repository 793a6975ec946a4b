(* Tests for first-class fault actions: injectors stay in-domain (property,
   both the RNG and the action form), the computed fault span against
   Engine.ball, eager/lazy agreement on span-based verdicts, the tolerance
   certificate, and the storm harness. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Domain = Guarded.Domain
module Var = Guarded.Var
module Action = Guarded.Action
module Space = Explore.Space
module Engine = Explore.Engine
module Faultspan = Explore.Faultspan
module Fault = Sim.Fault

(* Seed-protocol environments with a legitimate state each. *)
let protocol_envs () =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let d = Protocols.Diffusing.make (Topology.Tree.chain 3) in
  let st = Protocols.Spanning_tree.make ~root:0 (Topology.Ugraph.cycle 4) in
  let dr = Protocols.Dijkstra_ring.make ~nodes:3 ~k:4 in
  [
    ( "token-ring",
      Protocols.Token_ring.env tr,
      Protocols.Token_ring.all_zero tr );
    ("diffusing", Protocols.Diffusing.env d, Protocols.Diffusing.all_green d);
    ( "spanning-tree",
      Protocols.Spanning_tree.env st,
      Protocols.Spanning_tree.bfs_state st );
    ( "dijkstra",
      Protocols.Dijkstra_ring.env dr,
      Protocols.Dijkstra_ring.all_zero dr );
  ]

let faults_of env =
  let vars = Array.to_list (Guarded.Env.vars env) in
  let resets = List.map (fun v -> (v, Domain.first (Var.domain v))) vars in
  [
    Fault.corrupt env ~k:1;
    Fault.corrupt env ~k:2;
    Fault.corrupt_vars [ List.hd vars ] ~k:1;
    Fault.scramble env;
    Fault.reset_vars resets;
    Fault.compose "corrupt+reset"
      [ Fault.corrupt env ~k:1; Fault.reset_vars resets ];
  ]

let in_domain env s =
  Array.for_all
    (fun v -> Domain.mem (Var.domain v) (State.get s v))
    (Guarded.Env.vars env)

let randomize rng env s =
  Array.iter
    (fun v ->
      let d = Var.domain v in
      State.set s v (List.nth (Domain.values d) (Prng.int rng (Domain.size d))))
    (Guarded.Env.vars env)

(* Every injector keeps every variable inside its domain — from legitimate
   and from arbitrary in-domain states, in both views of the fault. *)
let prop_injectors_stay_in_domain =
  QCheck.Test.make ~name:"fault injectors keep variables in-domain"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (_name, env, legit) ->
          let rng = Prng.create seed in
          List.for_all
            (fun f ->
              let s = State.copy legit in
              f.Fault.inject rng s;
              let ok_legit = in_domain env s in
              randomize rng env s;
              f.Fault.inject rng s;
              let ok_random = in_domain env s in
              randomize rng env s;
              let ok_actions =
                List.for_all
                  (fun a ->
                    (not (Action.enabled a s))
                    || in_domain env (Action.execute a s))
                  (Fault.actions f)
              in
              ok_legit && ok_random && ok_actions)
            (faults_of env))
        (protocol_envs ()))

(* The burst-bounded, program-free span of a corrupt fault from one seed is
   exactly the Hamming ball: fault actions reassign one variable per step. *)
let test_span_equals_ball () =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let env = Protocols.Token_ring.env tr in
  let engine = Engine.create env in
  let space = Engine.space engine in
  let center = Protocols.Token_ring.all_zero tr in
  let fault = Fault.corrupt env ~k:2 in
  let fp =
    Compile.program
      (Guarded.Program.make ~name:"faults" env (Fault.actions fault))
  in
  List.iter
    (fun radius ->
      let span =
        Faultspan.compute engine ~budget:radius ~faults:fp
          ~from:(Engine.Seeds [ center ]) ()
      in
      let ball = Engine.ball env ~center ~radius in
      Alcotest.(check int)
        (Printf.sprintf "span size = ball size at radius %d" radius)
        (List.length ball) (Faultspan.count span);
      List.iter
        (fun s ->
          Alcotest.(check bool) "ball member in span" true (Faultspan.mem span s))
        ball;
      Alcotest.(check bool)
        "depth bounded by radius" true
        (Faultspan.max_depth span <= radius);
      (* depths are minimal: layer d of the span is the d-sphere *)
      if radius >= 1 then
        Alcotest.(check int) "layer 0 is the center" 1
          (Faultspan.depth_histogram span).(0))
    [ 0; 1; 2; 3 ];
  ignore space

(* Eager and lazy engines agree on every fault-span quantity and on the
   membership set itself (keys are canonical mixed-radix codes). *)
let span_fingerprint backend =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let env = Protocols.Token_ring.env tr in
  let engine = Engine.create ~backend env in
  let cp = Compile.program (Protocols.Token_ring.combined tr) in
  let fault = Fault.corrupt env ~k:1 in
  let fp =
    Compile.program
      (Guarded.Program.make ~name:"faults" env (Fault.actions fault))
  in
  let span =
    Faultspan.compute engine ~program:cp ~budget:1 ~faults:fp
      ~from:(Engine.Pred (fun s -> Protocols.Token_ring.invariant tr s))
      ()
  in
  let space = Engine.space engine in
  ( Faultspan.count span,
    Faultspan.root_count span,
    Faultspan.max_depth span,
    Array.to_list (Faultspan.depth_histogram span),
    List.sort compare
      (List.map (fun s -> Space.encode space s) (Faultspan.states span)) )

let test_span_backend_agreement () =
  let e = span_fingerprint Engine.Eager and l = span_fingerprint Engine.Lazy in
  Alcotest.(check bool) "identical spans" true (e = l)

(* Budget edge cases, on both backends. Budget 0 admits no fault step at
   all, so the span is exactly the program-only closure of the roots;
   any budget at least the span's fault diameter (here: one corrupting
   fault per variable reaches every state) coincides with unbounded. *)
let test_span_budget_edges () =
  List.iter
    (fun backend ->
      let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
      let env = Protocols.Token_ring.env tr in
      let engine = Engine.create ~backend env in
      let bname = Engine.backend_name engine in
      let cp = Compile.program (Protocols.Token_ring.combined tr) in
      let fault = Fault.corrupt env ~k:1 in
      let fp =
        Compile.program
          (Guarded.Program.make ~name:"faults" env (Fault.actions fault))
      in
      let from = Engine.Seeds [ Protocols.Token_ring.all_zero tr ] in
      let span_at budget =
        Faultspan.compute engine ~program:cp ?budget ~faults:fp ~from ()
      in
      (* budget 0: the span is the program-only closure *)
      let span0 = span_at (Some 0) in
      let closure = ref 0 in
      Engine.iter_reachable engine cp ~from (fun _ -> incr closure);
      Alcotest.(check int)
        (bname ^ ": budget-0 span is the program closure")
        !closure (Faultspan.count span0);
      Alcotest.(check int)
        (bname ^ ": budget-0 span has depth 0")
        0
        (Faultspan.max_depth span0);
      (* budget >= diameter: one corrupt step per variable reaches any
         state, so vars-many faults saturate — equal to unbounded *)
      let n_vars = Array.length (Guarded.Env.vars env) in
      let saturated = span_at (Some n_vars) in
      let unbounded = span_at None in
      Alcotest.(check int)
        (bname ^ ": budget >= diameter equals unbounded")
        (Faultspan.count unbounded)
        (Faultspan.count saturated);
      Alcotest.(check int)
        (bname ^ ": saturated span covers the space")
        (Faultspan.count unbounded)
        (Space.size (Engine.space engine)))
    [ Engine.Eager; Engine.Lazy ]

let tolerance_fingerprint backend =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let engine = Engine.create ~backend (Protocols.Token_ring.env tr) in
  let cert = Protocols.Token_ring.tolerance_certificate ~engine tr in
  List.map
    (fun (c : Nonmask.Certify.check) -> (c.label, c.ok))
    cert.Nonmask.Certify.checks

let test_tolerance_backend_agreement () =
  let e = tolerance_fingerprint Engine.Eager in
  let l = tolerance_fingerprint Engine.Lazy in
  Alcotest.(check bool) "identical tolerance verdicts" true (e = l)

(* The ring tolerates single-variable corruption: certificate VALID, with
   the recurring-fault livelock rendered as an informational check. *)
let test_token_ring_tolerance_valid () =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let engine = Engine.create (Protocols.Token_ring.env tr) in
  let cert = Protocols.Token_ring.tolerance_certificate ~engine tr in
  Alcotest.(check bool) "certificate valid" true (Nonmask.Certify.ok cert);
  Alcotest.(check int) "five checks" 5
    (List.length cert.Nonmask.Certify.checks);
  let rendered = Format.asprintf "%a" Nonmask.Certify.pp_full cert in
  Alcotest.(check bool) "livelock cycle rendered" true
    (Astring_contains.contains rendered "FAULT")

let test_token_ring_recurrence_resilience_fails () =
  (* demanding resilience to perpetually recurring corruption must fail:
     a fault can always flip a variable back out of S *)
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let engine = Engine.create (Protocols.Token_ring.env tr) in
  let cert =
    Nonmask.Certify.tolerance ~engine
      ~program:(Protocols.Token_ring.combined tr)
      ~faults:(Fault.actions (Fault.corrupt (Protocols.Token_ring.env tr) ~k:1))
      ~invariant:(fun s -> Protocols.Token_ring.invariant tr s)
      ~budget:1 ~require_recurrence_resilience:true ~name:"token-ring" ()
  in
  Alcotest.(check bool) "resilience demanded: invalid" false
    (Nonmask.Certify.ok cert)

let test_spanning_tree_tolerance_valid () =
  let st = Protocols.Spanning_tree.make ~root:0 (Topology.Ugraph.cycle 4) in
  let engine = Engine.create (Protocols.Spanning_tree.env st) in
  let cert = Protocols.Spanning_tree.tolerance_certificate ~engine st in
  Alcotest.(check bool) "certificate valid" true (Nonmask.Certify.ok cert)

(* The naive ring loses its token to a corruption it cannot recreate: the
   convergence check of the tolerance certificate must fail. *)
let test_naive_ring_tolerance_invalid () =
  let nr = Protocols.Naive_ring.make ~nodes:3 in
  let env = Protocols.Naive_ring.env nr in
  let engine = Engine.create env in
  let cert =
    Nonmask.Certify.tolerance ~engine
      ~program:(Protocols.Naive_ring.program nr)
      ~faults:(Fault.actions (Fault.corrupt env ~k:1))
      ~invariant:(fun s -> Protocols.Naive_ring.invariant nr s)
      ~budget:1 ~name:"naive-ring" ()
  in
  Alcotest.(check bool) "certificate invalid" false (Nonmask.Certify.ok cert)

(* Unbudgeted scramble span from anywhere is the whole space, and closure
   then also re-verifies the fault actions. *)
let test_unbounded_scramble_span_is_space () =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:3 in
  let env = Protocols.Token_ring.env tr in
  let engine = Engine.create env in
  let fp =
    Compile.program
      (Guarded.Program.make ~name:"faults" env
         (Fault.actions (Fault.scramble env)))
  in
  let span =
    Faultspan.compute engine ~faults:fp
      ~from:(Engine.Seeds [ Protocols.Token_ring.all_zero tr ])
      ()
  in
  Alcotest.(check int) "span = whole space"
    (Space.size (Engine.space engine))
    (Faultspan.count span)

(* --- the storm harness --- *)

let storm_result ~rate ~seed =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  let env = Protocols.Token_ring.env tr in
  let fault = Fault.scramble env in
  Sim.Storm.trials ~max_steps:20_000 ~rng:(Prng.create seed) ~trials:50
    ~daemon:(fun r -> Sim.Daemon.random r)
    ~prepare:(fun r ->
      let s = Protocols.Token_ring.all_zero tr in
      fault.Fault.inject r s;
      s)
    ~stop:(fun s -> Protocols.Token_ring.invariant tr s)
    ~fault ~rate
    (Compile.program (Protocols.Token_ring.combined tr))

let test_storm_accounting () =
  let r = storm_result ~rate:0.2 ~seed:11 in
  Alcotest.(check int) "every trial accounted" 50
    (Array.length r.Sim.Storm.steps + r.Sim.Storm.failures);
  Alcotest.(check int) "fault counts for all trials" 50
    (Array.length r.Sim.Storm.fault_counts);
  Alcotest.(check bool) "some faults injected" true
    (Array.exists (fun c -> c > 0) r.Sim.Storm.fault_counts)

let test_storm_rate_zero_is_fault_free () =
  let r = storm_result ~rate:0. ~seed:11 in
  Alcotest.(check int) "no failures at rate 0" 0 r.Sim.Storm.failures;
  Alcotest.(check bool) "no faults injected" true
    (Array.for_all (fun c -> c = 0) r.Sim.Storm.fault_counts)

let test_storm_deterministic () =
  let a = storm_result ~rate:0.15 ~seed:7 in
  let b = storm_result ~rate:0.15 ~seed:7 in
  Alcotest.(check bool) "same seed, same storm" true
    (a.Sim.Storm.steps = b.Sim.Storm.steps
    && a.Sim.Storm.failures = b.Sim.Storm.failures
    && a.Sim.Storm.fault_counts = b.Sim.Storm.fault_counts)

(* The fault-spec grammar both front ends accept (CLI --faults, serve
   options.faults): each accepted spec's class name and burst, and a
   rejection for everything else. *)
let test_fault_spec_grammar () =
  let env = Guarded.Env.create () in
  ignore (Guarded.Env.fresh_family env "v" 8 (Domain.range 0 1));
  List.iter
    (fun (spec, name, burst) ->
      match Fault.of_spec env spec with
      | None -> Alcotest.failf "%S rejected" spec
      | Some f ->
          Alcotest.(check string) (spec ^ " name") name f.Fault.name;
          Alcotest.(check int) (spec ^ " burst") burst (Fault.burst f))
    [
      ("corrupt", "corrupt-1", 1);
      ("corrupt:k=1", "corrupt-1", 1);
      ("corrupt:k=7", "corrupt-7", 7);
      ("scramble", "scramble", 8);
    ];
  List.iter
    (fun spec ->
      if Option.is_some (Fault.of_spec env spec) then
        Alcotest.failf "%S accepted" spec)
    [
      "";
      "corrupt:";
      "corrupt:k=0";
      "corrupt:k=-1";
      "corrupt:k=x";
      "corrupt:j=1";
      "scramble:1";
      "Corrupt";
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_injectors_stay_in_domain;
    Alcotest.test_case "span of corrupt = Hamming ball" `Quick
      test_span_equals_ball;
    Alcotest.test_case "eager/lazy agree on spans" `Quick
      test_span_backend_agreement;
    Alcotest.test_case "span budget edge cases (0 and >= diameter)" `Quick
      test_span_budget_edges;
    Alcotest.test_case "eager/lazy agree on tolerance verdicts" `Quick
      test_tolerance_backend_agreement;
    Alcotest.test_case "token ring tolerance certificate" `Quick
      test_token_ring_tolerance_valid;
    Alcotest.test_case "recurrence resilience is refused" `Quick
      test_token_ring_recurrence_resilience_fails;
    Alcotest.test_case "spanning tree tolerance certificate" `Quick
      test_spanning_tree_tolerance_valid;
    Alcotest.test_case "naive ring is not tolerant" `Quick
      test_naive_ring_tolerance_invalid;
    Alcotest.test_case "unbounded scramble span is the space" `Quick
      test_unbounded_scramble_span_is_space;
    Alcotest.test_case "storm accounting" `Quick test_storm_accounting;
    Alcotest.test_case "storm at rate 0 is fault-free" `Quick
      test_storm_rate_zero_is_fault_free;
    Alcotest.test_case "storm is deterministic" `Quick
      test_storm_deterministic;
    Alcotest.test_case "fault-spec grammar" `Quick test_fault_spec_grammar;
  ]
