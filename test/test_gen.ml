(* Tests for lib/gen: generator well-formedness over pinned seeds,
   deterministic reproduction, oracle cleanliness on known-good seeds, the
   harness's ability to catch a (simulated) broken backend, and shrink
   quality — a defect-induced counterexample must minimize to a handful of
   actions and reproduce from its printed seed. *)

module Domain = Guarded.Domain
module Var = Guarded.Var
module State = Guarded.State
module Env = Guarded.Env
module Engine = Explore.Engine

let in_domain env s =
  Array.for_all
    (fun v -> Domain.mem (Var.domain v) (State.get s v))
    (Env.vars env)

(* Every generated model is well-formed: the space respects the cap, the
   legitimate state satisfies the invariant, and every action execution
   from any in-domain state stays in-domain (the materializer's clamp). *)
let test_generator_well_formed () =
  for seed = 0 to 99 do
    let m = Gen.Generate.model (Prng.create seed) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: space under cap" seed)
      true
      (Gen.Spec.space_size m.Gen.Spec.spec <= 4096.0);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: legit satisfies invariant" seed)
      true
      (m.Gen.Spec.invariant m.Gen.Spec.legit);
    let e = Engine.create ~backend:Engine.Eager m.Gen.Spec.env in
    let actions =
      Array.to_list (Guarded.Program.actions m.Gen.Spec.program)
      @ m.Gen.Spec.fault_actions
    in
    Explore.Space.iter (Engine.space e) (fun _ s ->
        List.iter
          (fun a ->
            if Guarded.Action.enabled a s then
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: %s stays in-domain" seed
                   (Guarded.Action.name a))
                true
                (in_domain m.Gen.Spec.env (Guarded.Action.execute a s)))
          actions)
  done

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let s1 = Gen.Generate.spec (Prng.create seed) in
      let s2 = Gen.Generate.spec (Prng.create seed) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces" seed)
        (Gen.Spec.to_string s1) (Gen.Spec.to_string s2))
    [ 0; 42; 4096; 20260805 ]

(* Pinned seeds: the differential oracles hold on generated models. This
   is the in-process twin of the CI `fuzz-smoke` leg. *)
let test_oracles_hold () =
  let report = Gen.Fuzz.run ~seed:42 ~count:60 () in
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.Gen.Fuzz.counterexamples)

(* Regression: the witness is the first terminal node in node order.
   Seed 20260729 generates a model with two deadlock states, where eager
   once numbered its region by state id and reported a different witness
   from lazy. Every backend now numbers a region the same way, and
   verdict-agree compares the witnesses for identity. *)
let test_deadlock_witness_regression () =
  let report = Gen.Fuzz.run ~seed:20260729 ~count:1 () in
  Alcotest.(check int) "every backend reports the same witness" 0
    (List.length report.Gen.Fuzz.counterexamples)

(* The fuzz report is identical at any job count. *)
let test_jobs_deterministic () =
  let r1 = Gen.Fuzz.run ~seed:7 ~count:24 ~jobs:1 () in
  let r2 = Gen.Fuzz.run ~seed:7 ~count:24 ~jobs:3 () in
  Alcotest.(check int) "same trial count" r1.Gen.Fuzz.trials r2.Gen.Fuzz.trials;
  Alcotest.(check int) "same counterexample count"
    (List.length r1.Gen.Fuzz.counterexamples)
    (List.length r2.Gen.Fuzz.counterexamples)

(* A broken backend must be caught: with a simulated off-by-one defect in
   the parallel backend's explored accounting, every trial fails the
   region-agreement oracle, the shrinker minimizes the counterexample to
   a tiny instance, and the counterexample reproduces from its seed. *)
let test_defect_is_caught_and_minimized () =
  let oracle_config =
    { Gen.Oracle.default with defect = Some Engine.Parallel }
  in
  let report = Gen.Fuzz.run ~oracle_config ~seed:42 ~count:5 () in
  Alcotest.(check int) "every trial is a counterexample" 5
    (List.length report.Gen.Fuzz.counterexamples);
  List.iter
    (fun c ->
      Alcotest.(check string)
        "caught by the region oracle" "region-agree"
        c.Gen.Fuzz.failure.Gen.Oracle.oracle;
      Alcotest.(check bool)
        "minimized to at most 6 actions" true
        (Gen.Spec.action_count c.Gen.Fuzz.spec <= 6);
      Alcotest.(check bool)
        "minimized to at most 2 variables" true
        (List.length (Gen.Spec.live_slots c.Gen.Fuzz.spec) <= 2);
      (* Reproduction: re-running the single printed seed finds the same
         oracle violation again. *)
      let again =
        Gen.Fuzz.run ~oracle_config ~seed:c.Gen.Fuzz.seed ~count:1 ()
      in
      match again.Gen.Fuzz.counterexamples with
      | [ c' ] ->
          Alcotest.(check string) "same oracle on replay"
            c.Gen.Fuzz.failure.Gen.Oracle.oracle
            c'.Gen.Fuzz.failure.Gen.Oracle.oracle
      | l ->
          Alcotest.failf "replay of seed %d found %d counterexamples"
            c.Gen.Fuzz.seed (List.length l))
    report.Gen.Fuzz.counterexamples

(* A defect in the lazy backend is caught just the same — the eager
   backend is the reference, either sibling can be the culprit. *)
let test_lazy_defect_caught () =
  let oracle_config = { Gen.Oracle.default with defect = Some Engine.Lazy } in
  let report = Gen.Fuzz.run ~oracle_config ~seed:1 ~count:3 () in
  Alcotest.(check int) "all trials fail" 3
    (List.length report.Gen.Fuzz.counterexamples)

(* The shrinker respects its oracle: with a synthetic predicate ("fails
   while the model still has a fault action") it must minimize to exactly
   one fault action and keep the failure. *)
let test_shrink_synthetic () =
  let spec = Gen.Generate.spec (Prng.create 9) in
  let fail = { Gen.Oracle.oracle = "synthetic"; detail = "has faults" } in
  let oracle s = if Gen.Spec.fault_count s >= 1 then Some fail else None in
  match oracle spec with
  | None -> Alcotest.fail "seed 9 should generate at least one fault"
  | Some f ->
      let min_spec, _, stats = Gen.Shrink.minimize ~oracle spec f in
      Alcotest.(check int) "one fault action left" 1
        (Gen.Spec.fault_count min_spec);
      Alcotest.(check bool) "spent some evaluations" true (stats.Gen.Shrink.evals > 0)

(* Shrinking never produces an unmaterializable spec. *)
let test_shrink_specs_stay_well_formed () =
  let spec = Gen.Generate.spec (Prng.create 3) in
  let fail = { Gen.Oracle.oracle = "synthetic"; detail = "" } in
  let oracle s =
    ignore (Gen.Spec.materialize s);
    Some fail
  in
  let min_spec, _, _ = Gen.Shrink.minimize ~max_evals:200 ~oracle spec fail in
  let m = Gen.Spec.materialize min_spec in
  Alcotest.(check bool) "minimal model materializes" true
    (m.Gen.Spec.invariant m.Gen.Spec.legit)

let suite =
  [
    Alcotest.test_case "generated models well-formed (100 seeds)" `Quick
      test_generator_well_formed;
    Alcotest.test_case "generation deterministic per seed" `Quick
      test_generator_deterministic;
    Alcotest.test_case "oracles hold on pinned seeds" `Slow test_oracles_hold;
    Alcotest.test_case "deadlock witness agrees across backends" `Quick
      test_deadlock_witness_regression;
    Alcotest.test_case "report identical across job counts" `Quick
      test_jobs_deterministic;
    Alcotest.test_case "parallel defect caught, minimized, reproducible" `Quick
      test_defect_is_caught_and_minimized;
    Alcotest.test_case "lazy defect caught" `Quick test_lazy_defect_caught;
    Alcotest.test_case "shrinker minimizes against synthetic oracle" `Quick
      test_shrink_synthetic;
    Alcotest.test_case "shrunk specs stay well-formed" `Quick
      test_shrink_specs_stay_well_formed;
  ]
