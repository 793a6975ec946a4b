(* Quantified tolerance: frontier sweeps, the adversarial daemon bound,
   and environment actions.

   The sweep's laws are metamorphic: spans, depths, and worst-case bounds
   are monotone in the fault budget; saturated budgets replay instead of
   re-exploring; the adversary bound agrees with the certificate's exact
   convergence bound and dominates every storm-observed recovery; and the
   whole curve is bit-identical across backends and job counts. *)

module Engine = Explore.Engine
module Compile = Guarded.Compile
module State = Guarded.State
module Fault = Sim.Fault
module Token_ring = Protocols.Token_ring
module Diffusing = Protocols.Diffusing
module Xyz_demo = Protocols.Xyz_demo

let corrupt_actions env = Fault.actions (Fault.corrupt env ~k:1)

let sweep ?(backend = Engine.Lazy) ?(jobs = 1) ?(adversary = true)
    ?(budgets = Tol.Sweep.range ~max:3) ?(envs = []) ~env ~program ~invariant
    ~legit name =
  let engine = Engine.create ~backend ~jobs env in
  Tol.Sweep.run ~engine ~program ~faults:(corrupt_actions env) ~envs
    ~invariant
    ~from:(Engine.Seeds [ legit ])
    ~budgets ~adversary ~name ()

(* --- monotonicity on the paper's three worked programs --------------- *)

(* Budgets ascend, spans and depths are monotone, and wherever both the
   certificate's exact bound and the adversary bound exist they agree —
   two independent derivations of the same worst case. *)
let check_frontier_laws name (f : Tol.Sweep.frontier) =
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        if a.Tol.Sweep.budget >= b.Tol.Sweep.budget then
          Alcotest.failf "%s: budgets not ascending" name;
        if a.Tol.Sweep.span_states > b.Tol.Sweep.span_states then
          Alcotest.failf "%s: span shrank from budget %d to %d" name
            a.Tol.Sweep.budget b.Tol.Sweep.budget;
        if a.Tol.Sweep.max_depth > b.Tol.Sweep.max_depth then
          Alcotest.failf "%s: depth shrank from budget %d to %d" name
            a.Tol.Sweep.budget b.Tol.Sweep.budget;
        (match (a.Tol.Sweep.worst_case, b.Tol.Sweep.worst_case) with
        | Some wa, Some wb when wa > wb ->
            Alcotest.failf "%s: worst case shrank from %d to %d" name wa wb
        | _ -> ());
        pairwise rest
    | _ -> ()
  in
  pairwise f.Tol.Sweep.points;
  List.iter
    (fun (p : Tol.Sweep.point) ->
      match (p.worst_case, p.adversary) with
      | Some w, Some r -> (
          match r.Tol.Adversary.verdict with
          | Tol.Adversary.Bounded w' when w = w' -> ()
          | Tol.Adversary.Bounded w' ->
              Alcotest.failf
                "%s@b=%d: adversary bound %d but certificate worst case %d"
                name p.budget w' w
          | Tol.Adversary.Unbounded _ ->
              Alcotest.failf
                "%s@b=%d: adversary unbounded but certificate worst case %d"
                name p.budget w)
      | _ -> ())
    f.Tol.Sweep.points

let test_sweep_token_ring () =
  let tr = Token_ring.make ~nodes:3 ~k:4 in
  let f =
    sweep ~env:(Token_ring.env tr) ~program:(Token_ring.combined tr)
      ~invariant:(Token_ring.invariant tr) ~legit:(Token_ring.all_zero tr)
      "token-ring"
  in
  check_frontier_laws "token-ring" f;
  Alcotest.(check int) "four points" 4 (List.length f.Tol.Sweep.points);
  List.iter
    (fun (p : Tol.Sweep.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "certified at budget %d" p.budget)
        true p.certified)
    f.Tol.Sweep.points;
  Alcotest.(check (option int)) "no cliff" None f.Tol.Sweep.cliff

let test_sweep_diffusing () =
  let d = Diffusing.make (Topology.Tree.chain 3) in
  let f =
    sweep ~env:(Diffusing.env d) ~program:(Diffusing.combined d)
      ~invariant:(Diffusing.invariant d) ~legit:(Diffusing.all_green d)
      "diffusing"
  in
  check_frontier_laws "diffusing" f

let test_sweep_xyz () =
  let d = Xyz_demo.make Xyz_demo.Good_tree in
  let env = Xyz_demo.env d in
  let legit =
    State.of_list env
      [ (Xyz_demo.x d, 0); (Xyz_demo.y d, 1); (Xyz_demo.z d, 1) ]
  in
  let f =
    sweep ~env ~program:(Xyz_demo.program d)
      ~invariant:(Xyz_demo.invariant d) ~legit "xyz"
  in
  check_frontier_laws "xyz" f

(* --- cliff: the naive ring certifies fault-free, fails at budget 1 --- *)

let test_cliff_naive_ring () =
  let nr = Protocols.Naive_ring.make ~nodes:3 in
  let env = Protocols.Naive_ring.env nr in
  let f =
    sweep ~adversary:false ~env
      ~program:(Protocols.Naive_ring.program nr)
      ~invariant:(Protocols.Naive_ring.invariant nr)
      ~legit:(Protocols.Naive_ring.one_token nr)
      ~budgets:[ 0; 1; 2 ] "naive-ring"
  in
  (match f.Tol.Sweep.points with
  | [ p0; p1; p2 ] ->
      Alcotest.(check bool) "budget 0 certifies" true p0.Tol.Sweep.certified;
      Alcotest.(check bool) "budget 1 fails" false p1.Tol.Sweep.certified;
      Alcotest.(check bool) "budget 2 fails" false p2.Tol.Sweep.certified
  | _ -> Alcotest.fail "three points expected");
  Alcotest.(check (option int)) "cliff at 1" (Some 1) f.Tol.Sweep.cliff

(* --- saturation: once depth < budget, larger budgets replay ---------- *)

let test_sweep_saturation_reuse () =
  let tr = Token_ring.make ~nodes:3 ~k:3 in
  let f =
    sweep ~env:(Token_ring.env tr) ~program:(Token_ring.combined tr)
      ~invariant:(Token_ring.invariant tr) ~legit:(Token_ring.all_zero tr)
      ~budgets:(Tol.Sweep.range ~max:8) "token-ring"
  in
  let reused = List.filter (fun p -> p.Tol.Sweep.reused) f.Tol.Sweep.points in
  Alcotest.(check bool) "some budget saturates by 8" true (reused <> []);
  (* reused points replay the saturated point verbatim *)
  let rec check prev = function
    | [] -> ()
    | p :: rest ->
        (if p.Tol.Sweep.reused then
           match prev with
           | None -> Alcotest.fail "first point cannot be reused"
           | Some q ->
               Alcotest.(check int) "reused span" q.Tol.Sweep.span_states
                 p.Tol.Sweep.span_states;
               Alcotest.(check bool) "reused verdict" q.Tol.Sweep.certified
                 p.Tol.Sweep.certified;
               Alcotest.(check (option int))
                 "reused worst case" q.Tol.Sweep.worst_case
                 p.Tol.Sweep.worst_case);
        check (Some p) rest
  in
  check None f.Tol.Sweep.points;
  (* reuse is a suffix: once saturated, every later budget replays *)
  let rec suffix seen = function
    | [] -> ()
    | p :: rest ->
        if seen && not p.Tol.Sweep.reused then
          Alcotest.failf "budget %d recomputed after saturation"
            p.Tol.Sweep.budget;
        suffix (seen || p.Tol.Sweep.reused) rest
  in
  suffix false f.Tol.Sweep.points

(* --- the adversary bound dominates storm observations ---------------- *)

(* 100 seeded storm trials under the certified budget: every observed
   recovery must sit below the composite bound the adversary implies —
   at most [b] injections split a trial into fault-free segments of at
   most [w] adversarial steps each. *)
let test_adversary_dominates_storm () =
  let tr = Token_ring.make ~nodes:3 ~k:4 in
  let env = Token_ring.env tr in
  let b = 2 in
  let f =
    sweep ~env ~program:(Token_ring.combined tr)
      ~invariant:(Token_ring.invariant tr) ~legit:(Token_ring.all_zero tr)
      ~budgets:[ b ] "token-ring"
  in
  let p = List.hd f.Tol.Sweep.points in
  let w =
    match p.Tol.Sweep.adversary with
    | Some r -> (
        match r.Tol.Adversary.verdict with
        | Tol.Adversary.Bounded w -> w
        | Tol.Adversary.Unbounded _ ->
            Alcotest.fail "token ring adversary bound must be finite")
    | None -> Alcotest.fail "adversary requested"
  in
  Alcotest.(check (option int))
    "adversary agrees with certificate" (Some w) p.Tol.Sweep.worst_case;
  let bound = ((b + 1) * w) + b in
  let result =
    Sim.Storm.trials ~max_steps:10_000 ~fault_budget:b ~jobs:1
      ~rng:(Prng.create 0xad5e) ~trials:100
      ~daemon:(fun r -> Sim.Daemon.random r)
      ~prepare:(fun rng ->
        let s = State.copy (Token_ring.all_zero tr) in
        (Fault.corrupt env ~k:1).Fault.inject rng s;
        s)
      ~stop:(Token_ring.invariant tr)
      ~fault:(Fault.corrupt env ~k:1)
      ~rate:0.2
      (Compile.program (Token_ring.combined tr))
  in
  Alcotest.(check int) "all trials converge" 0 result.Sim.Storm.failures;
  Array.iteri
    (fun i steps ->
      if steps > bound then
        Alcotest.failf "trial %d took %d steps, above the sound bound %d" i
          steps bound)
    result.Sim.Storm.steps

(* --- environment actions --------------------------------------------- *)

let ring_sensor_src =
  {|model ring-sensor

param N = 3
param K = 4

topology ring(N)

var x[N] : 0..K-1
var sensor : 0..1

action increment:
  x[0] = x[N-1] /\ x[0] < K-1 -> x[0] := x[0] + 1

action copy[j in 0..N-2]:
  x[j] <> x[j+1] -> x[j+1] := x[j]

env flip:
  true -> sensor := 1 - sensor

invariant (forall j in 0..N-2: x[j] >= x[j+1]) /\ (x[0] = x[N-1] \/ x[0] = x[N-1] + 1)
|}

(* The same ring with a hostile environment action that pushes the head
   counter; also the CLI and serve fixture. *)
let ring_hostile_src () =
  Test_lang.read_file (Test_lang.golden_path "ring_hostile.nm")

(* A benign environment (a sensor the invariant ignores) keeps the
   certificate valid — but the unfair daemon can schedule the sensor
   forever, so the exact bound degrades to the weak-fairness fallback
   and the adversary honestly reports Unbounded. *)
let test_env_benign_certifies_adversary_unbounded () =
  let em = Lang.Driver.compile_string ~file:"ring-sensor.nm" ring_sensor_src in
  Alcotest.(check int) "one env action" 1
    (List.length em.Lang.Elab.env_actions);
  let f =
    sweep ~envs:em.Lang.Elab.env_actions ~env:em.Lang.Elab.env
      ~program:em.Lang.Elab.program ~invariant:em.Lang.Elab.invariant
      ~legit:em.Lang.Elab.init ~budgets:[ 0; 1 ] "ring-sensor"
  in
  List.iter
    (fun (p : Tol.Sweep.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "certified at budget %d" p.budget)
        true p.certified;
      if p.budget = 0 then begin
        (* fault-free, the whole span sits inside S: trivially exact *)
        Alcotest.(check (option int)) "budget 0 exact" (Some 0) p.worst_case;
        match p.adversary with
        | Some { Tol.Adversary.verdict = Tol.Adversary.Bounded 0; _ } -> ()
        | _ -> Alcotest.fail "budget 0 adversary must be Bounded 0"
      end
      else begin
        (* off-S states exist and the daemon can schedule the sensor
           forever: the exact bound degrades to the weak-fairness
           fallback and the adversary reports the starvation cycle *)
        Alcotest.(check (option int))
          (Printf.sprintf "no exact bound at budget %d" p.budget)
          None p.worst_case;
        match p.adversary with
        | Some { Tol.Adversary.verdict = Tol.Adversary.Unbounded _; _ } -> ()
        | Some { Tol.Adversary.verdict = Tol.Adversary.Bounded w; _ } ->
            Alcotest.failf "adversary bounded at %d despite the free sensor" w
        | None -> Alcotest.fail "adversary requested"
      end)
    f.Tol.Sweep.points

(* A hostile environment that pushes the head variable breaks legitimacy
   without consuming fault budget: the environment-closure obligation
   fails at every budget, including 0. *)
let test_env_hostile_fails_certification () =
  let em =
    Lang.Driver.compile_string ~file:"ring-hostile.nm" (ring_hostile_src ())
  in
  let f =
    sweep ~adversary:false ~envs:em.Lang.Elab.env_actions
      ~env:em.Lang.Elab.env ~program:em.Lang.Elab.program
      ~invariant:em.Lang.Elab.invariant ~legit:em.Lang.Elab.init
      ~budgets:[ 0; 1 ] "ring-hostile"
  in
  List.iter
    (fun (p : Tol.Sweep.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "fails at budget %d" p.budget)
        false p.certified)
    f.Tol.Sweep.points;
  Alcotest.(check (option int)) "uniformly failed: no cliff" None
    f.Tol.Sweep.cliff

(* [certify --faults] runs under the model's environment actions as the
   sweep does: on the hostile ring the environment-closure check fails
   and the verdict is the sweep's at the same budget; the benign sensor
   stays certified. Both front ends run this runner. *)
let test_env_certify_matches_sweep () =
  List.iter
    (fun (file, src, holds) ->
      let em = Lang.Driver.compile_string ~file src in
      let m = Serve.Job.model_of_elab em in
      let fault = Fault.corrupt em.Lang.Elab.env ~k:1 in
      let o = { Serve.Job.defaults with fault_budget = Some 1 } in
      let obs = Obs.Ctx.disabled and guard = Rt.Guard.inert in
      let cert =
        match Serve.Job.certify ~jobs:1 ~obs ~guard m fault o with
        | Serve.Job.Holds c | Serve.Job.Fails c -> c
        | _ -> Alcotest.failf "%s: certify did not finish" file
      in
      let point =
        match
          Serve.Job.tolerance ~jobs:1 ~obs ~guard ~budgets:[ 1 ] m fault o
        with
        | Serve.Job.Holds (_, { Tol.Sweep.points = [ p ]; _ }) -> p
        | _ -> Alcotest.failf "%s: sweep did not finish" file
      in
      Alcotest.(check bool) (file ^ ": verdict") holds (Nonmask.Certify.ok cert);
      Alcotest.(check bool)
        (file ^ ": certify = sweep point at budget 1")
        point.Tol.Sweep.certified (Nonmask.Certify.ok cert);
      Alcotest.(check bool)
        (file ^ ": environment closure fails")
        (not holds)
        (List.exists
           (fun (c : Nonmask.Certify.check) ->
             String.starts_with ~prefix:"environment closure" c.label)
           (Nonmask.Certify.failures cert)))
    [
      ("ring-sensor.nm", ring_sensor_src, true);
      ("ring-hostile.nm", ring_hostile_src (), false);
    ]

(* --- cross-backend / cross-job bit-identity -------------------------- *)

let point_sig (p : Tol.Sweep.point) =
  ( p.Tol.Sweep.budget,
    p.Tol.Sweep.span_states,
    p.Tol.Sweep.span_roots,
    p.Tol.Sweep.max_depth,
    p.Tol.Sweep.certified,
    p.Tol.Sweep.worst_case,
    (match p.Tol.Sweep.adversary with
    | None -> None
    | Some r ->
        Some
          ( (match r.Tol.Adversary.verdict with
            | Tol.Adversary.Bounded w -> Some w
            | Tol.Adversary.Unbounded _ -> None),
            r.Tol.Adversary.span_states,
            r.Tol.Adversary.outside,
            r.Tol.Adversary.ranked,
            r.Tol.Adversary.waves )),
    p.Tol.Sweep.reused )

let frontier_sig (f : Tol.Sweep.frontier) =
  (List.map point_sig f.Tol.Sweep.points, f.Tol.Sweep.cliff)

let test_cross_backend_identity () =
  let curve backend jobs =
    let tr = Token_ring.make ~nodes:3 ~k:4 in
    frontier_sig
      (sweep ~backend ~jobs ~env:(Token_ring.env tr)
         ~program:(Token_ring.combined tr)
         ~invariant:(Token_ring.invariant tr)
         ~legit:(Token_ring.all_zero tr) "token-ring")
  in
  let reference = curve Engine.Lazy 1 in
  List.iter
    (fun (backend, jobs, label) ->
      if curve backend jobs <> reference then
        Alcotest.failf "%s frontier differs from lazy --jobs 1" label)
    [
      (Engine.Eager, 1, "eager --jobs 1");
      (Engine.Lazy, 4, "lazy --jobs 4");
      (Engine.Parallel, 4, "parallel --jobs 4");
    ]

(* --- one eager relation per program ---------------------------------- *)

(* Every budget recompiles the program and program ∪ faults; the eager
   engine creates each relation once (the cache matches action sources),
   builds each of their rows at most once across the budgets, and reports
   both in its metrics; the curve is the lazy one, byte for byte. *)
let test_eager_sweep_builds_each_relation_once () =
  let em = Test_lang.compile ~params:[ ("N", 4); ("K", 5) ] "token_ring.nm" in
  let env = em.Lang.Elab.env and program = em.Lang.Elab.program in
  let faults = corrupt_actions env in
  let frontier backend =
    let obs = Obs.Ctx.create () in
    let engine = Engine.create ~backend ~jobs:1 ~obs env in
    let f =
      Tol.Sweep.run ~engine ~program ~faults ~envs:em.Lang.Elab.env_actions
        ~invariant:em.Lang.Elab.invariant ~budgets:(Tol.Sweep.range ~max:3)
        ~adversary:true ~name:em.Lang.Elab.name ()
    in
    let json =
      String.concat "\n"
        (List.map
           (fun p -> Obs.Json.to_string (Tol.Sweep.point_json p))
           f.Tol.Sweep.points)
    in
    let metric kind name = kind (Obs.Ctx.metrics obs) name in
    let counter name = Obs.Metrics.value (metric Obs.Metrics.counter name) in
    ( (json, f.Tol.Sweep.cliff),
      counter "engine.csr_builds",
      counter "engine.csr_rows",
      Obs.Metrics.gauge_value (metric Obs.Metrics.gauge "engine.csr_bytes"),
      Engine.relations engine )
  in
  let eager, builds, rows, bytes, relations = frontier Engine.Eager in
  let lazy_, lazy_builds, _, _, _ = frontier Engine.Lazy in
  Alcotest.(check int) "eager relations built" 2 builds;
  Alcotest.(check int) "lazy relations built" 0 lazy_builds;
  let module Tsys = Explore.Tsys in
  Alcotest.(check int) "csr rows: both relations"
    (List.fold_left (fun n ts -> n + Tsys.rows_built ts) 0 relations)
    rows;
  (* both programs have at most 256 actions: 5 B per transition *)
  let layout ts =
    (4 * Tsys.state_count ts)
    + (8 * (Tsys.rows_built ts + 1))
    + (5 * Tsys.transition_count ts)
  in
  Alcotest.(check int) "csr bytes: both relations"
    (List.fold_left (fun n ts -> n + layout ts) 0 relations)
    bytes;
  (* a query builds a missing row: once every state's row is asked for,
     a relation holds one row per state exactly when no row was built
     twice *)
  List.iter
    (fun ts ->
      for id = 0 to Tsys.state_count ts - 1 do
        ignore (Tsys.out_degree ts id)
      done;
      Alcotest.(check int) "no row built twice" (Tsys.state_count ts)
        (Tsys.rows_built ts))
    relations;
  Alcotest.(check (pair string (option int))) "frontier JSON" lazy_ eager

(* --- storm rendering: observations vs the sound bound ----------------- *)

(* Golden rendering: quantiles carry the [observed] label, the sound
   bound its own [bound=] column. Constant samples pin every statistic
   regardless of quantile conventions. *)
(* The adversary's expansion polls the engine's guard: with an
   already-cancelled token, [worst_case] stops before its first slice on
   every backend, and so does a sweep that asks for the adversary. *)
let test_adversary_honours_guard () =
  let tr = Token_ring.make ~nodes:4 ~k:5 in
  let env = Token_ring.env tr in
  let program = Token_ring.combined tr in
  let invariant s = Token_ring.invariant tr s in
  let cp = Compile.program program in
  let span =
    Explore.Faultspan.compute (Engine.create env) ~program:cp
      ~faults:
        (Compile.program
           (Guarded.Program.make ~name:"faults" env (corrupt_actions env)))
      ~from:(Engine.Pred invariant) ~budget:1 ()
  in
  let cancelled backend jobs =
    let cancel = Rt.Cancel.create () in
    Rt.Cancel.request cancel (Rt.Cancel.Signal "SIGINT");
    Engine.create ~backend ~jobs ~guard:(Rt.Guard.create ~cancel ()) env
  in
  let interrupted name f =
    match f () with
    | exception Engine.Interrupted i ->
        Alcotest.(check bool)
          (name ^ ": the signal is the reason")
          true
          (i.Engine.reason = Rt.Cancel.Signal "SIGINT")
    | _ -> Alcotest.failf "%s: finished under a cancelled guard" name
  in
  List.iter
    (fun (backend, jobs) ->
      interrupted
        (Printf.sprintf "worst_case (%s, jobs=%d)"
           (Engine.backend_name (cancelled backend jobs))
           jobs)
        (fun () ->
          Tol.Adversary.worst_case (cancelled backend jobs) ~program:cp ~span
            ~invariant ()))
    [ (Engine.Eager, 1); (Engine.Lazy, 1); (Engine.Parallel, 2) ];
  interrupted "sweep with the adversary" (fun () ->
      Tol.Sweep.run ~engine:(cancelled Engine.Lazy 1) ~program
        ~faults:(corrupt_actions env) ~invariant ~budgets:[ 0; 1 ]
        ~adversary:true ~name:"token-ring" ())

let test_storm_bound_labels () =
  let r =
    {
      Sim.Storm.steps = [| 4; 4; 4 |];
      failures = 0;
      fault_counts = [| 1; 1; 1 |];
      summary = Some (Sim.Stats.summarize_ints [| 4; 4; 4 |]);
      skipped = 0;
      timeouts = 0;
      retries = 0;
    }
  in
  Alcotest.(check string)
    "finite bound rendering"
    "observed n=3 mean=4.00 sd=0.00 min=4 med=4.0 p90=4.0 max=4 \
     faults/trial=1.0 bound=24"
    (Format.asprintf "%a" (Sim.Storm.pp_result_with_bound ~bound:(Some 24)) r);
  Alcotest.(check string)
    "unbounded rendering"
    "observed n=3 mean=4.00 sd=0.00 min=4 med=4.0 p90=4.0 max=4 \
     faults/trial=1.0 bound=unbounded"
    (Format.asprintf "%a" (Sim.Storm.pp_result_with_bound ~bound:None) r)

(* --- frontier rendering ----------------------------------------------- *)

let test_frontier_rendering () =
  let tr = Token_ring.make ~nodes:3 ~k:3 in
  let f =
    sweep ~env:(Token_ring.env tr) ~program:(Token_ring.combined tr)
      ~invariant:(Token_ring.invariant tr) ~legit:(Token_ring.all_zero tr)
      ~budgets:(Tol.Sweep.range ~max:5) "token-ring"
  in
  let rendered = Format.asprintf "%a" Tol.Sweep.pp_frontier f in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S" needle)
        true
        (Astring_contains.contains rendered needle))
    [ "budget"; "span(|T|)"; "certified"; "adversary"; "(reused)"; "cliff" ]

(* --- sweep input validation ------------------------------------------- *)

let test_sweep_rejects_bad_budgets () =
  Alcotest.check_raises "negative range"
    (Invalid_argument "Tol.Sweep.range: negative budget") (fun () ->
      ignore (Tol.Sweep.range ~max:(-1)));
  let tr = Token_ring.make ~nodes:3 ~k:3 in
  let attempt budgets =
    ignore
      (sweep ~adversary:false ~env:(Token_ring.env tr)
         ~program:(Token_ring.combined tr)
         ~invariant:(Token_ring.invariant tr)
         ~legit:(Token_ring.all_zero tr) ~budgets "token-ring")
  in
  (try
     attempt [];
     Alcotest.fail "empty budget list accepted"
   with Invalid_argument _ -> ());
  try
    attempt [ 1; -3 ];
    Alcotest.fail "negative budget accepted"
  with Invalid_argument _ -> ()

(* --- span extension: each extended view is a fresh compute ----------- *)

(* Everything a span shows: keys in iter order, counts, histogram, and
   membership, depth and index of every key of a larger span. *)
let span_view engine ~top sp =
  let module F = Explore.Faultspan in
  let iterated = ref [] in
  F.iter sp (fun s -> iterated := Engine.encode_key engine s :: !iterated);
  ( (F.count sp, F.root_count sp, F.max_depth sp),
    Array.to_list (F.depth_histogram sp),
    (List.init (F.count sp) (F.nth_key sp), List.rev !iterated),
    List.map
      (fun s ->
        let k = Engine.encode_key engine s in
        (F.mem_key sp k, F.mem sp s, F.depth sp s, F.index_key sp k))
      (F.states top) )

(* The paper's three models, on every backend at jobs 1 and 3, from the
   invariant and from a radius-1 ball, extended over budget lists with
   gaps, then unbounded, then back to a passed budget: every view equals
   a fresh [compute] at its budget, after all later extensions. *)
let test_extension_matches_compute () =
  let models =
    [
      ("diffusing.nm", [ ("N", 4) ]);
      ("token_ring.nm", [ ("N", 4); ("K", 4) ]);
      ("xyz.nm", []);
    ]
  in
  List.iter
    (fun (file, params) ->
      let em = Lang.Driver.compile_file ~params (Test_lang.model_path file) in
      let env = em.Lang.Elab.env in
      let cp = Compile.program em.Lang.Elab.program in
      let fp =
        Compile.program
          (Guarded.Program.make ~name:"faults" env (corrupt_actions env))
      in
      let roots =
        [
          ("pred", Engine.Pred em.Lang.Elab.invariant);
          ( "ball",
            Engine.Seeds (Engine.ball env ~center:em.Lang.Elab.init ~radius:1)
          );
        ]
      in
      List.iter
        (fun (backend, jobs) ->
          let engine () = Engine.create ~backend ~jobs env in
          List.iter
            (fun (rname, from) ->
              let fresh budget =
                Explore.Faultspan.compute (engine ()) ~program:cp ?budget
                  ~faults:fp ~from ()
              in
              let top = fresh None in
              List.iter
                (fun budgets ->
                  let e = engine () in
                  let search =
                    Explore.Faultspan.start e ~program:cp ~faults:fp ~from ()
                  in
                  let views =
                    List.map
                      (fun b -> (b, Explore.Faultspan.extend search ?budget:b ()))
                      (budgets @ [ None; Some 1 ])
                  in
                  List.iter
                    (fun (b, v) ->
                      if span_view e ~top v <> span_view e ~top (fresh b) then
                        Alcotest.failf "%s %s j%d %s [%s]: budget %s differs"
                          file
                          (Engine.backend_name e)
                          jobs rname
                          (String.concat ";"
                             (List.map
                                (function
                                  | Some b -> string_of_int b | None -> "-")
                                budgets))
                          (match b with
                          | Some b -> string_of_int b
                          | None -> "unbounded"))
                    views)
                [
                  [ Some 0; Some 2; Some 5 ];
                  [ Some 1; Some 3 ];
                  [ Some 0; Some 1; Some 2; Some 3; Some 4 ];
                ])
            roots)
        [
          (Engine.Eager, 1);
          (Engine.Eager, 3);
          (Engine.Lazy, 1);
          (Engine.Lazy, 3);
          (Engine.Parallel, 1);
          (Engine.Parallel, 3);
        ])
    models

let suite =
  [
    Alcotest.test_case "sweep laws: token ring" `Quick test_sweep_token_ring;
    Alcotest.test_case "sweep laws: diffusing" `Quick test_sweep_diffusing;
    Alcotest.test_case "sweep laws: xyz" `Quick test_sweep_xyz;
    Alcotest.test_case "cliff: naive ring" `Quick test_cliff_naive_ring;
    Alcotest.test_case "saturation reuse" `Quick test_sweep_saturation_reuse;
    Alcotest.test_case "adversary dominates storm" `Quick
      test_adversary_dominates_storm;
    Alcotest.test_case "env benign: certified, adversary unbounded" `Quick
      test_env_benign_certifies_adversary_unbounded;
    Alcotest.test_case "env hostile: certification fails" `Quick
      test_env_hostile_fails_certification;
    Alcotest.test_case "env: certify honours env actions like the sweep"
      `Quick test_env_certify_matches_sweep;
    Alcotest.test_case "eager sweep builds each relation once" `Quick
      test_eager_sweep_builds_each_relation_once;
    Alcotest.test_case "cross-backend bit-identity" `Quick
      test_cross_backend_identity;
    Alcotest.test_case "adversary honours the guard" `Quick
      test_adversary_honours_guard;
    Alcotest.test_case "storm observed/bound labels" `Quick
      test_storm_bound_labels;
    Alcotest.test_case "frontier rendering" `Quick test_frontier_rendering;
    Alcotest.test_case "sweep rejects bad budgets" `Quick
      test_sweep_rejects_bad_budgets;
    Alcotest.test_case "span extension matches compute" `Quick
      test_extension_matches_compute;
  ]
