(* Tests for the pluggable exploration engine: space encoding boundaries,
   the lazy frontier backend, and — most importantly — that eager and lazy
   backends return identical verdicts on the seed protocols. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Tree = Topology.Tree
module Space = Explore.Space
module Engine = Explore.Engine
module Convergence = Explore.Convergence

let env_of_sizes sizes =
  let env = Guarded.Env.create () in
  List.iteri
    (fun i n ->
      ignore
        (Guarded.Env.fresh env
           (Printf.sprintf "v%d" i)
           (Guarded.Domain.range 0 (n - 1))))
    sizes;
  env

(* --- Space encode/decode --- *)

let test_space_roundtrip_exhaustive () =
  let env = env_of_sizes [ 3; 4; 2; 5 ] in
  let space = Space.create env in
  Alcotest.(check int) "size" 120 (Space.size space);
  Space.iter space (fun id s ->
      Alcotest.(check int) "encode(decode id) = id" id (Space.encode space s))

let test_space_roundtrip_unbounded () =
  (* 6^20 ~ 3.6e15 states: far over the default cap, still encodable. An
     unbounded space must roundtrip sampled states exactly. *)
  let env = env_of_sizes (List.init 20 (fun _ -> 6)) in
  let space = Space.create_unbounded env in
  let rng = Prng.create 7 in
  let vars = Guarded.Env.vars env in
  for _ = 1 to 200 do
    let s = State.make env in
    Array.iter
      (fun v ->
        State.set s v (Prng.int rng (Guarded.Domain.size (Guarded.Var.domain v))))
      vars;
    let key = Space.encode space s in
    Alcotest.(check bool) "decode(encode s) = s" true
      (State.equal s (Space.decode space key))
  done

let test_space_too_large_boundary () =
  let env = env_of_sizes [ 4; 5 ] in
  (* exactly at the cap: allowed *)
  let space = Space.create ~max_states:20 env in
  Alcotest.(check int) "at-cap size" 20 (Space.size space);
  (* one below the cap: rejected, carrying the true size *)
  match Space.create ~max_states:19 env with
  | exception Space.Too_large total ->
      Alcotest.(check (float 1e-9)) "reported size" 20.0 total
  | _ -> Alcotest.fail "19-state cap must reject a 20-state space"

let test_space_encodable_max_guard () =
  (* 2^61 states overflow the mixed-radix code even unbounded *)
  let env = env_of_sizes (List.init 61 (fun _ -> 2)) in
  Alcotest.(check bool) "raises Too_large" true
    (try
       ignore (Space.create_unbounded env);
       false
     with Space.Too_large _ -> true)

let test_eager_engine_respects_cap () =
  let env = env_of_sizes [ 10; 10; 10 ] in
  Alcotest.(check bool) "eager over cap rejected" true
    (try
       ignore (Engine.create ~backend:Engine.Eager ~max_states:999 env);
       false
     with Space.Too_large _ -> true);
  (* the lazy engine accepts the same env and raises only on overflow *)
  let engine = Engine.create ~backend:Engine.Lazy ~max_states:999 env in
  Alcotest.(check bool) "lazy create ok" true (Engine.backend engine = Engine.Lazy);
  Alcotest.(check bool) "lazy sweep over budget raises" true
    (try
       Engine.iter_states engine (fun _ -> ());
       false
     with Engine.Region_overflow n -> n > 999)

let test_ball_counts () =
  let env = env_of_sizes [ 3; 4; 2 ] in
  let center = State.make env in
  let count r = List.length (Engine.ball env ~center ~radius:r) in
  (* radius 0: just the center; radius 1: 1 + Σ (dᵢ - 1) = 1 + 2 + 3 + 1 *)
  Alcotest.(check int) "radius 0" 1 (count 0);
  Alcotest.(check int) "radius 1" 7 (count 1);
  (* radius = #vars: the whole space *)
  Alcotest.(check int) "radius 3" 24 (count 3);
  let all = Engine.ball env ~center ~radius:3 in
  let space = Space.create env in
  let keys = List.sort_uniq compare (List.map (Space.encode space) all) in
  Alcotest.(check int) "ball states distinct" 24 (List.length keys)

let test_ball_edge_cases () =
  let env = env_of_sizes [ 3; 4; 2 ] in
  let center = State.make env in
  State.set center (Guarded.Env.var_at env 1) 2;
  (* radius 0: exactly the seed state *)
  (match Engine.ball env ~center ~radius:0 with
  | [ s ] ->
      Alcotest.(check bool) "radius 0 is the center" true (State.equal s center)
  | l -> Alcotest.failf "radius 0 ball has %d states" (List.length l));
  (* radius past the variable count saturates at the full space *)
  let space = Space.create env in
  let full = Engine.ball env ~center ~radius:17 in
  Alcotest.(check int) "oversized radius = whole space" (Space.size space)
    (List.length full);
  let keys = List.sort_uniq compare (List.map (Space.encode space) full) in
  Alcotest.(check int) "distinct states" (Space.size space) (List.length keys)

let test_equiv_ball_rooted_region () =
  (* the two backends must build the same ¬S region from a fault ball:
     the same node numbering, terminals, edges in order and count *)
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:4 in
  let env = Protocols.Token_ring.env tr in
  let seeds =
    Engine.ball env ~center:(Protocols.Token_ring.all_zero tr) ~radius:2
  in
  let run backend =
    let engine = Engine.create ~backend env in
    let region =
      Engine.region engine
        (Compile.program (Protocols.Token_ring.combined tr))
        ~from:(Engine.Seeds seeds)
        ~target:(fun s -> Protocols.Token_ring.invariant tr s)
    in
    ( region.Engine.node_key,
      region.Engine.terminal,
      List.map
        (fun (e : _ Dgraph.Digraph.edge) -> (e.src, e.dst, e.label))
        (Dgraph.Digraph.edges region.Engine.graph),
      region.Engine.explored )
  in
  Alcotest.(check bool) "identical ball-rooted regions" true
    (run Engine.Eager = run Engine.Lazy)

(* --- Eager/lazy verdict equivalence on the seed protocols --- *)

let stats_eq (a : Convergence.stats) (b : Convergence.stats) =
  a.region_states = b.region_states
  && a.explored = b.explored
  && a.worst_case_steps = b.worst_case_steps

let check_both_unfair name env program invariant =
  let run backend =
    Convergence.check_unfair
      (Engine.create ~backend env)
      (Compile.program program) ~from:Engine.All ~target:invariant
  in
  match (run Engine.Eager, run Engine.Lazy) with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical stats" name)
        true (stats_eq a b)
  | Error (Convergence.Deadlock a), Error (Convergence.Deadlock b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: same deadlock" name)
        true (State.equal a b)
  | Error (Convergence.Livelock _), Error (Convergence.Livelock _) -> ()
  | _ -> Alcotest.failf "%s: eager and lazy verdicts differ" name

let test_equiv_diffusing () =
  List.iter
    (fun tree ->
      let d = Protocols.Diffusing.make tree in
      check_both_unfair "diffusing"
        (Protocols.Diffusing.env d)
        (Protocols.Diffusing.combined d)
        (fun s -> Protocols.Diffusing.invariant d s))
    [ Tree.chain 3; Tree.star 4; Tree.balanced ~arity:2 5 ]

let test_equiv_token_ring () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  check_both_unfair "token-ring"
    (Protocols.Token_ring.env tr)
    (Protocols.Token_ring.combined tr)
    (fun s -> Protocols.Token_ring.invariant tr s)

let test_equiv_dijkstra () =
  (* one converging and one livelocking instance *)
  let dr = Protocols.Dijkstra_ring.make ~nodes:3 ~k:4 in
  check_both_unfair "dijkstra k=4"
    (Protocols.Dijkstra_ring.env dr)
    (Protocols.Dijkstra_ring.program dr)
    (fun s -> Protocols.Dijkstra_ring.invariant dr s);
  let bad = Protocols.Dijkstra_ring.make ~nodes:4 ~k:2 in
  check_both_unfair "dijkstra k=2"
    (Protocols.Dijkstra_ring.env bad)
    (Protocols.Dijkstra_ring.program bad)
    (fun s -> Protocols.Dijkstra_ring.invariant bad s)

let test_equiv_xyz () =
  List.iter
    (fun variant ->
      let d = Protocols.Xyz_demo.make variant in
      check_both_unfair "xyz"
        (Protocols.Xyz_demo.env d)
        (Protocols.Xyz_demo.program d)
        (fun s -> Protocols.Xyz_demo.invariant d s))
    [ Protocols.Xyz_demo.Good_tree; Protocols.Xyz_demo.Good_ordered;
      Protocols.Xyz_demo.Bad ]

let test_equiv_naive_ring_deadlock () =
  let nr = Protocols.Naive_ring.make ~nodes:3 in
  check_both_unfair "naive-ring"
    (Protocols.Naive_ring.env nr)
    (Protocols.Naive_ring.program nr)
    (fun s -> Protocols.Naive_ring.invariant nr s)

let test_equiv_fair_verdicts () =
  let dr = Protocols.Dijkstra_ring.make ~nodes:3 ~k:2 in
  let run backend =
    Convergence.check_fair
      (Engine.create ~backend (Protocols.Dijkstra_ring.env dr))
      (Compile.program (Protocols.Dijkstra_ring.program dr))
      ~from:Engine.All
      ~target:(fun s -> Protocols.Dijkstra_ring.invariant dr s)
  in
  let tag = function
    | Convergence.Converges _ -> "converges"
    | Convergence.Fails (Convergence.Deadlock _) -> "deadlock"
    | Convergence.Fails (Convergence.Livelock _) -> "livelock"
    | Convergence.Unknown _ -> "unknown"
  in
  Alcotest.(check string) "same fair verdict"
    (tag (run Engine.Eager))
    (tag (run Engine.Lazy))

let test_equiv_seed_roots () =
  (* from a fault ball rather than the whole space, on a space far over the
     eager cap: the lazy engine must agree with an uncapped eager engine *)
  let d = Protocols.Diffusing.make (Tree.balanced ~arity:2 8) in
  let env = Protocols.Diffusing.env d in
  let seeds = Engine.ball env ~center:(Protocols.Diffusing.all_green d) ~radius:2 in
  let run backend =
    Convergence.check_unfair
      (Engine.create ~backend env)
      (Compile.program (Protocols.Diffusing.combined d))
      ~from:(Engine.Seeds seeds)
      ~target:(fun s -> Protocols.Diffusing.invariant d s)
  in
  match (run Engine.Eager, run Engine.Lazy) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "identical stats from seeds" true (stats_eq a b)
  | _ -> Alcotest.fail "seeded diffusing must converge under both backends"

let test_equiv_closure () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  let cp = Compile.program (Protocols.Token_ring.combined tr) in
  let run backend =
    Explore.Closure.program_closed
      (Engine.create ~backend (Protocols.Token_ring.env tr))
      cp
      ~pred:(fun s -> Protocols.Token_ring.invariant tr s)
  in
  match (run Engine.Eager, run Engine.Lazy) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "token ring invariant closed under both backends"

let test_lazy_beyond_eager_cap () =
  (* 13^8 ~ 8.2e8 states: eager materialization is impossible under the 2M
     default cap, but a radius-1 fault ball converges with a tiny region *)
  let dr = Protocols.Dijkstra_ring.make ~nodes:8 ~k:13 in
  let env = Protocols.Dijkstra_ring.env dr in
  (match Engine.create ~backend:Engine.Eager env with
  | exception Space.Too_large _ -> ()
  | _ -> Alcotest.fail "13^8 must exceed the eager cap");
  let engine = Engine.create ~backend:Engine.Lazy env in
  let seeds =
    Engine.ball env ~center:(Protocols.Dijkstra_ring.all_zero dr) ~radius:1
  in
  match
    Convergence.check_unfair engine
      (Compile.program (Protocols.Dijkstra_ring.program dr))
      ~from:(Engine.Seeds seeds)
      ~target:(fun s -> Protocols.Dijkstra_ring.invariant dr s)
  with
  | Ok { explored; _ } ->
      Alcotest.(check bool) "tiny fraction explored" true (explored < 100_000)
  | Error _ -> Alcotest.fail "dijkstra 8/13 converges from radius-1 faults"

(* --- allocation per region edge ---

   The lazy and parallel searches append each committed edge to blocks
   and copy the blocks once into the graph's exact arrays: 9 B per edge
   in the blocks (a destination word and a one-byte action label; the
   sources are per-node offsets), 9 B in the source-free graph, plus a
   few for the offsets and node tables. A doubling buffer of interleaved
   triples copied out at the end costs 80 and more. The region is
   token_ring.nm at N=5, K=5 under program ∪ corrupt:k=1 faults from
   every state: 71,912 edges. Allocation counts are deterministic for a
   single-domain search once a full major collection has run: 22.75 B
   per edge on lazy and on parallel at jobs 1, which run the same
   one-worker path and write no phase-A records, pinned here with a
   margin of about 9% (44.2 B while the blocks held a source and a label
   word per edge and the graph a label word; 58.7 B parallel at jobs 1
   while it wrote records; 51.8 and 66.3 B while the graph kept a source
   array). *)

let test_region_alloc_per_edge () =
  let em =
    Lang.Driver.compile_file
      ~params:[ ("N", 5); ("K", 5) ]
      (Test_lang.model_path "token_ring.nm")
  in
  let faults = Sim.Fault.actions (Sim.Fault.corrupt em.Lang.Elab.env ~k:1) in
  let cp =
    Compile.program (Guarded.Program.add_actions em.Lang.Elab.program faults)
  in
  let per_edge backend =
    let engine = Engine.create ~backend ~jobs:1 em.Lang.Elab.env in
    let run () =
      Engine.region engine cp ~from:Engine.All ~target:em.Lang.Elab.invariant
    in
    ignore (run ());
    (* settle the warm-up's large blocks, whose words the runtime may
       otherwise count late, inside the measured call *)
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    let r = run () in
    let allocated = Gc.allocated_bytes () -. before in
    let edges = Dgraph.Digraph.edge_count r.Engine.graph in
    Alcotest.(check int) "region edges" 71_912 edges;
    allocated /. float edges
  in
  let lazy_b = per_edge Engine.Lazy and par_b = per_edge Engine.Parallel in
  if lazy_b > 25. then
    Alcotest.failf "lazy: %.1f B per edge (at most 25)" lazy_b;
  if par_b > 25. then
    Alcotest.failf "parallel at jobs 1: %.1f B per edge (at most 25)" par_b

(* --- successor stepping: Engine.step against apply_into + encode_key ---

   Each case draws a generated model (program and fault actions) and
   random in-domain states from one seed. *)

let step_cases seed f =
  let rng = Prng.create seed in
  let m = Gen.Generate.model rng in
  let actions =
    Array.of_list
      (List.mapi
         (fun index a -> Compile.action ~index a)
         (Array.to_list (Guarded.Program.actions m.Gen.Spec.program)
         @ m.Gen.Spec.fault_actions))
  in
  let e = Engine.create ~backend:Engine.Lazy m.Gen.Spec.env in
  let space = Engine.space e in
  List.for_all
    (fun _ ->
      let s = Space.decode space (Prng.int rng (Space.size space)) in
      let st = Engine.stepper e in
      Engine.load st (Engine.encode_key e s);
      f e actions st s)
    (List.init 16 Fun.id)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_step_key =
  QCheck.Test.make ~name:"step key = encode_key of apply_into" ~count:200
    seed_arb (fun seed ->
      step_cases seed (fun e actions st s ->
          let post = State.make (Engine.env e) in
          Array.for_all
            (fun (ca : Compile.action) ->
              (not (ca.enabled s))
              ||
              begin
                ca.apply_into s post;
                let key = Engine.step st ca in
                let ok =
                  key = Engine.encode_key e post
                  && State.equal (Engine.stepper_state st) post
                in
                Engine.undo st;
                ok
              end)
            actions))

let prop_step_undo =
  QCheck.Test.make ~name:"undo restores the stepped buffer" ~count:200
    seed_arb (fun seed ->
      step_cases seed (fun _ actions st s ->
          Array.for_all
            (fun (ca : Compile.action) ->
              (not (ca.enabled s))
              ||
              begin
                ignore (Engine.step st ca);
                Engine.undo st;
                State.equal (Engine.stepper_state st) s
              end)
            actions))

(* A twin of [ca] that first flips every other variable (a write that
   changes the state, when the domain has two values or more) and then
   assigns [ca]'s last target its right-hand side shifted by the domain's
   size. Generated right-hand sides are clamped into their domains, so
   the shifted one always leaves it. *)
let unclamped env (ca : Compile.action) =
  match List.rev (Guarded.Action.assigns ca.Compile.source) with
  | [] -> None
  | (v, e) :: _ ->
      let flip w =
        let lo = Guarded.Domain.first (Guarded.Var.domain w) in
        let next = lo + 1 in
        Guarded.Expr.(w, Ite (Cmp (Eq, Var w, Const lo), Const next, Const lo))
      in
      let others =
        List.filter
          (fun w -> not (Guarded.Var.equal w v))
          (Array.to_list (Guarded.Env.vars env))
      in
      let size = Guarded.Domain.size (Guarded.Var.domain v) in
      let a =
        Guarded.Action.make ~name:"unclamped"
          ~guard:(Guarded.Action.guard ca.Compile.source)
          (List.map flip others @ [ (v, Guarded.Expr.(Add (e, Const size))) ])
      in
      Some (Compile.action ~index:ca.Compile.index a)

let prop_step_domain_violation =
  QCheck.Test.make ~name:"step: Domain_violation leaves buffer untouched"
    ~count:200 seed_arb (fun seed ->
      step_cases seed (fun e actions st s ->
          Array.for_all
            (fun ca ->
              match unclamped (Engine.env e) ca with
              | None -> true
              | Some ca when not (ca.Compile.enabled s) -> true
              | Some ca -> (
                  match Engine.step st ca with
                  | _ -> false
                  | exception State.Domain_violation _ ->
                      State.equal (Engine.stepper_state st) s))
            actions))

(* --- one frontier kernel: every backend and job count agree ---

   The lazy backend is the frontier kernel at one worker; the parallel
   one runs it at any job count, and the eager one walks its relation
   the same way. Each case runs a region search on every (backend,
   jobs, storage) combination and compares the result field by field
   against lazy on probed storage (eager has no visited table, so it
   runs once). *)

let kernel_runs =
  [ (Engine.Eager, 1); (Engine.Lazy, 1); (Engine.Parallel, 1);
    (Engine.Parallel, 2); (Engine.Parallel, 3) ]

let check_region_fields ~what (a : Engine.region) (b : Engine.region) =
  Alcotest.(check (array int)) (what ^ ": node_key") a.Engine.node_key
    b.Engine.node_key;
  let edges (r : Engine.region) =
    List.map
      (fun (e : _ Dgraph.Digraph.edge) -> (e.Dgraph.Digraph.src, e.dst, e.label))
      (Dgraph.Digraph.edges r.Engine.graph)
  in
  Alcotest.(check (list (triple int int int))) (what ^ ": edges in order")
    (edges a) (edges b);
  Alcotest.(check (array bool)) (what ^ ": terminal") a.Engine.terminal
    b.Engine.terminal;
  Alcotest.(check int) (what ^ ": explored") a.Engine.explored
    b.Engine.explored

(* Region searches over [program] from [All], from the target's
   complement ([Pred]) and from the radius-1 ball around [legit]. *)
let check_kernel_agrees ~name env program ~target ~legit =
  let cp = Compile.program program in
  let roots =
    [
      ("all", Engine.All);
      ("pred", Engine.Pred (fun s -> not (target s)));
      ("ball", Engine.Seeds (Engine.ball env ~center:legit ~radius:1));
    ]
  in
  List.iter
    (fun (root_name, from) ->
      let region backend jobs storage =
        Engine.region
          (Engine.create ~backend ~jobs ~storage env)
          cp ~from ~target
      in
      let base = region Engine.Lazy 1 Engine.Probed in
      List.iter
        (fun (backend, jobs) ->
          List.iter
            (fun (storage, sname) ->
              check_region_fields
                ~what:
                  (Printf.sprintf "%s/%s %s j%d %s" name root_name
                     (match backend with
                     | Engine.Eager -> "eager"
                     | Engine.Lazy -> "lazy"
                     | Engine.Parallel -> "parallel")
                     jobs sname)
                base
                (region backend jobs storage))
            (if backend = Engine.Eager then [ (Engine.Auto, "csr") ]
             else [ (Engine.Direct, "direct"); (Engine.Probed, "probed") ]))
        kernel_runs)
    roots

let test_kernel_agrees_models () =
  List.iter
    (fun file ->
      let em = Lang.Driver.compile_file (Test_lang.model_path file) in
      check_kernel_agrees ~name:file em.Lang.Elab.env
        (Guarded.Program.add_actions em.Lang.Elab.program
           em.Lang.Elab.fault_actions)
        ~target:em.Lang.Elab.invariant ~legit:em.Lang.Elab.init)
    [ "diffusing.nm"; "token_ring.nm"; "xyz.nm" ]

let test_kernel_agrees_generated () =
  for seed = 1 to 25 do
    let m = Gen.Generate.model (Prng.create seed) in
    check_kernel_agrees
      ~name:(Printf.sprintf "gen %d" seed)
      m.Gen.Spec.env
      (Guarded.Program.add_actions m.Gen.Spec.program m.Gen.Spec.fault_actions)
      ~target:m.Gen.Spec.invariant ~legit:m.Gen.Spec.legit
  done

(* At one worker each successor is committed as it is stepped, and the
   eager walk tests each state as it discovers it, so the target
   predicate runs once per discovered state. *)
let test_kernel_target_once_per_state () =
  let em = Lang.Driver.compile_file (Test_lang.model_path "token_ring.nm") in
  let cp =
    Compile.program
      (Guarded.Program.add_actions em.Lang.Elab.program
         em.Lang.Elab.fault_actions)
  in
  let env = em.Lang.Elab.env in
  List.iter
    (fun (backend, from, what) ->
      let calls = ref 0 in
      let target s =
        incr calls;
        em.Lang.Elab.invariant s
      in
      let r =
        Engine.region (Engine.create ~backend ~jobs:1 env) cp ~from ~target
      in
      Alcotest.(check int) (what ^ ": target calls = explored")
        r.Engine.explored !calls)
    [
      (Engine.Eager, Engine.Seeds [ em.Lang.Elab.init ], "eager init");
      (Engine.Eager, Engine.All, "eager all");
      (Engine.Lazy, Engine.Seeds [ em.Lang.Elab.init ], "lazy init");
      (Engine.Parallel, Engine.Seeds [ em.Lang.Elab.init ], "parallel j1 init");
      ( Engine.Parallel,
        Engine.Seeds (Engine.ball env ~center:em.Lang.Elab.init ~radius:1),
        "parallel j1 ball" );
      ( Engine.Parallel,
        Engine.Pred (fun s -> not (em.Lang.Elab.invariant s)),
        "parallel j1 pred" );
    ]

(* More than 256 actions: the token ring at N=2, K=130 under corrupt:k=1
   (two ring actions and 130 corruptions per variable). Action labels no
   longer fit in a byte, so the frontier kernel's edge buffer and the
   eager graph switch to word labels; every edge's label must still be
   the eager graph's. *)
let test_region_wide_labels () =
  let em =
    Lang.Driver.compile_file
      ~params:[ ("N", 2); ("K", 130) ]
      (Test_lang.model_path "token_ring.nm")
  in
  let faults = Sim.Fault.actions (Sim.Fault.corrupt em.Lang.Elab.env ~k:1) in
  let cp =
    Compile.program (Guarded.Program.add_actions em.Lang.Elab.program faults)
  in
  Alcotest.(check int) "actions" 262 (Array.length cp.Compile.actions);
  let region backend jobs =
    (Engine.region
       (Engine.create ~backend ~jobs em.Lang.Elab.env)
       cp ~from:Engine.All ~target:em.Lang.Elab.invariant)
      .Engine.graph
  in
  let labels g =
    List.init (Dgraph.Digraph.edge_count g) (Dgraph.Digraph.edge_label g)
  in
  let eager = region Engine.Eager 1 in
  Alcotest.(check bool) "labels past 255" true
    (List.exists (fun l -> l > 255) (labels eager));
  List.iter
    (fun (backend, jobs) ->
      let g = region backend jobs in
      Alcotest.(check int) "edge count" (Dgraph.Digraph.edge_count eager)
        (Dgraph.Digraph.edge_count g);
      Alcotest.(check (list int)) "edge labels" (labels eager) (labels g))
    [ (Engine.Lazy, 1); (Engine.Parallel, 1); (Engine.Parallel, 2) ]

let suite =
  [
    Alcotest.test_case "space roundtrip (exhaustive)" `Quick
      test_space_roundtrip_exhaustive;
    Alcotest.test_case "space roundtrip (unbounded, sampled)" `Quick
      test_space_roundtrip_unbounded;
    Alcotest.test_case "Too_large boundary" `Quick test_space_too_large_boundary;
    Alcotest.test_case "encodable_max guard" `Quick test_space_encodable_max_guard;
    Alcotest.test_case "eager cap vs lazy budget" `Quick
      test_eager_engine_respects_cap;
    Alcotest.test_case "fault balls" `Quick test_ball_counts;
    Alcotest.test_case "fault ball edge cases" `Quick test_ball_edge_cases;
    Alcotest.test_case "equivalence: ball-rooted region" `Quick
      test_equiv_ball_rooted_region;
    Alcotest.test_case "equivalence: diffusing" `Quick test_equiv_diffusing;
    Alcotest.test_case "equivalence: token ring" `Quick test_equiv_token_ring;
    Alcotest.test_case "equivalence: dijkstra (ok and livelock)" `Quick
      test_equiv_dijkstra;
    Alcotest.test_case "equivalence: xyz variants" `Quick test_equiv_xyz;
    Alcotest.test_case "equivalence: naive ring failure" `Quick
      test_equiv_naive_ring_deadlock;
    Alcotest.test_case "equivalence: fair verdict" `Quick test_equiv_fair_verdicts;
    Alcotest.test_case "equivalence: seeded roots" `Slow test_equiv_seed_roots;
    Alcotest.test_case "equivalence: closure" `Quick test_equiv_closure;
    Alcotest.test_case "lazy past the eager cap" `Slow test_lazy_beyond_eager_cap;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_step_key; prop_step_undo; prop_step_domain_violation ]
  @ [
      Alcotest.test_case "region allocation per edge" `Quick
        test_region_alloc_per_edge;
      Alcotest.test_case "kernel: example models agree across backends" `Quick
        test_kernel_agrees_models;
      Alcotest.test_case "kernel: generated programs agree across backends"
        `Quick test_kernel_agrees_generated;
      Alcotest.test_case "kernel: target once per state at one worker" `Quick
        test_kernel_target_once_per_state;
      Alcotest.test_case "region labels past one byte agree with eager" `Quick
        test_region_wide_labels;
    ]
