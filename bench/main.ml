(* Experiment harness: regenerates every table of EXPERIMENTS.md (E1-E19)
   and runs the bechamel microbenchmarks (micro / B1-B6).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe e1 e4     # selected experiments
     dune exec bench/main.exe micro     # microbenchmarks only
     dune exec bench/main.exe e14 --metrics-out bench.json
                                        # + machine-readable metrics

   The paper (an extended abstract) has no numbered tables or figures; the
   experiments below operationalize its claims — the mapping is recorded in
   DESIGN.md section 4 and EXPERIMENTS.md. All randomness is seeded: the
   output is reproducible bit for bit. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Tree = Topology.Tree
module Space = Explore.Space
module Tsys = Explore.Tsys
module Engine = Explore.Engine
module Convergence = Explore.Convergence
module Diffusing = Protocols.Diffusing
module Token_ring = Protocols.Token_ring
module Dijkstra_ring = Protocols.Dijkstra_ring
module Xyz_demo = Protocols.Xyz_demo
module Atomic = Protocols.Atomic_action
module Lowatomic = Protocols.Diffusing_lowatomic
module Naive_ring = Protocols.Naive_ring

let seed = 20260705

(* Shared timing and memory helpers on the Obs substrate (each experiment
   used to carry its own copy). Wall-clock, not CPU time: the parallel
   rows are meaningless under [Sys.time]. *)
let time f =
  let t0 = Obs.Ctx.now () in
  let r = f () in
  (r, (Obs.Ctx.now () -. t0) *. 1000.0)

let peak_rss_mb () =
  match Obs.Progress.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

let summary_cells (r : Sim.Storm.result) =
  match r.summary with
  | None -> [ "-"; "-"; "-"; Table.i r.failures ]
  | Some s ->
      [
        Table.f1 s.Sim.Stats.mean;
        Table.f1 s.Sim.Stats.p90;
        Table.f1 s.Sim.Stats.max;
        Table.i r.failures;
      ]

let scramble_trials ?(trials = 200) ~env ~program ~invariant ~legit () =
  let fault = Sim.Fault.scramble env in
  (* one fault burst per trial, then fault-free recovery: a storm at
     rate 0 *)
  Sim.Storm.trials ~rng:(Prng.create seed) ~trials
    ~daemon:(fun r -> Sim.Daemon.random r)
    ~prepare:(fun r ->
      let s = legit () in
      fault.Sim.Fault.inject r s;
      s)
    ~stop:invariant ~fault ~rate:0. program

(* E1 — convergence of the diffusing computation across tree shapes and
   sizes (Theorem 1 / Section 5.1). *)
let e1 () =
  let shapes =
    [
      ("chain", fun n -> Tree.chain n);
      ("star", fun n -> Tree.star n);
      ("balanced-2", fun n -> Tree.balanced ~arity:2 n);
      ("random", fun n -> Tree.random (Prng.create (seed + n)) n);
    ]
  in
  let rows =
    List.concat_map
      (fun (shape, build) ->
        List.map
          (fun n ->
            let d = Diffusing.make (build n) in
            let r =
              scramble_trials ~env:(Diffusing.env d)
                ~program:(Compile.program (Diffusing.combined d))
                ~invariant:(fun s -> Diffusing.invariant d s)
                ~legit:(fun () -> Diffusing.all_green d)
                ()
            in
            shape :: Table.i n
            :: Table.i (Tree.height (Diffusing.tree d))
            :: summary_cells r)
          [ 7; 15; 31; 63 ])
      shapes
  in
  Table.print
    ~title:
      "E1: diffusing computation - recovery steps from full scramble \
       (random daemon, 200 trials)"
    ~header:[ "shape"; "N"; "height"; "mean"; "p90"; "max"; "fail" ]
    rows

(* E2 — Dijkstra's ring: stabilization steps vs ring size (Section 7.1). *)
let e2 () =
  let rows =
    List.map
      (fun n ->
        let dr = Dijkstra_ring.make ~nodes:n ~k:(n + 1) in
        let r =
          scramble_trials ~env:(Dijkstra_ring.env dr)
            ~program:(Compile.program (Dijkstra_ring.program dr))
            ~invariant:(fun s -> Dijkstra_ring.invariant dr s)
            ~legit:(fun () -> Dijkstra_ring.all_zero dr)
            ()
        in
        Table.i n :: Table.i (n + 1) :: summary_cells r)
      [ 4; 8; 16; 32; 64 ]
  in
  Table.print
    ~title:
      "E2: Dijkstra K-state token ring - stabilization steps from full \
       scramble (random daemon, 200 trials)"
    ~header:[ "nodes"; "K"; "mean"; "p90"; "max"; "fail" ]
    rows

(* E3 — recovery time vs fault severity: corrupt k processes of a 31-node
   diffusing computation (Section 3's fault-span view). *)
let e3 () =
  let d = Diffusing.make (Tree.balanced ~arity:2 31) in
  let cp = Compile.program (Diffusing.combined d) in
  let corrupt_nodes rr k s =
    let nodes = Prng.sample_without_replacement rr k 31 in
    Array.iter
      (fun j ->
        State.set s (Diffusing.color d j) (Prng.int rr 2);
        State.set s (Diffusing.session d j) (Prng.int rr 2))
      nodes
  in
  let rows =
    List.map
      (fun k ->
        let r =
          (* the corruption is the prepared state; at rate 0 the
             storm's fault never fires *)
          Sim.Storm.trials ~rng:(Prng.create (seed + k)) ~trials:200
            ~daemon:(fun rr -> Sim.Daemon.random rr)
            ~prepare:(fun rr ->
              let s = Diffusing.all_green d in
              corrupt_nodes rr k s;
              s)
            ~stop:(fun s -> Diffusing.invariant d s)
            ~fault:(Sim.Fault.scramble (Diffusing.env d)) ~rate:0. cp
        in
        let violated_sample =
          let rr = Prng.create (seed + k) in
          let s = Diffusing.all_green d in
          corrupt_nodes rr k s;
          Diffusing.violated d s
        in
        Table.i k :: Table.i violated_sample :: summary_cells r)
      [ 1; 2; 4; 8; 16; 31 ]
  in
  Table.print
    ~title:
      "E3: diffusing computation (N=31) - recovery steps vs number of \
       corrupted processes (random daemon, 200 trials)"
    ~header:[ "corrupted"; "violated@0"; "mean"; "p90"; "max"; "fail" ]
    rows

(* E4 — daemon sensitivity (Section 2's computation model). *)
let e4 () =
  let daemons violated =
    [
      ("random", fun r -> Sim.Daemon.random r);
      ("round-robin", fun _ -> Sim.Daemon.round_robin ());
      ("first-enabled", fun _ -> Sim.Daemon.first_enabled);
      ("distributed", fun r -> Sim.Daemon.distributed r);
      ("adversarial", fun _ -> Sim.Daemon.greedy ~name:"adv" violated);
    ]
  in
  let rows_for name env program invariant legit violated =
    let fault = Sim.Fault.scramble env in
    List.map
      (fun (dname, daemon) ->
        let r =
          Sim.Storm.trials ~rng:(Prng.create seed) ~trials:200 ~daemon
            ~prepare:(fun rr ->
              let s = legit () in
              fault.Sim.Fault.inject rr s;
              s)
            ~stop:invariant ~fault ~rate:0. program
        in
        name :: dname :: summary_cells r)
      (daemons violated)
  in
  let d = Diffusing.make (Tree.balanced ~arity:2 15) in
  let dr = Dijkstra_ring.make ~nodes:8 ~k:9 in
  Table.print
    ~title:
      "E4: daemon sensitivity - recovery steps from full scramble (200 \
       trials)"
    ~header:[ "protocol"; "daemon"; "mean"; "p90"; "max"; "fail" ]
    (rows_for "diffusing-15" (Diffusing.env d)
       (Compile.program (Diffusing.combined d))
       (fun s -> Diffusing.invariant d s)
       (fun () -> Diffusing.all_green d)
       (fun s -> Diffusing.violated d s)
    @ rows_for "dijkstra-8" (Dijkstra_ring.env dr)
        (Compile.program (Dijkstra_ring.program dr))
        (fun s -> Dijkstra_ring.invariant dr s)
        (fun () -> Dijkstra_ring.all_zero dr)
        (fun s -> Dijkstra_ring.privilege_count dr s))

(* E5 — the theorem validators: every certificate obligation discharged
   exhaustively, plus the consequent checked directly. *)
let e5 () =
  let direct program invariant engine =
    match
      Convergence.check_unfair engine (Compile.program program)
        ~from:Engine.All ~target:invariant
    with
    | Ok { region_states; worst_case_steps; _ } ->
        Printf.sprintf "converges (region %d, worst %s)" region_states
          (match worst_case_steps with
          | Some w -> string_of_int w
          | None -> "-")
    | Error (Convergence.Deadlock _) -> "DEADLOCK"
    | Error (Convergence.Livelock _) -> "LIVELOCK"
  in
  let rows = ref [] in
  let add name theorem cert ms states verdict =
    rows :=
      [
        name;
        theorem;
        (if Nonmask.Certify.ok cert then "VALID" else "INVALID");
        Table.i (List.length cert.Nonmask.Certify.checks);
        Table.i states;
        Table.f1 ms;
        verdict;
      ]
      :: !rows
  in
  List.iter
    (fun (name, tree) ->
      let d = Diffusing.make tree in
      let engine = Engine.create (Diffusing.env d) in
      let cert, ms = time (fun () -> Diffusing.certificate ~engine d) in
      add name "Thm 1" cert ms (Space.size (Engine.space engine))
        (direct (Diffusing.combined d)
           (fun s -> Diffusing.invariant d s)
           engine))
    [
      ("diffusing chain-4", Tree.chain 4);
      ("diffusing star-5", Tree.star 5);
      ("diffusing bal-2-6", Tree.balanced ~arity:2 6);
    ];
  (let tr = Token_ring.make ~nodes:4 ~k:5 in
   let engine = Engine.create (Token_ring.env tr) in
   let states = Space.size (Engine.space engine) in
   let cert, ms = time (fun () -> Token_ring.certificate ~engine tr) in
   add "token ring 4,K=5" "Thm 3*" cert ms states
     (direct (Token_ring.combined tr)
        (fun s -> Token_ring.invariant tr s)
        engine);
   let cert2, ms2 =
     time (fun () -> Token_ring.certificate_strict ~engine tr)
   in
   add "token ring 4,K=5" "Thm 3 literal" cert2 ms2 states
     "(antecedent fails as expected)");
  List.iter
    (fun (name, variant) ->
      let d = Xyz_demo.make variant in
      let engine = Engine.create (Xyz_demo.env d) in
      let cert, ms = time (fun () -> Xyz_demo.certificate ~engine d) in
      let theorem =
        match variant with Xyz_demo.Good_tree -> "Thm 1" | _ -> "Thm 2"
      in
      add name theorem cert ms (Space.size (Engine.space engine))
        (direct (Xyz_demo.program d) (fun s -> Xyz_demo.invariant d s) engine))
    [
      ("xyz good-tree", Xyz_demo.Good_tree);
      ("xyz good-ordered", Xyz_demo.Good_ordered);
      ("xyz bad", Xyz_demo.Bad);
    ];
  (let a = Atomic.make (Tree.balanced ~arity:2 5) in
   let engine = Engine.create (Atomic.env a) in
   let cert, ms = time (fun () -> Atomic.certificate ~engine a) in
   add "atomic bal-2-5" "Thm 1" cert ms (Space.size (Engine.space engine))
     (direct (Atomic.program a) (fun s -> Atomic.invariant a s) engine));
  Table.print
    ~title:
      "E5: machine-checked certificates (Thm 3* = Theorem 3 modulo \
       invariant) and direct model-checked consequents"
    ~header:
      [ "instance"; "theorem"; "cert"; "checks"; "states"; "ms"; "direct check" ]
    (List.rev !rows)

(* E6 — the x/y/z example of Sections 4 and 6: good designs converge, the
   bad one livelocks. *)
let e6 () =
  let rows =
    List.map
      (fun (name, variant) ->
        let d = Xyz_demo.make variant in
        let engine = Engine.create (Xyz_demo.env d) in
        let cert = Xyz_demo.certificate ~engine d in
        let direct =
          match
            Convergence.check_unfair engine
              (Compile.program (Xyz_demo.program d))
              ~from:Engine.All
              ~target:(fun s -> Xyz_demo.invariant d s)
          with
          | Ok { worst_case_steps = Some w; _ } ->
              Printf.sprintf "converges (worst %d)" w
          | Ok _ -> "converges"
          | Error (Convergence.Livelock c) ->
              Printf.sprintf "LIVELOCK (cycle of %d)" (List.length c)
          | Error (Convergence.Deadlock _) -> "DEADLOCK"
        in
        let shape =
          Dgraph.Classify.shape_to_string
            (Nonmask.Cgraph.shape (Xyz_demo.cgraph d))
        in
        [
          name;
          shape;
          (if Nonmask.Certify.ok cert then "VALID" else "INVALID");
          direct;
        ])
      [
        ("good-tree (Sec 4)", Xyz_demo.Good_tree);
        ("good-ordered (Sec 6)", Xyz_demo.Good_ordered);
        ("bad (Sec 6)", Xyz_demo.Bad);
      ]
  in
  Table.print
    ~title:"E6: the x<>y / x<=z example - design choices decide convergence"
    ~header:[ "variant"; "graph"; "certificate"; "exhaustive check" ]
    rows

(* E7 — combined vs separate convergence actions (the design note at the
   end of Section 5.1). *)
let e7 () =
  let model_rows =
    List.map
      (fun (name, tree) ->
        let d = Diffusing.make tree in
        let engine = Engine.create (Diffusing.env d) in
        let worst program =
          match
            Convergence.check_unfair engine (Compile.program program)
              ~from:Engine.All
              ~target:(fun s -> Diffusing.invariant d s)
          with
          | Ok { worst_case_steps = Some w; _ } -> string_of_int w
          | Ok _ -> "-"
          | Error _ -> "FAIL"
        in
        [
          name;
          Table.i (Guarded.Program.action_count (Diffusing.combined d));
          Table.i (Guarded.Program.action_count (Diffusing.separate d));
          worst (Diffusing.combined d);
          worst (Diffusing.separate d);
        ])
      [
        ("chain-4", Tree.chain 4);
        ("star-5", Tree.star 5);
        ("bal-2-6", Tree.balanced ~arity:2 6);
      ]
  in
  Table.print
    ~title:
      "E7a: combined vs separate convergence actions - worst-case steps \
       (exhaustive)"
    ~header:[ "tree"; "acts(comb)"; "acts(sep)"; "worst(comb)"; "worst(sep)" ]
    model_rows;
  let sim_rows =
    List.concat_map
      (fun n ->
        let d = Diffusing.make (Tree.balanced ~arity:2 n) in
        let run program =
          scramble_trials ~env:(Diffusing.env d)
            ~program:(Compile.program program)
            ~invariant:(fun s -> Diffusing.invariant d s)
            ~legit:(fun () -> Diffusing.all_green d)
            ()
        in
        [
          "combined" :: Table.i n :: summary_cells (run (Diffusing.combined d));
          "separate" :: Table.i n :: summary_cells (run (Diffusing.separate d));
        ])
      [ 15; 31 ]
  in
  Table.print
    ~title:
      "E7b: combined vs separate - recovery steps from scramble (random \
       daemon, 200 trials)"
    ~header:[ "variant"; "N"; "mean"; "p90"; "max"; "fail" ]
    sim_rows

(* E8 — the concluding-remarks claim: the derived programs converge even
   without fairness. Checked exactly: no cycles and no deadlocks outside S
   under arbitrary (unfair) scheduling. *)
let e8 () =
  let verdict program invariant env =
    let engine = Engine.create env in
    match
      Convergence.check_unfair engine (Compile.program program)
        ~from:Engine.All ~target:invariant
    with
    | Ok { region_states; worst_case_steps = Some w; _ } ->
        [ "yes"; Table.i region_states; Table.i w ]
    | Ok { region_states; worst_case_steps = None; _ } ->
        [ "yes"; Table.i region_states; "-" ]
    | Error (Convergence.Deadlock _) -> [ "NO (deadlock)"; "-"; "-" ]
    | Error (Convergence.Livelock _) -> [ "NO (livelock)"; "-"; "-" ]
  in
  let rows =
    [
      (let d = Diffusing.make (Tree.chain 4) in
       "diffusing chain-4"
       :: verdict (Diffusing.combined d)
            (fun s -> Diffusing.invariant d s)
            (Diffusing.env d));
      (let d = Diffusing.make (Tree.balanced ~arity:2 6) in
       "diffusing bal-2-6"
       :: verdict (Diffusing.combined d)
            (fun s -> Diffusing.invariant d s)
            (Diffusing.env d));
      (let d = Lowatomic.make (Tree.balanced ~arity:2 5) in
       "low-atomicity bal-2-5"
       :: verdict (Lowatomic.program d)
            (fun s -> Lowatomic.invariant d s)
            (Lowatomic.env d));
      (let tr = Token_ring.make ~nodes:4 ~k:5 in
       "token ring 4,K=5"
       :: verdict (Token_ring.combined tr)
            (fun s -> Token_ring.invariant tr s)
            (Token_ring.env tr));
      (let dr = Dijkstra_ring.make ~nodes:5 ~k:6 in
       "dijkstra 5,K=6"
       :: verdict (Dijkstra_ring.program dr)
            (fun s -> Dijkstra_ring.invariant dr s)
            (Dijkstra_ring.env dr));
      (let a = Atomic.make (Tree.balanced ~arity:2 5) in
       "atomic bal-2-5"
       :: verdict (Atomic.program a)
            (fun s -> Atomic.invariant a s)
            (Atomic.env a));
      (let d = Xyz_demo.make Xyz_demo.Good_tree in
       "xyz good-tree"
       :: verdict (Xyz_demo.program d)
            (fun s -> Xyz_demo.invariant d s)
            (Xyz_demo.env d));
      (let d = Xyz_demo.make Xyz_demo.Good_ordered in
       "xyz good-ordered"
       :: verdict (Xyz_demo.program d)
            (fun s -> Xyz_demo.invariant d s)
            (Xyz_demo.env d));
    ]
  in
  Table.print
    ~title:
      "E8: convergence WITHOUT fairness (exact check: no unfair daemon can \
       prevent convergence)"
    ~header:[ "program"; "converges unfairly"; "region"; "worst steps" ]
    rows

(* E9 — the rank-derived variant function (concluding remarks): verified to
   decrease, and shown along a recovery run. *)
let e9 () =
  let rows =
    List.map
      (fun (name, spec, cgraph, env) ->
        match Nonmask.Variant.of_cgraph cgraph with
        | None -> [ name; "-"; "cyclic: no ranks"; "-" ]
        | Some v ->
            let engine = Engine.create env in
            let result =
              match Nonmask.Variant.check ~engine ~spec ~cgraph v with
              | Ok () -> "decreases (verified)"
              | Error f -> "FAILS at " ^ f.Nonmask.Variant.action
            in
            [
              name;
              Table.i (Nonmask.Variant.rank_count v);
              result;
              Table.i (Space.size (Engine.space engine));
            ])
      [
        (let d = Diffusing.make (Tree.chain 4) in
         ( "diffusing chain-4",
           Diffusing.spec d,
           Diffusing.cgraph d,
           Diffusing.env d ));
        (let d = Diffusing.make (Tree.star 5) in
         ( "diffusing star-5",
           Diffusing.spec d,
           Diffusing.cgraph d,
           Diffusing.env d ));
        (let d = Diffusing.make (Tree.balanced ~arity:2 6) in
         ( "diffusing bal-2-6",
           Diffusing.spec d,
           Diffusing.cgraph d,
           Diffusing.env d ));
        (let d = Xyz_demo.make Xyz_demo.Good_tree in
         ("xyz good-tree", Xyz_demo.spec d, Xyz_demo.cgraph d, Xyz_demo.env d));
        (let a = Atomic.make (Tree.balanced ~arity:2 5) in
         ("atomic bal-2-5", Atomic.spec a, Atomic.cgraph a, Atomic.env a));
      ]
  in
  Table.print
    ~title:
      "E9: variant functions synthesized from constraint-graph ranks \
       (convergence actions strictly decrease; closure actions never \
       increase)"
    ~header:[ "instance"; "ranks"; "exhaustive verification"; "states" ]
    rows;
  (* a sample trajectory: violations per rank along one recovery *)
  let d = Diffusing.make (Tree.chain 5) in
  match Nonmask.Variant.of_cgraph (Diffusing.cgraph d) with
  | None -> ()
  | Some v ->
      let rng = Prng.create seed in
      let s = Diffusing.all_green d in
      (Sim.Fault.scramble (Diffusing.env d)).Sim.Fault.inject rng s;
      let cp = Compile.program (Diffusing.separate d) in
      Printf.printf
        "E9 sample trajectory (diffusing chain-5, separate actions): \
         violations per rank, lexicographic\n";
      let state = ref s in
      let steps = ref 0 in
      let daemon = Sim.Daemon.random rng in
      let pp_value st =
        String.concat "; "
          (Array.to_list (Array.map string_of_int (Nonmask.Variant.value v st)))
      in
      while (not (Diffusing.invariant d !state)) && !steps < 30 do
        Printf.printf "  step %2d: [%s]\n" !steps (pp_value !state);
        let o =
          Sim.Runner.run ~max_steps:1 ~daemon ~init:!state
            ~stop:(fun _ -> false) cp
        in
        state := o.Sim.Runner.final;
        incr steps
      done;
      Printf.printf "  step %2d: [%s]  <- S holds\n" !steps (pp_value !state)

(* E10 — the baseline: a naive token ring without convergence actions does
   not self-stabilize. *)
let e10 () =
  let nr = Naive_ring.make ~nodes:5 in
  let dr = Dijkstra_ring.make ~nodes:5 ~k:6 in
  let check name program invariant env =
    let engine = Engine.create env in
    match
      Convergence.check_unfair engine (Compile.program program)
        ~from:Engine.All ~target:invariant
    with
    | Ok _ -> [ name; "stabilizes"; "-" ]
    | Error (Convergence.Deadlock s) ->
        [ name; "NO: deadlock"; State.to_string env s ]
    | Error (Convergence.Livelock c) ->
        [
          name;
          "NO: livelock";
          Printf.sprintf "cycle of %d states" (List.length c);
        ]
  in
  Table.print
    ~title:"E10a: the method matters - exhaustive verdicts on 5-node rings"
    ~header:[ "program"; "self-stabilizing?"; "witness" ]
    [
      check "naive ring" (Naive_ring.program nr)
        (fun s -> Naive_ring.invariant nr s)
        (Naive_ring.env nr);
      check "dijkstra ring" (Dijkstra_ring.program dr)
        (fun s -> Dijkstra_ring.invariant dr s)
        (Dijkstra_ring.env dr);
    ];
  (* Simulation: from a two-token state, random scheduling sometimes merges
     tokens by luck; an adversarial daemon never does; token loss is
     unrecoverable either way. *)
  let cp = Compile.program (Naive_ring.program nr) in
  let env = Naive_ring.env nr in
  let two_tokens () =
    let s = State.make env in
    State.set s (Naive_ring.token nr 0) 1;
    State.set s (Naive_ring.token nr 2) 1;
    s
  in
  let run daemon =
    let converged = ref 0 in
    let rng = Prng.create seed in
    for _ = 1 to 200 do
      let o =
        Sim.Runner.run ~max_steps:500 ~daemon:(daemon rng)
          ~init:(two_tokens ())
          ~stop:(fun s -> Naive_ring.invariant nr s)
          cp
      in
      if Sim.Runner.converged o then incr converged
    done;
    !converged
  in
  let random_merges = run (fun r -> Sim.Daemon.random r) in
  let adv_merges =
    run (fun _ ->
        Sim.Daemon.greedy ~name:"keep" (fun s -> Naive_ring.token_count nr s))
  in
  Table.print
    ~title:
      "E10b: naive ring from a two-token state - lucky merges vs adversary \
       (200 trials, 500-step budget)"
    ~header:[ "daemon"; "recovered"; "of" ]
    [
      [ "random"; Table.i random_merges; "200" ];
      [ "adversarial"; Table.i adv_merges; "200" ];
      [ "any (zero tokens)"; "0"; "200" ];
    ]

(* E11 — stabilizing BFS spanning trees on general networks: a protocol the
   paper's theorems do not cover (convergence actions read all neighbors),
   validated by the exhaustive checker and measured by simulation. *)
let e11 () =
  let exact_rows =
    List.map
      (fun (name, g) ->
        let st = Protocols.Spanning_tree.make ~root:0 g in
        let engine = Engine.create (Protocols.Spanning_tree.env st) in
        let verdict =
          match
            Convergence.check_unfair engine
              (Compile.program (Protocols.Spanning_tree.program st))
              ~from:Engine.All
              ~target:(fun s -> Protocols.Spanning_tree.invariant st s)
          with
          | Ok { worst_case_steps = Some w; _ } ->
              Printf.sprintf "converges (worst %d)" w
          | Ok _ -> "converges"
          | Error (Convergence.Deadlock _) -> "DEADLOCK"
          | Error (Convergence.Livelock _) -> "LIVELOCK"
        in
        [
          name;
          Table.i (Topology.Ugraph.size g);
          Table.i (Topology.Ugraph.edge_count g);
          Table.i (Space.size (Engine.space engine));
          verdict;
        ])
      [
        ("path-4", Topology.Ugraph.path 4);
        ("cycle-5", Topology.Ugraph.cycle 5);
        ("star-5", Topology.Ugraph.star 5);
        ("grid-2x3", Topology.Ugraph.grid ~width:2 ~height:3);
        ("complete-4", Topology.Ugraph.complete 4);
      ]
  in
  Table.print
    ~title:
      "E11a: BFS spanning tree - exhaustive convergence on small networks \
       (beyond the theorems' graph classes)"
    ~header:[ "network"; "nodes"; "edges"; "states"; "verdict" ]
    exact_rows;
  let sim_rows =
    List.map
      (fun (name, g) ->
        let st = Protocols.Spanning_tree.make ~root:0 g in
        let r =
          scramble_trials
            ~env:(Protocols.Spanning_tree.env st)
            ~program:(Compile.program (Protocols.Spanning_tree.program st))
            ~invariant:(fun s -> Protocols.Spanning_tree.invariant st s)
            ~legit:(fun () -> Protocols.Spanning_tree.bfs_state st)
            ()
        in
        (name :: Table.i (Topology.Ugraph.size g) :: summary_cells r))
      [
        ("grid-4x4", Topology.Ugraph.grid ~width:4 ~height:4);
        ("grid-6x6", Topology.Ugraph.grid ~width:6 ~height:6);
        ("cycle-32", Topology.Ugraph.cycle 32);
        ( "sparse-32",
          Topology.Ugraph.random_connected (Prng.create seed) 32
            ~extra_edges:8 );
        ( "dense-32",
          Topology.Ugraph.random_connected (Prng.create seed) 32
            ~extra_edges:64 );
      ]
  in
  Table.print
    ~title:
      "E11b: BFS spanning tree - recovery from scramble (random daemon, 200 \
       trials)"
    ~header:[ "network"; "nodes"; "mean"; "p90"; "max"; "fail" ]
    sim_rows

(* E12 — cross-validation: the analytic expected convergence time (absorbing
   Markov chain, value iteration) against the simulator's estimate. *)
let e12 () =
  let rows =
    List.map
      (fun (name, env, program, invariant) ->
        let space = Space.create env in
        let cp = Compile.program program in
        let tsys = Tsys.build cp space in
        let analytic =
          match
            Explore.Expected.mean_from tsys ~from:(fun _ -> true)
              ~target:invariant
          with
          | Ok m -> m
          | Error _ -> nan
        in
        (* simulate from uniformly random states *)
        let rng = Prng.create seed in
        let trials = 20_000 in
        let total = ref 0 in
        for _ = 1 to trials do
          let s = Space.decode space (Prng.int rng (Space.size space)) in
          let o =
            Sim.Runner.run ~daemon:(Sim.Daemon.random rng) ~init:s
              ~stop:invariant cp
          in
          total := !total + o.Sim.Runner.steps
        done;
        let simulated = float_of_int !total /. float_of_int trials in
        [
          name;
          Table.i (Space.size space);
          Printf.sprintf "%.4f" analytic;
          Printf.sprintf "%.4f" simulated;
          Printf.sprintf "%.2f%%"
            (100.0 *. abs_float (simulated -. analytic) /. analytic);
        ])
      [
        (let d = Diffusing.make (Tree.chain 4) in
         ( "diffusing chain-4",
           Diffusing.env d,
           Diffusing.combined d,
           fun s -> Diffusing.invariant d s ));
        (let dr = Dijkstra_ring.make ~nodes:4 ~k:5 in
         ( "dijkstra 4,K=5",
           Dijkstra_ring.env dr,
           Dijkstra_ring.program dr,
           fun s -> Dijkstra_ring.invariant dr s ));
        (let st = Protocols.Spanning_tree.make ~root:0 (Topology.Ugraph.cycle 4) in
         ( "spanning cycle-4",
           Protocols.Spanning_tree.env st,
           Protocols.Spanning_tree.program st,
           fun s -> Protocols.Spanning_tree.invariant st s ));
      ]
  in
  Table.print
    ~title:
      "E12: analytic expected recovery steps (absorbing Markov chain) vs \
       simulation (uniform random start, 20k trials)"
    ~header:[ "program"; "states"; "analytic"; "simulated"; "error" ]
    rows

(* E13 — the methodology beyond the three theorems: convergence stairs
   (Section 7), refinement checking (concluding remarks), and the
   distributed-reset application (the paper's citation [12]). *)
let e13 () =
  (* stairs: the token ring's own two-stage argument *)
  let tr = Token_ring.make ~nodes:4 ~k:5 in
  let engine = Engine.create (Token_ring.env tr) in
  let x = Token_ring.x tr in
  let first_conjunct =
    Guarded.Compile.pred
      (Guarded.Expr.conj
         (List.init 3 (fun j ->
              let vj = x j and vj1 = x (j + 1) in
              Guarded.Expr.(var vj >= var vj1))))
  in
  let stair =
    Nonmask.Stair.validate ~engine
      ~program:(Token_ring.combined tr)
      ~name:"token-ring (4 nodes, K=5)"
      [
        ("T", fun _ -> true);
        ("first-conjunct", first_conjunct);
        ("S", fun s -> Token_ring.invariant tr s);
      ]
  in
  Printf.printf "\n== E13a: convergence stair (Section 7) ==\n";
  Format.printf "%a@." Nonmask.Stair.pp stair;
  (* refinement: low-atomicity diffusing vs the original *)
  let tree = Tree.chain 3 in
  let d = Diffusing.make tree in
  let l = Lowatomic.make tree in
  let projection =
    List.concat_map
      (fun j ->
        [
          (Diffusing.color d j, Lowatomic.color l j);
          (Diffusing.session d j, Lowatomic.session l j);
        ])
      (Tree.nodes tree)
  in
  let run_refine ?within label =
    let r =
      Nonmask.Refine.check ?within
        ~abstract_env:(Diffusing.env d)
        ~engine:(Engine.create (Lowatomic.env l))
        ~abstract_program:(Diffusing.combined d)
        ~concrete_program:(Lowatomic.program l)
        ~projection
        ~abstract_invariant:(fun s -> Diffusing.invariant d s)
        ~concrete_invariant:(fun s -> Lowatomic.invariant l s)
        ()
    in
    Printf.printf "%s:\n  " label;
    Format.printf "%a@." Nonmask.Refine.pp r
  in
  Printf.printf "\n== E13b: refinement of the diffusing computation \
                 (concluding remarks) ==\n";
  run_refine "from arbitrary states (expected to fail)";
  run_refine
    ~within:(fun s -> Lowatomic.consistent l s)
    "within the closed scan-pointer consistency relation";
  let consistency_closed =
    match
      Explore.Closure.program_closed
        (Engine.create (Lowatomic.env l))
        (Compile.program (Lowatomic.program l))
        ~pred:(fun s -> Lowatomic.consistent l s)
    with
    | Ok () -> "closed (verified exhaustively)"
    | Error _ -> "NOT CLOSED"
  in
  Printf.printf "consistency relation: %s\n" consistency_closed;
  (* distributed reset: convergence + the reset guarantee *)
  Printf.printf "\n== E13c: distributed reset (the paper's citation [12]) ==\n";
  let r = Protocols.Reset.make (Tree.balanced ~arity:2 3) in
  let rspace = Space.create (Protocols.Reset.env r) in
  let cp = Compile.program (Protocols.Reset.program r) in
  (match
     Convergence.check_unfair
       (Engine.of_space rspace)
       cp ~from:Engine.All
       ~target:(fun s -> Protocols.Reset.invariant r s)
   with
  | Ok { region_states; worst_case_steps; _ } ->
      Printf.printf
        "reset layer converges (region %d, worst %s) - the application \
         variables do not disturb the wave\n"
        region_states
        (match worst_case_steps with Some w -> string_of_int w | None -> "-")
  | Error _ -> Printf.printf "reset layer FAILS\n");
  let violations = ref 0 and red_turns = ref 0 in
  let post = State.make (Protocols.Reset.env r) in
  Space.iter rspace (fun _ s ->
      Array.iter
        (fun (ca : Compile.action) ->
          if ca.Compile.enabled s then begin
            ca.Compile.apply_into s post;
            List.iter
              (fun j ->
                incr red_turns;
                if State.get post (Protocols.Reset.app r j) <> 0 then
                  incr violations)
              (Protocols.Reset.turns_red r ~pre:s ~post)
          end)
        cp.Compile.actions);
  Printf.printf
    "reset guarantee: %d/%d red-turning transitions zero the application \
     variable (checked over the whole space)\n"
    (!red_turns - !violations) !red_turns

(* E14 — eager vs lazy exploration engines. On spaces that fit under the
   eager cap both engines answer the same query, with different cost
   envelopes (the eager backend materializes the full CSR transition
   system; the lazy backend only ever touches the states it discovers).
   Past the cap only the lazy engine, seeded with a bounded-fault Hamming
   ball around the legitimate state, returns a verdict at all. *)
let e14 () =
  let backend_name = function
    | Engine.Eager -> "eager"
    | Engine.Lazy -> "lazy"
    | Engine.Parallel -> "parallel"
  in
  let row (name, states, env, cp, invariant, legit) ~backend ~radius =
    let from_desc, from =
      match radius with
      | None -> ("all", fun _ -> Engine.All)
      | Some r ->
          ( Printf.sprintf "ball-%d" r,
            fun () -> Engine.Seeds (Engine.ball env ~center:(legit ()) ~radius:r)
          )
    in
    (* flat-storage bytes per explored state; the eager backend's cost
       lives in the CSR relation, not a visited table, so its cell is "-" *)
    let bytes_cell engine explored =
      let b = Engine.storage_bytes engine in
      if b = 0 || explored = 0 then "-"
      else Printf.sprintf "%.1f" (float_of_int b /. float_of_int explored)
    in
    let outcome =
      match
        let engine = Engine.create ~backend env in
        let verdict, ms =
          time (fun () ->
              Convergence.check_unfair engine cp ~from:(from ())
                ~target:invariant)
        in
        (engine, verdict, ms)
      with
      | exception Space.Too_large _ -> [ "-"; "-"; "over eager cap"; "-"; "-" ]
      | exception Engine.Region_overflow n ->
          [ Table.i n; "-"; "over lazy budget"; "-"; "-" ]
      | engine, Ok { Convergence.region_states; explored; worst_case_steps }, ms
        ->
          [
            Table.i explored;
            Table.i region_states;
            (match worst_case_steps with
            | Some w -> Printf.sprintf "converges (worst %d)" w
            | None -> "converges");
            Table.f1 ms;
            bytes_cell engine explored;
          ]
      | _, Error (Convergence.Deadlock _), ms ->
          [ "-"; "-"; "DEADLOCK"; Table.f1 ms; "-" ]
      | _, Error (Convergence.Livelock _), ms ->
          [ "-"; "-"; "LIVELOCK"; Table.f1 ms; "-" ]
    in
    name :: states :: from_desc :: backend_name backend :: outcome
  in
  let diffusing n =
    let d = Diffusing.make (Tree.balanced ~arity:2 n) in
    ( Printf.sprintf "diffusing bal-2-%d" n,
      Printf.sprintf "4^%d" n,
      Diffusing.env d,
      Compile.program (Diffusing.combined d),
      (fun s -> Diffusing.invariant d s),
      fun () -> Diffusing.all_green d )
  in
  let dijkstra n =
    let dr = Dijkstra_ring.make ~nodes:n ~k:(n + 1) in
    ( Printf.sprintf "dijkstra %d,K=%d" n (n + 1),
      Printf.sprintf "%d^%d" (n + 1) n,
      Dijkstra_ring.env dr,
      Compile.program (Dijkstra_ring.program dr),
      (fun s -> Dijkstra_ring.invariant dr s),
      fun () -> Dijkstra_ring.all_zero dr )
  in
  let token_ring n k =
    let tr = Token_ring.make ~nodes:n ~k in
    ( Printf.sprintf "token-ring %d,K=%d" n k,
      Printf.sprintf "%d^%d" k n,
      Token_ring.env tr,
      Compile.program (Token_ring.combined tr),
      (fun s -> Token_ring.invariant tr s),
      fun () -> Token_ring.all_zero tr )
  in
  (* Fits under the cap: both engines, full sweep and ball roots. *)
  let moderate = [ diffusing 8; dijkstra 6; token_ring 6 7 ] in
  let huge = [ diffusing 15; dijkstra 12; token_ring 12 13 ] in
  let rows =
    List.concat_map
      (fun inst ->
        [
          row inst ~backend:Engine.Eager ~radius:None;
          row inst ~backend:Engine.Lazy ~radius:None;
          row inst ~backend:Engine.Eager ~radius:(Some 2);
          row inst ~backend:Engine.Lazy ~radius:(Some 2);
        ])
      moderate
    @ List.concat_map
        (fun inst ->
          [
            row inst ~backend:Engine.Eager ~radius:(Some 2);
            row inst ~backend:Engine.Lazy ~radius:(Some 2);
          ])
        huge
  in
  Table.print
    ~title:
      "E14: exploration engines - eager CSR vs lazy frontier (explored = \
       states visited, the peak-memory driver; ball-R = states within R \
       faults of legitimacy; B/state = flat visited-set + frontier bytes \
       per explored state)"
    ~header:
      [ "instance"; "space"; "roots"; "engine"; "explored"; "region";
        "verdict"; "ms"; "B/state" ]
    rows

(* micro — bechamel microbenchmarks of the substrate (B1-B6). *)
let micro () =
  let open Bechamel in
  let d = Diffusing.make (Tree.balanced ~arity:2 15) in
  (* the full invariant: a 14-way conjunction, where compilation pays *)
  let invariant_expr = Nonmask.Spec.invariant (Diffusing.spec d) in
  let compiled_guard = Guarded.Compile.pred invariant_expr in
  let guard_expr = invariant_expr in
  let legit = Diffusing.all_green d in
  let cp = Compile.program (Diffusing.combined d) in
  let small = Diffusing.make (Tree.chain 3) in
  let small_space = Space.create (Diffusing.env small) in
  let small_cp = Compile.program (Diffusing.combined small) in
  let dr = Dijkstra_ring.make ~nodes:16 ~k:17 in
  let dr_cp = Compile.program (Dijkstra_ring.program dr) in
  let scc_graph =
    let rng = Prng.create 1 in
    let n = 10_000 in
    Dgraph.Digraph.of_edges n
      (List.init 30_000 (fun _ ->
           (* the destination is drawn first *)
           let dst = Prng.int rng n in
           (Prng.int rng n, dst, ())))
  in
  let rng = Prng.create seed in
  let fault = Sim.Fault.scramble (Dijkstra_ring.env dr) in
  let tests =
    [
      Test.make ~name:"B1 invariant eval (interpreted)"
        (Staged.stage (fun () -> Guarded.Expr.eval legit guard_expr));
      Test.make ~name:"B1 invariant eval (compiled)"
        (Staged.stage (fun () -> compiled_guard legit));
      Test.make ~name:"B2 action apply (compiled)"
        (Staged.stage
           (let post = State.copy legit in
            let act = cp.Compile.actions.(0) in
            fun () -> act.Compile.apply_into legit post));
      Test.make ~name:"B3 state-space enumeration (4^3)"
        (Staged.stage (fun () -> Space.iter small_space (fun _ _ -> ())));
      Test.make ~name:"B4 transition system build (4^3)"
        (Staged.stage (fun () -> Tsys.build small_cp small_space));
      Test.make ~name:"B5 convergence check (4^3)"
        (Staged.stage
           (let engine = Engine.of_space small_space in
            fun () ->
              Convergence.check_unfair engine small_cp ~from:Engine.All
                ~target:(fun s -> Diffusing.invariant small s)));
      Test.make ~name:"B5 scc (10k nodes, 30k edges)"
        (Staged.stage (fun () -> Dgraph.Scc.compute scc_graph));
      Test.make ~name:"B6 full recovery run (dijkstra-16)"
        (Staged.stage (fun () ->
             let s = Dijkstra_ring.all_zero dr in
             fault.Sim.Fault.inject rng s;
             Sim.Runner.run
               ~daemon:(Sim.Daemon.random rng)
               ~init:s
               ~stop:(fun st -> Dijkstra_ring.invariant dr st)
               dr_cp));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"micro" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ t ] ->
          let cell =
            if t > 1_000_000.0 then Printf.sprintf "%.3f ms" (t /. 1e6)
            else if t > 1_000.0 then Printf.sprintf "%.3f us" (t /. 1e3)
            else Printf.sprintf "%.1f ns" t
          in
          rows := [ name; cell ] :: !rows
      | _ -> rows := [ name; "?" ] :: !rows)
    results;
  Table.print ~title:"microbenchmarks (bechamel, monotonic clock)"
    ~header:[ "benchmark"; "time/op" ]
    (List.sort compare !rows)

(* E15 — hand-written vs computed fault spans, and recovery under fault
   storms. The paper supplies the fault span T by hand; for stabilizing
   programs that is T = true, i.e. the whole state space. Faultspan instead
   computes T exactly as the closure of S under program ∪ fault actions.
   Under bounded corruption the computed span is a small fraction of the
   hand-written one, and the tolerance certificate (span + closure +
   convergence + recurrence) is discharged over just that region. *)
let e15 () =
  let row name env program invariant =
    let engine = Engine.create env in
    let space_n = Space.size (Engine.space engine) in
    let fault = Sim.Fault.corrupt env ~k:1 in
    let faults = Sim.Fault.actions fault in
    let fp =
      Compile.program (Guarded.Program.make ~name:"faults" env faults)
    in
    let cp = Compile.program program in
    let (span, cert), ms =
      time (fun () ->
          let span =
            Explore.Faultspan.compute engine ~program:cp ~budget:1 ~faults:fp
              ~from:(Engine.Pred invariant) ()
          in
          let cert =
            Nonmask.Certify.tolerance ~engine ~program ~faults ~invariant
              ~budget:1 ~name ()
          in
          (span, cert))
    in
    let t = Explore.Faultspan.count span in
    [
      name;
      Table.i space_n;
      Table.i (Explore.Faultspan.root_count span);
      Table.i t;
      Printf.sprintf "%.1f%%" (100.0 *. float_of_int t /. float_of_int space_n);
      (if Nonmask.Certify.ok cert then "VALID" else "INVALID");
      Table.f1 ms;
    ]
  in
  let tr = Token_ring.make ~nodes:4 ~k:5 in
  let st = Protocols.Spanning_tree.make ~root:0 (Topology.Ugraph.cycle 5) in
  let d = Diffusing.make (Tree.balanced ~arity:2 7) in
  let r = Protocols.Reset.make (Tree.balanced ~arity:2 4) in
  Table.print
    ~title:
      "E15: hand-written span (stabilizing default T = true, i.e. the whole \
       space) vs computed span under corrupt:k=1 (one fault step), with the \
       tolerance certificate discharged over the computed T"
    ~header:
      [ "instance"; "hand |T|"; "|S|"; "computed |T|"; "of space";
        "tolerance"; "ms" ]
    [
      row "token-ring 4,K=5" (Token_ring.env tr) (Token_ring.combined tr)
        (fun s -> Token_ring.invariant tr s);
      row "spanning-tree cycle-5"
        (Protocols.Spanning_tree.env st)
        (Protocols.Spanning_tree.program st)
        (fun s -> Protocols.Spanning_tree.invariant st s);
      row "diffusing bal-2-7" (Diffusing.env d) (Diffusing.combined d)
        (fun s -> Diffusing.invariant d s);
      row "reset bal-2-4" (Protocols.Reset.env r) (Protocols.Reset.program r)
        (fun s -> Protocols.Reset.invariant r s);
    ];
  (* Storms: stabilization of the token ring while faults keep arriving at
     increasing rates. At rate 0 this is an ordinary convergence experiment;
     the fault-sustained livelock in the certificate's recurrence check shows
     up statistically as a heavier tail and outright failures. *)
  let tr5 = Token_ring.make ~nodes:5 ~k:6 in
  let env = Token_ring.env tr5 in
  let cp = Compile.program (Token_ring.combined tr5) in
  let fault = Sim.Fault.scramble env in
  let storm_row rate =
    let res =
      Sim.Storm.trials ~max_steps:5_000 ~rng:(Prng.create seed) ~trials:300
        ~daemon:(fun rng -> Sim.Daemon.random rng)
        ~prepare:(fun rng ->
          let s = Token_ring.all_zero tr5 in
          fault.Sim.Fault.inject rng s;
          s)
        ~stop:(fun s -> Token_ring.invariant tr5 s)
        ~fault ~rate cp
    in
    let faults_per_trial =
      float_of_int (Array.fold_left ( + ) 0 res.Sim.Storm.fault_counts)
      /. float_of_int (Array.length res.Sim.Storm.fault_counts)
    in
    Printf.sprintf "%.2f" rate
    :: (match res.Sim.Storm.summary with
       | None -> [ "-"; "-"; "-"; "-" ]
       | Some s ->
           [
             Table.f1 s.Sim.Stats.median;
             Table.f1 s.Sim.Stats.p90;
             Table.f1 s.Sim.Stats.p99;
             Table.f1 s.Sim.Stats.max;
           ])
    @ [ Table.i res.Sim.Storm.failures; Table.f1 faults_per_trial ]
  in
  Table.print
    ~title:
      "E15 (cont.): token-ring 5,K=6 stabilization under fault storms \
       (scramble at per-step rate; 300 trials, budget 5000 steps)"
    ~header:
      [ "rate"; "median"; "p90"; "p99"; "max"; "failures"; "faults/trial" ]
    (List.map storm_row [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ])

(* E16 — multicore scaling of the parallel subsystem. The parallel engine
   backend runs the lazy search level-synchronized over a Par.Pool of
   worker domains; parallel storm trials spread independent trials over the
   same pool. The contract measured here is twofold: results must be
   bit-identical to the sequential backends at every job count (the
   "verdict" column), and wall-clock should drop with jobs on multicore
   hardware (the "speedup" column — on a single-core container it stays
   ~1x, the scheduling overhead being the price of the level barriers).
   Peak RSS is VmHWM from /proc/self/status, which is monotone over the
   process: later rows inherit earlier rows' peak. *)
let e16 () =
  let job_counts = [ 1; 2; 4; 8 ] in
  let verdict_sig = function
    | Ok { Convergence.region_states; explored; worst_case_steps } ->
        Printf.sprintf "ok/%d/%d/%s" region_states explored
          (match worst_case_steps with
          | Some w -> string_of_int w
          | None -> "-")
    | Error (Convergence.Deadlock _) -> "deadlock"
    | Error (Convergence.Livelock _) -> "livelock"
  in
  let bytes_cell engine = function
    | Ok { Convergence.explored; _ } when explored > 0 ->
        let b = Engine.storage_bytes engine in
        if b = 0 then "-"
        else Printf.sprintf "%.1f" (float_of_int b /. float_of_int explored)
    | _ -> "-"
  in
  let instance_rows (name, env, cp, invariant) =
    let check backend jobs =
      let engine = Engine.create ~backend ~jobs env in
      let verdict =
        Convergence.check_unfair engine cp ~from:Engine.All ~target:invariant
      in
      (engine, verdict)
    in
    let (seq_eng, seq), seq_ms = time (fun () -> check Engine.Lazy 1) in
    let seq_sig = verdict_sig seq in
    (* bind the baseline row now: [::] evaluates right to left, and the
       rss cell must be sampled before the parallel runs move the peak *)
    let base_row =
      [ name; "lazy"; "-"; Table.f1 seq_ms; "1.00"; "baseline";
        Table.f1 (peak_rss_mb ()); bytes_cell seq_eng seq ]
    in
    (base_row
    :: List.map
         (fun jobs ->
           let (par_eng, par), ms = time (fun () -> check Engine.Parallel jobs) in
           [
             name;
             "parallel";
             string_of_int jobs;
             Table.f1 ms;
             Printf.sprintf "%.2f" (seq_ms /. ms);
             (if verdict_sig par = seq_sig then "= lazy" else "DIFFERS");
             Table.f1 (peak_rss_mb ());
             bytes_cell par_eng par;
           ])
         job_counts)
  in
  let d = Diffusing.make (Tree.balanced ~arity:2 8) in
  let tr = Token_ring.make ~nodes:6 ~k:7 in
  let dr = Dijkstra_ring.make ~nodes:6 ~k:7 in
  let st = Protocols.Spanning_tree.make ~root:0 (Topology.Ugraph.cycle 5) in
  let instances =
    [
      ( "diffusing bal-2-8",
        Diffusing.env d,
        Compile.program (Diffusing.combined d),
        fun s -> Diffusing.invariant d s );
      ( "token-ring 6,K=7",
        Token_ring.env tr,
        Compile.program (Token_ring.combined tr),
        fun s -> Token_ring.invariant tr s );
      ( "dijkstra 6,K=7",
        Dijkstra_ring.env dr,
        Compile.program (Dijkstra_ring.program dr),
        fun s -> Dijkstra_ring.invariant dr s );
      ( "spanning-tree cycle-5",
        Protocols.Spanning_tree.env st,
        Compile.program (Protocols.Spanning_tree.program st),
        fun s -> Protocols.Spanning_tree.invariant st s );
    ]
  in
  Table.print
    ~title:
      "E16: parallel engine scaling - full convergence check per job count \
       (verdict asserts bit-identical stats vs the sequential lazy backend; \
       peak-rss MB is the process high-water mark, monotone across rows; \
       B/state = flat visited + frontier bytes per explored state)"
    ~header:
      [ "instance"; "engine"; "jobs"; "ms"; "speedup"; "verdict"; "rss MB";
        "B/state" ]
    (List.concat_map instance_rows instances);
  (* Storm trials over the same pool: independent trials, pre-split PRNG
     streams, so the statistics must agree exactly at every job count. *)
  let tr5 = Token_ring.make ~nodes:5 ~k:6 in
  let env = Token_ring.env tr5 in
  let cp = Compile.program (Token_ring.combined tr5) in
  let fault = Sim.Fault.scramble env in
  let storm jobs =
    Sim.Storm.trials ~max_steps:5_000 ~jobs ~rng:(Prng.create seed)
      ~trials:400
      ~daemon:(fun rng -> Sim.Daemon.random rng)
      ~prepare:(fun rng ->
        let s = Token_ring.all_zero tr5 in
        fault.Sim.Fault.inject rng s;
        s)
      ~stop:(fun s -> Token_ring.invariant tr5 s)
      ~fault ~rate:0.05 cp
  in
  let summary_sig (r : Sim.Storm.result) =
    match r.Sim.Storm.summary with
    | None -> Printf.sprintf "none/%d" r.Sim.Storm.failures
    | Some s ->
        Printf.sprintf "%d/%.3f/%.3f/%.3f/%d" (Array.length r.Sim.Storm.steps)
          s.Sim.Stats.median s.Sim.Stats.p90 s.Sim.Stats.max
          r.Sim.Storm.failures
  in
  let base, base_ms = time (fun () -> storm 1) in
  let base_sig = summary_sig base in
  Table.print
    ~title:
      "E16 (cont.): parallel storm trials - token-ring 5,K=6, scramble \
       rate=0.05, 400 trials (quantiles asserts bit-identical statistics \
       vs jobs=1)"
    ~header:[ "jobs"; "ms"; "speedup"; "quantiles" ]
    ([ "1"; Table.f1 base_ms; "1.00"; "baseline" ]
    :: List.map
         (fun jobs ->
           let r, ms = time (fun () -> storm jobs) in
           [
             string_of_int jobs;
             Table.f1 ms;
             Printf.sprintf "%.2f" (base_ms /. ms);
             (if summary_sig r = base_sig then "= jobs-1" else "DIFFER");
           ])
         [ 2; 4; 8 ])

(* E17 — observability overhead and trace stability. The instrumentation
   contract (lib/obs): a disabled context costs one branch per checkpoint,
   and checkpoints sit at wave/region granularity, never per state — so
   enabling metrics, or even streaming JSONL, must not move the E14 lazy
   numbers. Measured as full lazy sweeps under (a) the disabled context,
   (b) an enabled context with the no-op sink, (c) an enabled context
   streaming JSONL to /dev/null; best of 5 runs to damp scheduler noise.
   The second table asserts the trace contract: the parallel engine's
   per-event-name counts are identical at jobs=1 and jobs=4 (timestamps
   and interleaving may differ; the event profile may not). *)
let e17 () =
  let d = Diffusing.make (Tree.balanced ~arity:2 8) in
  let dr = Dijkstra_ring.make ~nodes:6 ~k:7 in
  let tr = Token_ring.make ~nodes:6 ~k:7 in
  let instances =
    [
      ( "diffusing bal-2-8",
        Diffusing.env d,
        Compile.program (Diffusing.combined d),
        fun s -> Diffusing.invariant d s );
      ( "dijkstra 6,K=7",
        Dijkstra_ring.env dr,
        Compile.program (Dijkstra_ring.program dr),
        fun s -> Dijkstra_ring.invariant dr s );
      ( "token-ring 6,K=7",
        Token_ring.env tr,
        Compile.program (Token_ring.combined tr),
        fun s -> Token_ring.invariant tr s );
    ]
  in
  let sweep obs (_, env, cp, invariant) =
    let engine = Engine.create ~backend:Engine.Lazy ~obs env in
    ignore (Convergence.check_unfair engine cp ~from:Engine.All ~target:invariant)
  in
  let best_ms mk_obs inst =
    let best = ref infinity in
    for _ = 1 to 5 do
      let obs, cleanup = mk_obs () in
      let (), ms = time (fun () -> sweep obs inst) in
      cleanup ();
      if ms < !best then best := ms
    done;
    !best
  in
  let nothing () = () in
  let modes =
    [
      ("disabled", fun () -> (Obs.Ctx.disabled, nothing));
      ("noop-sink", fun () -> (Obs.Ctx.create (), nothing));
      ( "jsonl-devnull",
        fun () ->
          let oc = open_out "/dev/null" in
          let obs = Obs.Ctx.create ~sink:(Obs.Sink.jsonl oc) () in
          (obs, fun () -> Obs.Ctx.close obs) );
    ]
  in
  let rows =
    List.concat_map
      (fun ((name, _, _, _) as inst) ->
        let base = best_ms (List.assoc "disabled" modes) inst in
        List.map
          (fun (mode, mk_obs) ->
            let ms = if mode = "disabled" then base else best_ms mk_obs inst in
            [
              name;
              mode;
              Table.f1 ms;
              (if mode = "disabled" then "baseline"
               else Printf.sprintf "%+.1f%%" (100.0 *. ((ms /. base) -. 1.0)));
            ])
          modes)
      instances
  in
  Table.print
    ~title:
      "E17: observability overhead - E14 lazy full sweep per instrumentation \
       mode (best of 5; the contract is that noop-sink stays within noise of \
       disabled)"
    ~header:[ "instance"; "obs mode"; "ms"; "overhead" ]
    rows;
  (* Trace stability across job counts. *)
  let event_profile jobs =
    let file = Filename.temp_file "nonmask-e17" ".jsonl" in
    let oc = open_out file in
    let obs = Obs.Ctx.create ~sink:(Obs.Sink.jsonl oc) () in
    let engine =
      Engine.create ~backend:Engine.Parallel ~jobs ~obs (Token_ring.env tr)
    in
    (* ball roots, not All: a full sweep seeds every state into level 0
       and the whole run is one wave — ball-2 forces a real multi-wave
       expansion, which is what the profile must keep stable *)
    ignore
      (Convergence.check_unfair engine
         (Compile.program (Token_ring.combined tr))
         ~from:
           (Engine.Seeds
              (Engine.ball (Token_ring.env tr)
                 ~center:(Token_ring.all_zero tr) ~radius:2))
         ~target:(fun s -> Token_ring.invariant tr s));
    Obs.Ctx.close obs;
    let counts = Hashtbl.create 8 in
    let ic = open_in file in
    (try
       while true do
         let line = input_line ic in
         match Obs.Json.of_string line with
         | Ok j -> (
             match Obs.Json.member "ev" j with
             | Some (Obs.Json.Str ev) ->
                 Hashtbl.replace counts ev
                   (1 + Option.value ~default:0 (Hashtbl.find_opt counts ev))
             | _ -> Printf.eprintf "e17: trace line without ev: %s\n" line)
         | Error msg -> Printf.eprintf "e17: unparseable trace line: %s\n" msg
       done
     with End_of_file -> ());
    close_in ic;
    Sys.remove file;
    counts
  in
  let p1 = event_profile 1 in
  let p4 = event_profile 4 in
  let names =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) p1
         (Hashtbl.fold (fun k _ acc -> k :: acc) p4 []))
  in
  let count tbl ev = Option.value ~default:0 (Hashtbl.find_opt tbl ev) in
  Table.print
    ~title:
      "E17 (cont.): parallel-engine trace profile per event name - token-ring \
       6,K=7 from ball-2 roots (counts must be identical at every job count)"
    ~header:[ "event"; "jobs=1"; "jobs=4"; "verdict" ]
    (List.map
       (fun ev ->
         let c1 = count p1 ev and c4 = count p4 ev in
         [
           ev;
           Table.i c1;
           Table.i c4;
           (if c1 = c4 then "=" else "DIFFERS");
         ])
       names)

(* E18: differential fuzzing throughput and shrink quality. Throughput is
   clean-run trials/sec at three generator sizes; shrink quality uses the
   oracle's simulated-defect hook (an off-by-one in the parallel backend's
   counts) so every trial fails, measuring how small the minimizer gets
   the counterexamples and what it spends to do so. *)
let e18 () =
  let sizes = [ 3; 4; 5 ] in
  let count = 300 in
  let throughput_rows =
    List.map
      (fun max_vars ->
        let gen_config = Gen.Generate.with_max_vars max_vars in
        let report = ref None in
        let (), ms =
          time (fun () ->
              report := Some (Gen.Fuzz.run ~gen_config ~seed ~count ()))
        in
        let r = Option.get !report in
        [
          Printf.sprintf "max-vars %d" max_vars;
          Table.i r.Gen.Fuzz.trials;
          Table.i (List.length r.Gen.Fuzz.counterexamples);
          Table.f1 ms;
          Table.f1 (float_of_int count /. (ms /. 1000.0));
        ])
      sizes
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E18: fuzz throughput - %d clean trials per generator size, all \
          eight oracles per trial (seed %d)"
         count seed)
    ~header:[ "size"; "trials"; "cex"; "ms"; "trials/s" ]
    throughput_rows;
  let oracle_config =
    { Gen.Oracle.default with defect = Some Explore.Engine.Parallel }
  in
  let shrink_rows =
    List.map
      (fun max_vars ->
        let gen_config = Gen.Generate.with_max_vars max_vars in
        let r =
          Gen.Fuzz.run ~gen_config ~oracle_config ~seed ~count:20 ()
        in
        let cexs = r.Gen.Fuzz.counterexamples in
        let n = List.length cexs in
        let favg f =
          if n = 0 then nan
          else
            List.fold_left (fun acc c -> acc +. f c) 0.0 cexs /. float_of_int n
        in
        let worst =
          List.fold_left
            (fun acc c -> max acc (Gen.Spec.action_count c.Gen.Fuzz.spec))
            0 cexs
        in
        [
          Printf.sprintf "max-vars %d" max_vars;
          Table.i n;
          Table.f1
            (favg (fun c -> float_of_int c.Gen.Fuzz.original_actions));
          Table.f1
            (favg (fun c -> float_of_int (Gen.Spec.action_count c.Gen.Fuzz.spec)));
          Table.i worst;
          Table.f1
            (favg (fun c -> float_of_int c.Gen.Fuzz.shrink.Gen.Shrink.evals));
        ])
      sizes
  in
  Table.print
    ~title:
      "E18 (cont.): shrink quality under a simulated parallel-backend defect \
       - 20 failing trials per size (every counterexample should minimize to \
       a handful of actions)"
    ~header:
      [ "size"; "cex"; "orig actions"; "min actions"; "worst min"; "evals" ]
    shrink_rows

(* E19: flat-storage scale tier over two synthetic 10^vars-state models.
   The "odometer" is a base-10 counter with carry - exactly one action
   enabled per state, so reachability from zero is a single 10^vars-state
   chain and the frontier stays one state wide: the visited table IS the
   cost of the search, which makes it the headline bytes/state instance.
   The "grid" drops the carry (every digit increments independently), so
   every state has [vars] successors and the search has real frontier
   width and real parallel structure: it drives the storage-comparison
   and determinism legs. [e19] runs the 10^8-state tier; [e19-smoke] is
   the same shape at 10^6 for CI. *)
let grid_model vars =
  let env = Guarded.Env.create () in
  let xs = Guarded.Env.fresh_family env "c" vars (Guarded.Domain.range 0 9) in
  let actions =
    Array.to_list
      (Array.mapi
         (fun i x ->
           Guarded.Action.make
             ~name:(Printf.sprintf "inc.%d" i)
             ~guard:Guarded.Expr.tt
             [ (x, Guarded.Expr.((var x + int 1) mod int 10)) ])
         xs)
  in
  let p =
    Guarded.Program.make ~name:(Printf.sprintf "grid-%d" vars) env actions
  in
  (env, Compile.program p)

let odometer_model vars =
  let env = Guarded.Env.create () in
  let xs = Guarded.Env.fresh_family env "c" vars (Guarded.Domain.range 0 9) in
  (* action i fires when digits 0..i-1 are all 9 and digit i is not:
     digit i steps, the lower digits wrap to 0 - a textbook carry, so
     exactly one action is enabled everywhere except all-nines. *)
  let actions =
    List.init vars (fun i ->
        let open Guarded.Expr in
        let lower_nines =
          conj (List.init i (fun j -> var xs.(j) = int 9))
        in
        Guarded.Action.make
          ~name:(Printf.sprintf "carry.%d" i)
          ~guard:(lower_nines && var xs.(i) <> int 9)
          ((xs.(i), var xs.(i) + int 1)
          :: List.init i (fun j -> (xs.(j), int 0))))
  in
  let p =
    Guarded.Program.make ~name:(Printf.sprintf "odometer-%d" vars) env actions
  in
  (env, Compile.program p)

(* Resident-set growth of the process, for pricing the boxed baseline.
   Live-words undercounts what a boxed Hashtbl really costs a process:
   every resize strands the previous bucket array in the major heap, and
   the freed space is not returned to the OS. VmRSS (current, not the
   VmHWM high-water mark) captures exactly that, and the flat tables are
   churn-free so their RSS growth matches [Engine.storage_bytes]. *)
let vm_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rv = ref 0 in
      (try
         while true do
           let line = input_line ic in
           try Scanf.sscanf line "VmRSS: %d kB" (fun kb -> rv := kb * 1024)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
         done
       with End_of_file -> ());
      close_in ic;
      !rv

(* Bytes per entry of the boxed [(int, int) Hashtbl] + [Queue] pair the
   flat layer replaced, holding [n] visited bindings, measured as RSS
   growth after compacting the heap. Measured, not assumed, so the
   "vs boxed" ratio in E19 tracks the runtime we actually ship. *)
let boxed_baseline_bytes_per_entry n =
  Gc.compact ();
  let before = vm_rss_bytes () in
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let q : int Queue.t = Queue.create () in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl i i;
    Queue.add i q;
    if Queue.length q > 1 then ignore (Queue.pop q)
  done;
  Gc.full_major ();
  let after = vm_rss_bytes () in
  ignore (Sys.opaque_identity (Hashtbl.length tbl, Queue.length q));
  float_of_int (after - before) /. float_of_int n

let e19_run ~vars ~det_vars ~baseline_keys () =
  let pow10 n = int_of_float (10.0 ** float_of_int n) in
  let sweep ?(backend = Engine.Lazy) ?(jobs = 1) ~storage model nvars target =
    let env, cp = model nvars in
    let zero = Guarded.State.init env (fun _ -> 0) in
    let engine =
      Engine.create ~backend ~max_states:(4 * pow10 nvars) ~jobs ~storage env
    in
    let region, ms =
      time (fun () ->
          Engine.region engine cp ~from:(Engine.Seeds [ zero ]) ~target)
    in
    (engine, region, ms)
  in
  let bytes_per_state engine (region : Engine.region) =
    float_of_int (Engine.storage_bytes engine)
    /. float_of_int region.Engine.explored
  in
  let all _ = true in
  (* Headline: full odometer sweep vs the boxed baseline. *)
  let base_bpe = boxed_baseline_bytes_per_entry baseline_keys in
  let eng, reg, ms = sweep ~storage:Engine.Direct odometer_model vars all in
  let bps = bytes_per_state eng reg in
  Table.print
    ~title:
      (Printf.sprintf
         "E19: flat-storage scale tier - odometer-%d, %s reachable states \
          swept from the zero seed (B/state = visited + frontier high-water \
          bytes per explored state; baseline = RSS growth of the boxed \
          Hashtbl+Queue pair the flat layer replaced)"
         vars (Table.i (pow10 vars)))
    ~header:[ "storage"; "states"; "ms"; "states/s"; "B/state"; "vs boxed" ]
    [
      [
        Printf.sprintf "boxed Hashtbl (%s int keys)" (Table.i baseline_keys);
        Table.i baseline_keys; "-"; "-";
        Printf.sprintf "%.1f" base_bpe; "1.0x";
      ];
      [
        "flat direct (lazy)";
        Table.i reg.Engine.explored;
        Table.f1 ms;
        Printf.sprintf "%.3g"
          (float_of_int reg.Engine.explored /. (ms /. 1000.0));
        Printf.sprintf "%.1f" bps;
        Printf.sprintf "%.1fx" (base_bpe /. bps);
      ];
    ];
  (* Storage comparison at the smaller tier: every representation must
     visit exactly the same set of states. *)
  let legs = [ ("direct", Engine.Direct); ("probed", Engine.Probed) ] in
  let comparison =
    List.map
      (fun (label, storage) ->
        let e, r, ms = sweep ~storage grid_model det_vars all in
        (label, e, r, ms))
      legs
  in
  let _, _, ref_reg, _ = List.hd comparison in
  Table.print
    ~title:
      (Printf.sprintf
         "E19 (cont.): storage representations - grid-%d sweep, %s states \
          (every leg must explore the same set)"
         det_vars (Table.i (pow10 det_vars)))
    ~header:[ "storage"; "explored"; "ms"; "B/state"; "verdict" ]
    (List.map
       (fun (label, e, (r : Engine.region), ms) ->
         [
           label;
           Table.i r.Engine.explored;
           Table.f1 ms;
           Printf.sprintf "%.1f" (bytes_per_state e r);
           (if r.Engine.explored = ref_reg.Engine.explored then "= direct"
            else "DIFFERS");
         ])
       comparison);
  (* Determinism at scale: a real region query (the digit-sum slice) on
     the full tier - the lazy and parallel backends must produce
     bit-identical regions at every job count (the E16 contract, now over
     flat storage). *)
  let slice_sum = 9 * vars / 2 in
  let slice s =
    let sum = ref 0 in
    for i = 0 to vars - 1 do
      sum := !sum + Guarded.State.get_index s i
    done;
    !sum <> slice_sum
  in
  let _, lazy_reg, lazy_ms = sweep ~storage:Engine.Auto grid_model vars slice in
  let par_rows =
    List.map
      (fun jobs ->
        let _, preg, pms =
          sweep ~backend:Engine.Parallel ~jobs ~storage:Engine.Auto grid_model
            vars slice
        in
        let same =
          preg.Engine.explored = lazy_reg.Engine.explored
          && preg.Engine.node_key = lazy_reg.Engine.node_key
        in
        [
          "parallel"; string_of_int jobs;
          Table.i preg.Engine.explored;
          Table.i (Array.length preg.Engine.node_key);
          Table.f1 pms;
          (if same then "= lazy (bit-identical)" else "DIFFERS");
        ])
      [ 1; 4 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E19 (cont.): determinism at scale - region of digit-sum = %d over \
          grid-%d (node keys compared element-wise vs the lazy run)"
         slice_sum vars)
    ~header:[ "engine"; "jobs"; "explored"; "region"; "ms"; "verdict" ]
    ([
       "lazy"; "-";
       Table.i lazy_reg.Engine.explored;
       Table.i (Array.length lazy_reg.Engine.node_key);
       Table.f1 lazy_ms; "baseline";
     ]
    :: par_rows)

let e19 () = e19_run ~vars:8 ~det_vars:7 ~baseline_keys:10_000_000 ()
let e19_smoke () = e19_run ~vars:6 ~det_vars:5 ~baseline_keys:1_000_000 ()

(* E20: graceful degradation - checkpoint/resume fidelity and overhead.
   E19's digit-sum region query over the grid model, but each leg is cut
   by a state-budget guard at ~1/3 and again at ~2/3 of the sweep; at
   each cut the wavefront snapshot is written to disk, loaded back, and
   resumed in a fresh engine. The final region must be bit-identical to
   the uninterrupted lazy baseline on the lazy backend and the parallel
   backend at jobs 1 and 4, and the snapshot write+load time must stay
   under 15% of the leg's wall clock (the graceful-degradation
   contract). [e20] runs the 10^7-state tier; [e20-smoke] is the same
   shape at 10^6 for CI. *)
let e20_run ~vars () =
  let pow10 n = int_of_float (10.0 ** float_of_int n) in
  let total = pow10 vars in
  let slice_sum = 9 * vars / 2 in
  let slice s =
    let sum = ref 0 in
    for i = 0 to vars - 1 do
      sum := !sum + Guarded.State.get_index s i
    done;
    !sum <> slice_sum
  in
  let env, cp = grid_model vars in
  let zero () = Guarded.State.init env (fun _ -> 0) in
  let salt = Printf.sprintf "e20-grid-%d" vars in
  let make ?guard ~backend ~jobs () =
    Engine.create ?guard ~backend ~jobs ~max_states:(4 * total)
      ~snapshots:true ~salt env
  in
  let base_reg, base_ms =
    let engine = make ~backend:Engine.Lazy ~jobs:1 () in
    time (fun () ->
        Engine.region engine cp ~from:(Engine.Seeds [ zero () ]) ~target:slice)
  in
  let file = Filename.temp_file "nonmask-e20" ".snap" in
  (* Run one interrupted/resumed chain: budget at total/3, snapshot to
     disk, load, resume under 2*total/3, snapshot again, resume to the
     verdict. Returns the final region, search wall time, snapshot
     write+load wall time, the number of cuts actually taken (the
     parallel backend polls at wave boundaries, so a wide wave can
     overshoot the second budget), and the last snapshot's file size. *)
  let chain ~backend ~jobs =
    let snap_ms = ref 0.0 and resume = ref None in
    let cuts = ref 0 and snap_bytes = ref 0 in
    let rec go budgets run_ms =
      let guard =
        match budgets with
        | [] -> None
        | b :: _ ->
            Some (Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:b ()) ())
      in
      let engine = make ?guard ~backend ~jobs () in
      match
        time (fun () ->
            try
              `Done
                (Engine.region ?resume:!resume engine cp
                   ~from:(Engine.Seeds [ zero () ]) ~target:slice)
            with Engine.Interrupted it -> `Cut it)
      with
      | `Done r, ms -> (r, run_ms +. ms)
      | `Cut it, ms ->
          incr cuts;
          let snap = Option.get it.Engine.snapshot in
          let (), save_ms = time (fun () -> Rt.Snapshot.save ~file snap) in
          let loaded, load_ms = time (fun () -> Rt.Snapshot.load ~file) in
          snap_bytes := (Unix.stat file).Unix.st_size;
          snap_ms := !snap_ms +. save_ms +. load_ms;
          resume := Some loaded;
          go (List.tl budgets) (run_ms +. ms)
    in
    let region, run_ms = go [ total / 3; 2 * total / 3 ] 0.0 in
    (region, run_ms, !snap_ms, !cuts, !snap_bytes)
  in
  let rows =
    List.map
      (fun (backend, jobs) ->
        let reg, run_ms, snap_ms, cuts, snap_bytes = chain ~backend ~jobs in
        let same =
          reg.Engine.explored = base_reg.Engine.explored
          && reg.Engine.node_key = base_reg.Engine.node_key
          && reg.Engine.terminal = base_reg.Engine.terminal
        in
        let pct = 100.0 *. snap_ms /. (run_ms +. snap_ms) in
        [
          (match backend with Engine.Lazy -> "lazy" | _ -> "parallel");
          string_of_int jobs;
          string_of_int cuts;
          Table.i reg.Engine.explored;
          Table.f1 (run_ms +. snap_ms);
          Printf.sprintf "%.1f" snap_ms;
          Printf.sprintf "%.1f KiB" (float_of_int snap_bytes /. 1024.0);
          Printf.sprintf "%.2f%%%s" pct (if pct >= 15.0 then " OVER" else "");
          (if same then "= lazy (bit-identical)" else "DIFFERS");
        ])
      [ (Engine.Lazy, 1); (Engine.Parallel, 1); (Engine.Parallel, 4) ]
  in
  Sys.remove file;
  Table.print
    ~title:
      (Printf.sprintf
         "E20: checkpoint/resume - region of digit-sum = %d over grid-%d \
          (%s states), each leg interrupted at ~1/3 and ~2/3 by a state \
          budget, snapshotted to disk, and resumed; node keys and \
          terminal flags compared element-wise vs the uninterrupted lazy \
          run (snap%% = snapshot write+load share of wall time, contract \
          < 15%%)"
         slice_sum vars (Table.i total))
    ~header:
      [
        "engine"; "jobs"; "cuts"; "explored"; "ms"; "snap ms"; "snap size";
        "snap%"; "verdict";
      ]
    ([
       "lazy (baseline)"; "-"; "0";
       Table.i base_reg.Engine.explored;
       Table.f1 base_ms; "-"; "-"; "-"; "baseline";
     ]
    :: rows)

let e20 () = e20_run ~vars:7 ()
let e20_smoke () = e20_run ~vars:6 ()

(* E21: model-language compile throughput. Generate [count] random
   specs (Gen.Generate, seeds 0..count-1), render each to .nm surface
   syntax once, then time each pipeline stage over the whole corpus:
   emit (spec -> text), parse (text -> AST), format (AST -> canonical
   text), and compile (text -> elaborated Guarded model, i.e. parse +
   elaborate). Reports models/s and mean us/model per stage. [e21]
   runs 2000 models; [e21-smoke] is the same shape at 300 for CI. *)
let e21_run ~count () =
  let specs =
    List.init count (fun seed -> Gen.Generate.spec (Prng.create seed))
  in
  let texts = List.map Gen.Emit.spec_to_nm specs in
  let bytes =
    List.fold_left (fun acc t -> acc + String.length t) 0 texts
  in
  let asts = List.map (fun t -> Lang.Driver.parse_string t) texts in
  let stage name f =
    let (), ms = time f in
    let per_s = float_of_int count /. (ms /. 1000.0) in
    [
      name;
      Table.i count;
      Table.f1 ms;
      Table.i (int_of_float per_s);
      Printf.sprintf "%.1f" (1000.0 *. ms /. float_of_int count);
    ]
  in
  let rows =
    [
      stage "emit" (fun () ->
          List.iter (fun s -> ignore (Gen.Emit.spec_to_nm s)) specs);
      stage "parse" (fun () ->
          List.iter (fun t -> ignore (Lang.Driver.parse_string t)) texts);
      stage "format" (fun () ->
          List.iter (fun a -> ignore (Lang.Pretty.print a)) asts);
      stage "compile" (fun () ->
          List.iter (fun t -> ignore (Lang.Driver.compile_string t)) texts);
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E21: .nm pipeline throughput over %s generated models (%s KiB \
          of surface syntax); compile = parse + elaborate to the Guarded \
          representation"
         (Table.i count)
         (Table.i (bytes / 1024)))
    ~header:[ "stage"; "models"; "ms"; "models/s"; "us/model" ]
    rows

let e21 () = e21_run ~count:2000 ()
let e21_smoke () = e21_run ~count:300 ()

(* E22: serve cache effectiveness. Start an in-process serve daemon on
   an ephemeral TCP port, submit one cold exhaustive check of a
   [vars]-variable decrement grid (4^vars states), then resubmit the
   identical job [hot] times. The cold request pays a full exploration;
   every hot request is answered from the content-addressed cache by the
   reader thread in O(1) — the acceptance bar is a >= 100x cold/hot
   latency ratio at the 10^6-state tier, with zero states explored
   during the hot phase and byte-identical result objects throughout.
   [e22] runs vars = 10 (1048576 states); [e22-smoke] vars = 8 (65536)
   for CI. *)
let e22_run ~vars ~hot () =
  let model =
    Printf.sprintf
      "model grid\n\n\
       param W = %d\n\n\
       var x[W] : 0..3\n\n\
       action dec[i in 0..W-1]: x[i] > 0 -> x[i] := x[i] - 1\n\n\
       invariant (forall i in 0..W-1: x[i] = 0)\n"
      vars
  in
  let config =
    {
      (Serve.Server.default_config ~address:(`Tcp ("127.0.0.1", 0))) with
      Serve.Server.jobs = 2;
    }
  in
  let server = Serve.Server.create config in
  let runner = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.drain ~hard:true server;
      Thread.join runner)
  @@ fun () ->
  let port = Option.get (Serve.Server.port server) in
  let client =
    match Serve.Client.connect (`Tcp ("127.0.0.1", port)) with
    | Ok c -> c
    | Error m -> failwith ("e22: connect: " ^ m)
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
  let req =
    Obs.Json.Obj
      [
        ("id", Obs.Json.Str "e22");
        ("op", Obs.Json.Str "check");
        ("model", Obs.Json.Str model);
      ]
  in
  let request () =
    match Serve.Client.request ~timeout:600.0 client req with
    | Ok r -> r
    | Error m -> failwith ("e22: request: " ^ m)
  in
  let result_of r =
    match Obs.Json.member "result" r with
    | Some v -> Obs.Json.to_string v
    | None -> failwith ("e22: reply without result: " ^ Obs.Json.to_string r)
  in
  let cached r = Obs.Json.member "cached" r = Some (Obs.Json.Bool true) in
  let explored () =
    Obs.Metrics.value
      (Obs.Metrics.counter
         (Serve.Server.metrics_registry server)
         "serve.states_explored")
  in
  let cold, cold_ms = time request in
  if cached cold then failwith "e22: cold request served from cache";
  let cold_result = result_of cold in
  let cold_explored = explored () in
  let hot_ms = Array.make hot 0.0 in
  for i = 0 to hot - 1 do
    let r, ms = time request in
    hot_ms.(i) <- ms;
    if not (cached r) then failwith "e22: hot request missed the cache";
    if result_of r <> cold_result then
      failwith "e22: hot result differs from cold result"
  done;
  let hot_explored = explored () - cold_explored in
  let total_hot = Array.fold_left ( +. ) 0.0 hot_ms in
  let mean_hot = total_hot /. float_of_int hot in
  let sorted = Array.copy hot_ms in
  Array.sort compare sorted;
  let p90_hot = sorted.(min (hot - 1) (hot * 9 / 10)) in
  let speedup = cold_ms /. mean_hot in
  let row phase requests ms per states verdict =
    [
      phase;
      Table.i requests;
      Table.f1 ms;
      Printf.sprintf "%.1f" per;
      Table.i states;
      verdict;
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E22: serve content-addressed cache at the %s-state tier — one \
          cold check, %s hot resubmissions of the identical job \
          (byte-identical results; acceptance: hot latency >= 100x below \
          cold)"
         (Table.i (int_of_float (4.0 ** float_of_int vars)))
         (Table.i hot))
    ~header:[ "phase"; "requests"; "ms"; "ms/request"; "states"; "verdict" ]
    [
      row "cold check" 1 cold_ms cold_ms cold_explored "-";
      row "hot (cache)" hot total_hot mean_hot hot_explored
        (if hot_explored = 0 then "no re-exploration" else "RE-EXPLORED");
      [
        "speedup";
        "-";
        "-";
        Printf.sprintf "%.0fx" speedup;
        "-";
        (if speedup >= 100.0 then "pass (>=100x)" else "UNDER");
      ];
      [
        "hot p90";
        "-";
        "-";
        Printf.sprintf "%.2f" p90_hot;
        "-";
        "-";
      ];
    ]

let e22 () = e22_run ~vars:10 ~hot:200 ()
let e22_smoke () = e22_run ~vars:8 ~hot:100 ()

(* E23: quantified tolerance — frontier throughput and the
   adversary-vs-storm gap. Sweep the token ring's fault budgets with the
   adversarial bound enabled, timing the span/certify/adversary work per
   point, then storm each budget with [trials] random-daemon runs and
   compare: the adversary bound must dominate the largest observed
   recovery at every budget (SOUND column; any UNSOUND is a bug — the
   attractor computation or the storm harness disagrees about the same
   span). The gap between the bound and the observation is the price of
   a guarantee over a sample. [e23] runs nodes = 5, k = 6 at budgets
   0..4 with 400 trials per budget; [e23-smoke] nodes = 4, k = 5,
   budgets 0..3, 100 trials for CI. *)
let e23_run ~nodes ~k ~budget_max ~trials () =
  let tr = Token_ring.make ~nodes ~k in
  let env = Token_ring.env tr in
  let program = Token_ring.combined tr in
  let invariant s = Token_ring.invariant tr s in
  let legit = Token_ring.all_zero tr in
  let fault = Sim.Fault.corrupt env ~k:1 in
  let engine = Engine.create ~backend:Engine.Lazy env in
  let timings = ref [] in
  let on_point (p : Tol.Sweep.point) =
    timings := (p.Tol.Sweep.budget, Obs.Ctx.now ()) :: !timings
  in
  let t0 = Obs.Ctx.now () in
  let frontier =
    Tol.Sweep.run ~engine ~program ~faults:(Sim.Fault.actions fault)
      ~invariant
      ~from:(Engine.Seeds [ legit ])
      ~budgets:(Tol.Sweep.range ~max:budget_max)
      ~adversary:true ~on_point ~name:"e23" ()
  in
  let point_ms =
    (* on_point fires in budget order; difference successive stamps *)
    let stamps = List.rev !timings in
    let rec diff prev = function
      | [] -> []
      | (b, t) :: rest -> (b, (t -. prev) *. 1000.0) :: diff t rest
    in
    diff t0 stamps
  in
  let cp = Compile.program program in
  let storm_max = ref [] in
  let rows =
    List.map
      (fun (p : Tol.Sweep.point) ->
        let b = p.Tol.Sweep.budget in
        let bound = Option.bind p.Tol.Sweep.adversary Tol.Sweep.adversary_bound in
        let result =
          Sim.Storm.trials ~max_steps:100_000 ~fault_budget:b ~jobs:1
            ~rng:(Prng.create (0xe23 + b))
            ~trials
            ~daemon:(fun r -> Sim.Daemon.random r)
            ~prepare:(fun rng ->
              let s = State.copy legit in
              if b > 0 then fault.Sim.Fault.inject rng s;
              s)
            ~stop:invariant ~fault ~rate:0.2 cp
        in
        let observed =
          Array.fold_left max 0 result.Sim.Storm.steps
        in
        storm_max := (b, bound, result) :: !storm_max;
        let sound =
          match bound with
          | Some w -> if observed <= ((b + 1) * w) + b then "sound" else "UNSOUND"
          | None -> "-"
        in
        [
          Table.i b;
          Table.i p.Tol.Sweep.span_states;
          Table.f1 (try List.assoc b point_ms with Not_found -> 0.0);
          (match bound with Some w -> Table.i w | None -> "unbounded");
          Table.i observed;
          (match bound with
          | Some w -> Table.i ((((b + 1) * w) + b) - observed)
          | None -> "-");
          sound;
          (if p.Tol.Sweep.reused then "reused" else "-");
        ])
      frontier.Tol.Sweep.points
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E23: tolerance frontier of the %d-node token ring (k = %d), \
          budgets 0..%d with the adversarial bound; %s storm trials per \
          budget — the bound must dominate every observation (gap = \
          composite bound - observed max)"
         nodes k budget_max (Table.i trials))
    ~header:
      [ "budget"; "span"; "point ms"; "bound"; "observed"; "gap"; "verdict";
        "" ]
    rows;
  (* the deepest budget's storm, rendered with the sound bound column *)
  (match !storm_max with
  | (b, bound, result) :: _ ->
      Format.printf "budget %d storm: %a@." b
        (Sim.Storm.pp_result_with_bound
           ~bound:
             (Option.map (fun w -> ((b + 1) * w) + b) bound))
        result
  | [] -> ())

let e23 () = e23_run ~nodes:5 ~k:6 ~budget_max:4 ~trials:400 ()
let e23_smoke () = e23_run ~nodes:4 ~k:5 ~budget_max:3 ~trials:100 ()

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("e18", e18);
    ("e19", e19);
    ("e19-smoke", e19_smoke);
    ("e20", e20);
    ("e20-smoke", e20_smoke);
    ("e21", e21);
    ("e21-smoke", e21_smoke);
    ("e22", e22);
    ("e22-smoke", e22_smoke);
    ("e23", e23);
    ("e23-smoke", e23_smoke);
    ("micro", micro);
  ]

(* With [--metrics-out FILE] each experiment's wall time lands in a
   [bench.<name>_us] histogram and the whole run is written as one
   machine-readable metrics JSON document (same schema as the CLI's
   --metrics-out), so CI can trend experiment cost without scraping the
   tables. *)
let () =
  let metrics_out = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--metrics-out" :: file :: rest ->
        metrics_out := Some file;
        parse acc rest
    | [ "--metrics-out" ] ->
        prerr_endline "--metrics-out needs a FILE argument";
        exit 2
    | name :: rest -> parse (String.lowercase_ascii name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    (* the no-arg run covers everything except the 100M-state e19 tier,
       the 10M-state e20 tier, and the 10^6-state e22 cold check
       (minutes of wall clock); their *-smoke twins stand in for them *)
    | [] ->
        List.filter
          (fun n -> n <> "e19" && n <> "e20" && n <> "e22")
          (List.map fst experiments)
    | names -> names
  in
  let obs =
    match !metrics_out with
    | None -> Obs.Ctx.disabled
    | Some _ -> Obs.Ctx.create ()
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> Obs.Ctx.time obs ("bench." ^ name) f
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested;
  match !metrics_out with
  | None -> ()
  | Some file ->
      Obs.Ctx.write_metrics obs ~file
        ~extra:
          [
            ("command", Obs.Json.Str "bench");
            ( "experiments",
              Obs.Json.List (List.map (fun n -> Obs.Json.Str n) requested) );
          ]
