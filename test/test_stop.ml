(* One stop path: the analyses after a region search poll the engine's
   guard too.

   The graph passes (Kahn and the longest paths, the cycle search,
   Tarjan) take a [poll] callback and run it every few thousand nodes;
   the analyses that run them pass the engine's analysis poll. The
   deterministic stop below needs no wall clock: the search's last call
   of [target] (or [invariant]) requests the guard's cancel token, after
   the search's only poll (its regions have fewer than 1024 states), so
   nothing but an analysis poll can observe it. Every check runs on
   eager, lazy and parallel at two workers. *)

module Engine = Explore.Engine
module Compile = Guarded.Compile
module Convergence = Explore.Convergence
module Token_ring = Protocols.Token_ring

let backends = [ (Engine.Eager, 1); (Engine.Lazy, 1); (Engine.Parallel, 2) ]

let tag backend jobs =
  Printf.sprintf "%s, jobs=%d"
    (match backend with
    | Engine.Eager -> "eager"
    | Engine.Lazy -> "lazy"
    | Engine.Parallel -> "parallel")
    jobs

(* [W] digits 0..3: [dec] counts a digit down (an acyclic region), and
   with [wrap] a digit at 0 also wraps to 3 (a cyclic one). *)
let digits ~w ~wrap =
  Lang.Driver.compile_string
    (Printf.sprintf
       {|model digits

param W = %d

var x[W] : 0..3

action dec[i in 0..W-1]: x[i] > 0 -> x[i] := x[i] - 1
%s
invariant (forall i in 0..W-1: x[i] = 0)
|}
       w
       (if wrap then "action wrap[i in 0..W-1]: x[i] = 0 -> x[i] := 3\n"
        else ""))

let region_of ~backend ~jobs (em : Lang.Elab.t) =
  let engine = Engine.create ~backend ~jobs em.Lang.Elab.env in
  Engine.region engine
    (Compile.program em.Lang.Elab.program)
    ~from:Engine.All ~target:em.Lang.Elab.invariant

(* --- the graph passes poll, and a raising poll propagates --- *)

let test_graph_passes_poll () =
  let acyclic = digits ~w:7 ~wrap:false and cyclic = digits ~w:7 ~wrap:true in
  List.iter
    (fun (backend, jobs) ->
      let name what = Printf.sprintf "%s (%s)" what (tag backend jobs) in
      let dag = (region_of ~backend ~jobs acyclic).Engine.graph in
      let loops = (region_of ~backend ~jobs cyclic).Engine.graph in
      Alcotest.(check int)
        (name "a graph of about 10^4 nodes")
        16383
        (Dgraph.Digraph.node_count dag);
      let polled what f =
        let calls = ref 0 in
        let r = f (fun () -> incr calls) in
        if !calls < 1 then Alcotest.failf "%s never polled" (name what);
        r
      in
      let raises what f =
        match f (fun () -> raise Exit) with
        | exception Exit -> ()
        | _ -> Alcotest.failf "%s swallowed its poll's exception" (name what)
      in
      let lengths poll = Dgraph.Topo.longest_path_lengths ~poll dag in
      Alcotest.(check bool)
        (name "longest paths unchanged by polling")
        true
        (polled "longest_path_lengths" lengths
        = Dgraph.Topo.longest_path_lengths dag);
      raises "longest_path_lengths" lengths;
      let cycle poll = Dgraph.Topo.find_cycle ~poll loops in
      Alcotest.(check (option (list int)))
        (name "cycle unchanged by polling")
        (Dgraph.Topo.find_cycle loops)
        (polled "find_cycle" cycle);
      raises "find_cycle" cycle;
      let scc poll = Dgraph.Scc.compute ~poll loops in
      Alcotest.(check (array int))
        (name "components unchanged by polling")
        (Dgraph.Scc.compute loops).Dgraph.Scc.component
        (polled "Scc.compute" scc).Dgraph.Scc.component;
      raises "Scc.compute" scc)
    backends;
  (* the eager backend's region walk over its relation *)
  let em = digits ~w:7 ~wrap:false in
  let space = Explore.Space.create em.Lang.Elab.env in
  let ts = Explore.Tsys.build (Compile.program em.Lang.Elab.program) space in
  let walk poll =
    let graph, _, _, _ =
      Explore.Tsys.region ~poll ts
        ~roots:(fun ~seen:_ add -> add (Explore.Space.size space - 1) true)
        ~member:(fun _ -> true)
    in
    graph
  in
  let calls = ref 0 in
  Alcotest.(check int) "Tsys.region: every state walked" 16384
    (Dgraph.Digraph.node_count (walk (fun () -> incr calls)));
  if !calls < 1 then Alcotest.fail "Tsys.region never polled";
  (match walk (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "Tsys.region swallowed its poll's exception");
  (* the lazy and parallel regions' copy of their edge blocks *)
  let edges = Explore.Edgebuf.create () in
  for v = 0 to 9999 do
    Explore.Edgebuf.push edges v ((v + 1) mod 10000) 0
  done;
  let calls = ref 0 in
  Alcotest.(check int) "Edgebuf.to_graph: every edge copied" 10000
    (Dgraph.Digraph.edge_count
       (Explore.Edgebuf.to_graph ~poll:(fun () -> incr calls) edges 10000));
  if !calls < 1 then Alcotest.fail "Edgebuf.to_graph never polled";
  match Explore.Edgebuf.to_graph ~poll:(fun () -> raise Exit) edges 10000 with
  | exception Exit -> ()
  | _ -> Alcotest.fail "Edgebuf.to_graph swallowed its poll's exception"

(* --- a deterministic stop in the analysis phase --- *)

(* [run engine pred] twice on fresh guarded engines: once to count the
   calls of [pred], then requesting the cancel token on the last one.
   The second run must stop with [Interrupted], carrying no snapshot
   although the engine wants snapshots. *)
let stops_after_last_call name env ~backend ~jobs ~pred run =
  let calls = Atomic.make 0 and stop_at = Atomic.make (-1) in
  let cancel = Rt.Cancel.create () in
  let reason = Rt.Cancel.Requested "analysis" in
  let pred s =
    if Atomic.fetch_and_add calls 1 + 1 = Atomic.get stop_at then
      Rt.Cancel.request cancel reason;
    pred s
  in
  let engine () =
    Engine.create ~backend ~jobs ~snapshots:true
      ~guard:(Rt.Guard.create ~cancel ())
      env
  in
  let name = Printf.sprintf "%s (%s)" name (tag backend jobs) in
  ignore (run (engine ()) pred);
  Atomic.set stop_at (Atomic.get calls);
  Atomic.set calls 0;
  match run (engine ()) pred with
  | exception Engine.Interrupted i ->
      Alcotest.(check bool) (name ^ ": the request is the reason") true
        (i.Engine.reason = reason);
      Alcotest.(check bool) (name ^ ": no snapshot") true
        (i.Engine.snapshot = None)
  | _ -> Alcotest.failf "%s: returned a verdict after the cancel" name

let test_convergence_stops () =
  (* 256 states, 12 levels deep from the all-3 root *)
  let em = digits ~w:4 ~wrap:false in
  let env = em.Lang.Elab.env in
  let cp = Compile.program em.Lang.Elab.program in
  let root = Guarded.State.init env (fun _ -> 3) in
  let from = Engine.Seeds [ root ] in
  List.iter
    (fun (backend, jobs) ->
      stops_after_last_call "check_unfair" env ~backend ~jobs
        ~pred:em.Lang.Elab.invariant (fun engine target ->
          ignore (Convergence.check_unfair engine cp ~from ~target));
      stops_after_last_call "check_fair" env ~backend ~jobs
        ~pred:em.Lang.Elab.invariant (fun engine target ->
          ignore (Convergence.check_fair engine cp ~from ~target));
      (* a run whose search finds states at every level reports the
         region's explored count *)
      let cancel = Rt.Cancel.create () in
      let engine =
        Engine.create ~backend ~jobs ~guard:(Rt.Guard.create ~cancel ()) env
      in
      let target s =
        if Guarded.State.to_array s = [| 0; 0; 0; 1 |] then
          Rt.Cancel.request cancel (Rt.Cancel.Requested "analysis");
        em.Lang.Elab.invariant s
      in
      match Convergence.check_unfair engine cp ~from ~target with
      | exception Engine.Interrupted i ->
          Alcotest.(check int)
            (Printf.sprintf "explored count (%s)" (tag backend jobs))
            256 i.Engine.states_seen
      | _ -> Alcotest.failf "check_unfair (%s) finished" (tag backend jobs))
    backends

let test_tolerance_analyses_stop () =
  let tr = Token_ring.make ~nodes:4 ~k:5 in
  let env = Token_ring.env tr in
  let program = Token_ring.combined tr in
  let invariant = Token_ring.invariant tr in
  let faults = Sim.Fault.actions (Sim.Fault.corrupt env ~k:1) in
  let legit = Engine.Seeds [ Token_ring.all_zero tr ] in
  let cp = Compile.program program in
  let span =
    Explore.Faultspan.compute (Engine.create env) ~program:cp
      ~faults:
        (Compile.program (Guarded.Program.make ~name:"faults" env faults))
      ~from:legit ~budget:1 ()
  in
  List.iter
    (fun (backend, jobs) ->
      (* budget 0: the recurrence region grows from S a fault step per
         level, so its last call of [invariant] follows its only poll *)
      stops_after_last_call "tolerance certificate (recurrence)" env ~backend
        ~jobs ~pred:invariant (fun engine invariant ->
          ignore
            (Nonmask.Certify.tolerance ~engine ~program ~faults ~invariant
               ~from:legit ~budget:0 ~name:"token-ring" ()));
      stops_after_last_call "Adversary.worst_case" env ~backend ~jobs
        ~pred:invariant (fun engine invariant ->
          ignore (Tol.Adversary.worst_case engine ~program:cp ~span ~invariant ())))
    backends

let suite =
  [
    Alcotest.test_case "graph passes poll, and a raising poll propagates"
      `Quick test_graph_passes_poll;
    Alcotest.test_case "convergence analyses stop after the search" `Quick
      test_convergence_stops;
    Alcotest.test_case "certificate recurrence and adversary ranks stop"
      `Quick test_tolerance_analyses_stop;
  ]
