(* Stabilizing BFS spanning-tree construction on a general network — an
   application beyond the paper's theorem classes, validated by the
   exhaustive checker (see EXPERIMENTS.md, E11).

   Run with: dune exec examples/spanning_tree_demo.exe *)

module Ugraph = Topology.Ugraph
module State = Guarded.State
module St = Protocols.Spanning_tree

let pp_dists st ppf s =
  List.iter
    (fun j -> Format.fprintf ppf "%d " (State.get s (St.distance st j)))
    (List.init (Ugraph.size (St.graph st)) Fun.id)

let () =
  let g = Ugraph.grid ~width:3 ~height:3 in
  let st = St.make ~root:0 g in
  let env = St.env st in
  Format.printf "Network: 3x3 grid, root at the corner.@.%a@." Ugraph.pp g;
  Format.printf "Program:@.%a@.@." Guarded.Program.pp (St.program st);

  (* The legitimate state is the BFS fixpoint; the derived parent pointers
     form a spanning tree. *)
  let legit = St.bfs_state st in
  Format.printf "BFS distances: %a@." (pp_dists st) legit;
  Format.printf "Derived spanning tree (parent -> child):@.";
  List.iter
    (fun (p, c) -> Format.printf "  %d -> %d@." p c)
    (St.tree_edges st legit);

  (* Scramble everything and watch the distances heal. *)
  let rng = Prng.create 14 in
  let init = St.bfs_state st in
  (Sim.Fault.scramble env).Sim.Fault.inject rng init;
  Format.printf "@.Scrambled: %a (%d local constraints violated)@."
    (pp_dists st) init (St.violated st init);
  let cp = Guarded.Compile.program (St.program st) in
  let outcome =
    Sim.Runner.run ~record_trace:true
      ~daemon:(Sim.Daemon.random rng)
      ~init
      ~stop:(fun s -> St.invariant st s)
      cp
  in
  (match outcome.Sim.Runner.trace with
  | Some t ->
      List.iteri
        (fun i s ->
          Format.printf "  %2d: %a (%d violated)@." i (pp_dists st) s
            (St.violated st s))
        (Sim.Trace.states t)
  | None -> ());
  Format.printf "Tree rebuilt in %d steps.@." outcome.Sim.Runner.steps;

  (* Statistics across topologies. *)
  Format.printf "@.Recovery from scramble, 300 trials each:@.";
  List.iter
    (fun (name, g) ->
      let st = St.make ~root:0 g in
      let cp = Guarded.Compile.program (St.program st) in
      let fault = Sim.Fault.scramble (St.env st) in
      let result =
        Sim.Storm.trials ~rng:(Prng.create 99) ~trials:300
          ~daemon:(fun r -> Sim.Daemon.random r)
          ~prepare:(fun r ->
            let s = St.bfs_state st in
            fault.Sim.Fault.inject r s;
            s)
          ~stop:(fun s -> St.invariant st s)
          ~fault ~rate:0. cp
      in
      Format.printf "  %-12s %a@." name Sim.Storm.pp_result result)
    [
      ("path-16", Ugraph.path 16);
      ("cycle-16", Ugraph.cycle 16);
      ("grid-4x4", Ugraph.grid ~width:4 ~height:4);
      ("random-16", Ugraph.random_connected (Prng.create 4) 16 ~extra_edges:8);
    ]
