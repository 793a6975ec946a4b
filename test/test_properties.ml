(* Property-based tests (qcheck) over the core data structures and the
   paper-level invariants, registered as alcotest cases. *)

module Domain = Guarded.Domain
module Env = Guarded.Env
module State = Guarded.State
module Expr = Guarded.Expr
module Tree = Topology.Tree
module Space = Explore.Space

(* --- Generators --- *)

(* A random parent array describing a rooted tree on n nodes (root 0). *)
let tree_gen =
  QCheck.Gen.(
    sized_size (int_range 1 8) (fun n ->
        if n <= 1 then return (Tree.chain 1)
        else
          let rec parents i acc =
            if i >= n then return (List.rev acc)
            else int_range 0 (i - 1) >>= fun p -> parents (i + 1) (p :: acc)
          in
          parents 1 [ 0 ] >>= fun ps -> return (Tree.of_parents (Array.of_list ps))))

let arbitrary_tree =
  QCheck.make tree_gen ~print:(fun t -> Format.asprintf "%a" Tree.pp t)

(* Random integer expressions over two fixed variables. *)
type expr_env = {
  e_env : Env.t;
  e_x : Guarded.Var.t;
  e_y : Guarded.Var.t;
}

let make_expr_env () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range (-5) 5) in
  let y = Env.fresh env "y" (Domain.range (-5) 5) in
  { e_env = env; e_x = x; e_y = y }

let shared_expr_env = make_expr_env ()

let num_gen =
  let open QCheck.Gen in
  let { e_x; e_y; _ } = shared_expr_env in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map Expr.int (int_range (-4) 4);
               return (Expr.var e_x);
               return (Expr.var e_y);
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map2 (fun a b -> Expr.( + ) a b) sub sub;
               map2 (fun a b -> Expr.( - ) a b) sub sub;
               map2 (fun a b -> Expr.( * ) a b) sub sub;
               map2 Expr.min_ sub sub;
               map2 Expr.max_ sub sub;
               map Expr.neg sub;
             ])

let arbitrary_num = QCheck.make num_gen ~print:Expr.num_to_string

let bool_gen =
  let open QCheck.Gen in
  num_gen >>= fun a ->
  num_gen >>= fun b ->
  oneofl [ Expr.( = ); Expr.( <> ); Expr.( < ); Expr.( <= ); Expr.( > ); Expr.( >= ) ]
  >>= fun cmp -> return (cmp a b)

let bexp_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then oneof [ return Expr.tt; return Expr.ff; bool_gen ]
         else
           let sub = self (n / 2) in
           oneof
             [
               bool_gen;
               map2 (fun a b -> Expr.( && ) a b) sub sub;
               map2 (fun a b -> Expr.( || ) a b) sub sub;
               map2 (fun a b -> Expr.( ==> ) a b) sub sub;
               map Expr.not_ sub;
             ])

let arbitrary_bexp = QCheck.make bexp_gen ~print:Expr.to_string

let random_state rng =
  let { e_env; e_x; e_y } = shared_expr_env in
  State.of_list e_env
    [ (e_x, Prng.int_in rng (-5) 5); (e_y, Prng.int_in rng (-5) 5) ]

(* --- Properties --- *)

let prop_simplify_num_sound =
  QCheck.Test.make ~name:"simplify_num preserves evaluation" ~count:500
    arbitrary_num (fun e ->
      let rng = Prng.create (Hashtbl.hash e) in
      let ok = ref true in
      for _ = 1 to 10 do
        let s = random_state rng in
        if Expr.eval_num s e <> Expr.eval_num s (Expr.simplify_num e) then
          ok := false
      done;
      !ok)

let prop_simplify_bool_sound =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500
    arbitrary_bexp (fun b ->
      let rng = Prng.create (Hashtbl.hash b) in
      let ok = ref true in
      for _ = 1 to 10 do
        let s = random_state rng in
        if Expr.eval s b <> Expr.eval s (Expr.simplify b) then ok := false
      done;
      !ok)

let prop_compile_num_agrees =
  QCheck.Test.make ~name:"compiled num agrees with interpreter" ~count:500
    arbitrary_num (fun e ->
      let f = Guarded.Compile.num e in
      let rng = Prng.create (Hashtbl.hash e) in
      let ok = ref true in
      for _ = 1 to 10 do
        let s = random_state rng in
        if Expr.eval_num s e <> f s then ok := false
      done;
      !ok)

let prop_compile_bool_agrees =
  QCheck.Test.make ~name:"compiled pred agrees with interpreter" ~count:500
    arbitrary_bexp (fun b ->
      let f = Guarded.Compile.pred b in
      let rng = Prng.create (Hashtbl.hash b) in
      let ok = ref true in
      for _ = 1 to 10 do
        let s = random_state rng in
        if Expr.eval s b <> f s then ok := false
      done;
      !ok)

let prop_reads_cover_dependencies =
  (* changing a variable outside reads(e) never changes the value of e *)
  QCheck.Test.make ~name:"reads covers semantic dependencies" ~count:300
    arbitrary_num (fun e ->
      let { e_env; e_x; e_y } = shared_expr_env in
      let reads = Expr.reads_num e in
      let rng = Prng.create (Hashtbl.hash e) in
      let ok = ref true in
      for _ = 1 to 10 do
        let s = random_state rng in
        let v0 = Expr.eval_num s e in
        let s' = State.copy s in
        (* mutate the variables NOT read *)
        List.iter
          (fun v ->
            if not (Guarded.Var.Set.mem v reads) then
              State.set s' v (Prng.int_in rng (-5) 5))
          [ e_x; e_y ];
        if Expr.eval_num s' e <> v0 then ok := false
      done;
      ignore e_env;
      !ok)

let prop_tree_digraph_out_tree =
  QCheck.Test.make ~name:"tree digraphs are out-trees" ~count:100
    arbitrary_tree (fun t ->
      Dgraph.Classify.is_out_tree (Tree.to_digraph t))

let prop_tree_depth_height =
  QCheck.Test.make ~name:"height is the max depth" ~count:100 arbitrary_tree
    (fun t ->
      Tree.height t
      = List.fold_left (fun acc j -> max acc (Tree.depth t j)) 0 (Tree.nodes t))

let prop_diffusing_cgraph_out_tree =
  QCheck.Test.make ~name:"diffusing constraint graph is an out-tree (Thm 1)"
    ~count:50 arbitrary_tree (fun t ->
      QCheck.assume (Tree.size t >= 2);
      let d = Protocols.Diffusing.make t in
      Nonmask.Cgraph.shape (Protocols.Diffusing.cgraph d)
      = Dgraph.Classify.Out_tree)

let prop_diffusing_converges_by_simulation =
  QCheck.Test.make
    ~name:"diffusing recovers from any scrambled state (simulation)" ~count:25
    arbitrary_tree (fun t ->
      QCheck.assume (Tree.size t >= 2);
      let d = Protocols.Diffusing.make t in
      let rng = Prng.create (Tree.size t * 7919) in
      let cp = Guarded.Compile.program (Protocols.Diffusing.combined d) in
      let fault = Sim.Fault.scramble (Protocols.Diffusing.env d) in
      let ok = ref true in
      for _ = 1 to 5 do
        let init = Protocols.Diffusing.all_green d in
        fault.Sim.Fault.inject rng init;
        let outcome =
          Sim.Runner.run ~max_steps:20_000
            ~daemon:(Sim.Daemon.random rng)
            ~init
            ~stop:(fun s -> Protocols.Diffusing.invariant d s)
            cp
        in
        if not (Sim.Runner.converged outcome) then ok := false
      done;
      !ok)

let prop_dijkstra_recovers_by_simulation =
  QCheck.Test.make ~name:"dijkstra ring recovers from any scramble" ~count:25
    QCheck.(int_range 3 10)
    (fun nodes ->
      let dr = Protocols.Dijkstra_ring.make ~nodes ~k:(nodes + 1) in
      let rng = Prng.create (nodes * 104729) in
      let cp = Guarded.Compile.program (Protocols.Dijkstra_ring.program dr) in
      let fault = Sim.Fault.scramble (Protocols.Dijkstra_ring.env dr) in
      let ok = ref true in
      for _ = 1 to 5 do
        let init = Protocols.Dijkstra_ring.all_zero dr in
        fault.Sim.Fault.inject rng init;
        let outcome =
          Sim.Runner.run ~max_steps:50_000
            ~daemon:(Sim.Daemon.random rng)
            ~init
            ~stop:(fun s -> Protocols.Dijkstra_ring.invariant dr s)
            cp
        in
        if not (Sim.Runner.converged outcome) then ok := false
      done;
      !ok)

let prop_dijkstra_one_privilege_stays =
  QCheck.Test.make ~name:"dijkstra legitimate states keep one privilege"
    ~count:25
    QCheck.(int_range 3 8)
    (fun nodes ->
      let dr = Protocols.Dijkstra_ring.make ~nodes ~k:(nodes + 1) in
      let cp = Guarded.Compile.program (Protocols.Dijkstra_ring.program dr) in
      let rng = Prng.create nodes in
      let outcome =
        Sim.Runner.run ~record_trace:true ~max_steps:200
          ~daemon:(Sim.Daemon.random rng)
          ~init:(Protocols.Dijkstra_ring.all_zero dr)
          ~stop:(fun _ -> false) cp
      in
      match outcome.Sim.Runner.trace with
      | None -> false
      | Some t ->
          List.for_all
            (fun s -> Protocols.Dijkstra_ring.privilege_count dr s = 1)
            (Sim.Trace.states t))

let small_tree_gen =
  QCheck.Gen.(
    sized_size (int_range 2 5) (fun n ->
        let rec parents i acc =
          if i >= n then return (List.rev acc)
          else int_range 0 (i - 1) >>= fun p -> parents (i + 1) (p :: acc)
        in
        parents 1 [ 0 ] >>= fun ps -> return (Tree.of_parents (Array.of_list ps))))

let arbitrary_small_tree =
  QCheck.make small_tree_gen ~print:(fun t -> Format.asprintf "%a" Tree.pp t)

let prop_diffusing_certificate_valid_on_random_trees =
  QCheck.Test.make
    ~name:"Theorem 1 certificate valid for diffusing on random trees"
    ~count:10 arbitrary_small_tree (fun t ->
      let d = Protocols.Diffusing.make t in
      let engine = Explore.Engine.create (Protocols.Diffusing.env d) in
      Nonmask.Certify.ok (Protocols.Diffusing.certificate ~engine d))

let prop_atomic_certificate_and_convergence =
  QCheck.Test.make
    ~name:"atomic action certified and exhaustively convergent on random trees"
    ~count:8 arbitrary_small_tree (fun t ->
      QCheck.assume (Tree.size t <= 4);
      let a = Protocols.Atomic_action.make t in
      let engine = Explore.Engine.create (Protocols.Atomic_action.env a) in
      Nonmask.Certify.ok (Protocols.Atomic_action.certificate ~engine a)
      &&
      match
        Explore.Convergence.check_unfair engine
          (Guarded.Compile.program (Protocols.Atomic_action.program a))
          ~from:Explore.Engine.All
          ~target:(fun s -> Protocols.Atomic_action.invariant a s)
      with
      | Ok _ -> true
      | Error _ -> false)

let prop_variant_decreases_on_random_trees =
  QCheck.Test.make
    ~name:"rank variant decreases for diffusing on random trees" ~count:8
    arbitrary_small_tree (fun t ->
      let d = Protocols.Diffusing.make t in
      let engine = Explore.Engine.create (Protocols.Diffusing.env d) in
      match Nonmask.Variant.of_cgraph (Protocols.Diffusing.cgraph d) with
      | None -> false
      | Some v -> (
          match
            Nonmask.Variant.check ~engine ~spec:(Protocols.Diffusing.spec d)
              ~cgraph:(Protocols.Diffusing.cgraph d) v
          with
          | Ok () -> true
          | Error _ -> false))

let prop_space_roundtrip =
  QCheck.Test.make ~name:"space encode/decode roundtrip" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 2 4))
    (fun (nvars, dsize) ->
      let env = Env.create () in
      ignore (Env.fresh_family env "v" nvars (Domain.range 0 (dsize - 1)));
      let space = Space.create env in
      let ok = ref true in
      for id = 0 to Space.size space - 1 do
        if Space.encode space (Space.decode space id) <> id then ok := false
      done;
      !ok)

let prop_scc_component_ids_topological =
  QCheck.Test.make ~name:"scc component ids are topologically ordered"
    ~count:200
    QCheck.(pair (int_range 1 12) (list_of_size (QCheck.Gen.int_range 0 25) (pair small_nat small_nat)))
    (fun (n, raw_edges) ->
      let edges =
        List.map (fun (a, b) -> (a mod n, b mod n, ())) raw_edges
      in
      let g = Dgraph.Digraph.of_edges n edges in
      let scc = Dgraph.Scc.compute g in
      List.for_all
        (fun (e : _ Dgraph.Digraph.edge) ->
          let cs = scc.Dgraph.Scc.component.(e.src)
          and cd = scc.Dgraph.Scc.component.(e.dst) in
          cs <= cd)
        (Dgraph.Digraph.edges g))

let prop_scc_members_consistent =
  QCheck.Test.make ~name:"scc members match component assignment" ~count:200
    QCheck.(pair (int_range 1 12) (list_of_size (QCheck.Gen.int_range 0 25) (pair small_nat small_nat)))
    (fun (n, raw_edges) ->
      let edges = List.map (fun (a, b) -> (a mod n, b mod n, ())) raw_edges in
      let g = Dgraph.Digraph.of_edges n edges in
      let scc = Dgraph.Scc.compute g in
      let total =
        Array.fold_left (fun acc ms -> acc + List.length ms) 0 scc.Dgraph.Scc.members
      in
      total = n
      && Array.for_all (fun ms -> ms <> []) scc.Dgraph.Scc.members
      && (let listed = Array.make n false in
          Array.for_all
            (List.for_all (fun v ->
                 let fresh = not listed.(v) in
                 listed.(v) <- true;
                 fresh))
            scc.Dgraph.Scc.members)
      &&
      let ok = ref true in
      Array.iteri
        (fun comp ms ->
          List.iter
            (fun v -> if scc.Dgraph.Scc.component.(v) <> comp then ok := false)
            ms)
        scc.Dgraph.Scc.members;
      !ok)

let prop_ranks_increase_along_edges =
  QCheck.Test.make ~name:"paper ranks increase along non-self edges" ~count:200
    QCheck.(pair (int_range 1 10) (list_of_size (QCheck.Gen.int_range 0 15) (pair small_nat small_nat)))
    (fun (n, raw_edges) ->
      let edges = List.map (fun (a, b) -> (a mod n, b mod n, ())) raw_edges in
      let g = Dgraph.Digraph.of_edges n edges in
      match Dgraph.Topo.ranks g with
      | None -> QCheck.assume_fail ()
      | Some r ->
          List.for_all
            (fun (e : _ Dgraph.Digraph.edge) ->
              e.src = e.dst || r.(e.src) < r.(e.dst))
            (Dgraph.Digraph.edges g))

let prop_stats_percentiles_ordered =
  QCheck.Test.make ~name:"summary percentiles are ordered" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Sim.Stats.summarize (Array.of_list xs) in
      s.Sim.Stats.min <= s.Sim.Stats.p25
      && s.Sim.Stats.p25 <= s.Sim.Stats.median
      && s.Sim.Stats.median <= s.Sim.Stats.p75
      && s.Sim.Stats.p75 <= s.Sim.Stats.p90
      && s.Sim.Stats.p90 <= s.Sim.Stats.p99
      && s.Sim.Stats.p99 <= s.Sim.Stats.max)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:300
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Prng.int g bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simplify_num_sound;
      prop_simplify_bool_sound;
      prop_compile_num_agrees;
      prop_compile_bool_agrees;
      prop_reads_cover_dependencies;
      prop_tree_digraph_out_tree;
      prop_tree_depth_height;
      prop_diffusing_cgraph_out_tree;
      prop_diffusing_converges_by_simulation;
      prop_dijkstra_recovers_by_simulation;
      prop_dijkstra_one_privilege_stays;
      prop_diffusing_certificate_valid_on_random_trees;
      prop_atomic_certificate_and_convergence;
      prop_variant_decreases_on_random_trees;
      prop_space_roundtrip;
      prop_scc_component_ids_topological;
      prop_scc_members_consistent;
      prop_ranks_increase_along_edges;
      prop_stats_percentiles_ordered;
      prop_prng_int_bounds;
    ]
