(* Tests for the directed-graph substrate: digraphs, SCC, topological
   structure, shape classification, and DOT export. *)

module Digraph = Dgraph.Digraph
module Scc = Dgraph.Scc
module Topo = Dgraph.Topo
module Classify = Dgraph.Classify

let sorted = List.sort compare

(* --- Digraph basics --- *)

let test_digraph_basics () =
  let g = Digraph.of_edges 4 [ (0, 1, "a"); (1, 2, "b"); (1, 3, "c") ] in
  Alcotest.(check int) "nodes" 4 (Digraph.node_count g);
  Alcotest.(check int) "edges" 3 (Digraph.edge_count g);
  Alcotest.(check (list int)) "succ 1" [ 2; 3 ] (sorted (Digraph.succ g 1));
  Alcotest.(check (list int)) "pred 1" [ 0 ] (Digraph.pred g 1);
  Alcotest.(check int) "out deg" 2 (Digraph.out_degree g 1);
  Alcotest.(check int) "in deg" 1 (Digraph.in_degree g 3);
  Alcotest.(check bool) "no self loop" false (Digraph.has_self_loop g 1)

let test_digraph_parallel_and_self () =
  let g = Digraph.of_edges 2 [ (0, 1, ()); (0, 1, ()); (1, 1, ()) ] in
  Alcotest.(check int) "parallel edges kept" 3 (Digraph.edge_count g);
  Alcotest.(check bool) "self loop" true (Digraph.has_self_loop g 1);
  let g' = Digraph.drop_self_loops g in
  Alcotest.(check int) "self loop dropped" 2 (Digraph.edge_count g')

let test_digraph_out_of_range () =
  Alcotest.(check bool) "of_edges rejects" true
    (try
       ignore (Digraph.of_edges 2 [ (0, 5, ()) ]);
       false
     with Invalid_argument _ -> true)

let test_digraph_reverse () =
  let g = Digraph.of_edges 3 [ (0, 1, "e"); (1, 2, "f") ] in
  let r = Digraph.reverse g in
  Alcotest.(check (list int)) "reversed succ" [ 0 ] (Digraph.succ r 1);
  Alcotest.(check (list int)) "reversed pred" [ 2 ] (Digraph.pred r 1)

let test_digraph_filter_map () =
  let g = Digraph.of_edges 3 [ (0, 1, 10); (1, 2, 20) ] in
  let doubled = Digraph.map_labels (fun x -> x * 2) g in
  let labels =
    List.map (fun (e : _ Digraph.edge) -> e.label) (Digraph.edges doubled)
  in
  Alcotest.(check (list int)) "mapped" [ 20; 40 ] (sorted labels);
  let only_small = Digraph.filter_edges (fun e -> e.label < 15) g in
  Alcotest.(check int) "filtered" 1 (Digraph.edge_count only_small)

(* --- SCC --- *)

let test_scc_simple_cycle () =
  let g = Digraph.of_edges 3 [ (0, 1, ()); (1, 2, ()); (2, 0, ()) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "one component" 1 scc.Scc.count;
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ]
    (sorted scc.Scc.members.(0))

let test_scc_dag () =
  let g = Digraph.of_edges 3 [ (0, 1, ()); (1, 2, ()) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "three components" 3 scc.Scc.count;
  (* topological numbering: edges go from lower to higher component id *)
  Alcotest.(check bool) "topo order" true
    (scc.Scc.component.(0) < scc.Scc.component.(1)
    && scc.Scc.component.(1) < scc.Scc.component.(2))

let test_scc_two_cycles () =
  let g =
    Digraph.of_edges 5
      [ (0, 1, ()); (1, 0, ()); (1, 2, ()); (2, 3, ()); (3, 2, ()); (4, 0, ()) ]
  in
  let scc = Scc.compute g in
  Alcotest.(check int) "three components" 3 scc.Scc.count;
  Alcotest.(check int) "0 and 1 together" scc.Scc.component.(0)
    scc.Scc.component.(1);
  Alcotest.(check int) "2 and 3 together" scc.Scc.component.(2)
    scc.Scc.component.(3);
  Alcotest.(check bool) "edge order respected" true
    (scc.Scc.component.(0) < scc.Scc.component.(2));
  Alcotest.(check bool) "4 before 0" true
    (scc.Scc.component.(4) < scc.Scc.component.(0))

let test_scc_trivial () =
  let g = Digraph.of_edges 2 [ (0, 0, ()); (0, 1, ()) ] in
  let scc = Scc.compute g in
  Alcotest.(check bool) "self loop not trivial" false (Scc.is_trivial scc g 0);
  Alcotest.(check bool) "isolated is trivial" true (Scc.is_trivial scc g 1)

let test_scc_condensation () =
  let g =
    Digraph.of_edges 4 [ (0, 1, ()); (1, 0, ()); (1, 2, ()); (2, 3, ()); (3, 2, ()) ]
  in
  let scc = Scc.compute g in
  let dag = Scc.condensation g scc in
  Alcotest.(check int) "two components" 2 (Digraph.node_count dag);
  Alcotest.(check int) "one cross edge" 1 (Digraph.edge_count dag);
  Alcotest.(check bool) "acyclic" true (Topo.is_acyclic dag)

let test_scc_big_path_no_stack_overflow () =
  let n = 100_000 in
  let g = Digraph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1, ()))) in
  let scc = Scc.compute g in
  Alcotest.(check int) "all singletons" n scc.Scc.count

(* --- Topo --- *)

let test_topo_order () =
  let g = Digraph.of_edges 4 [ (0, 1, ()); (0, 2, ()); (1, 3, ()); (2, 3, ()) ] in
  match Topo.topological_order g with
  | None -> Alcotest.fail "expected acyclic"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
      Alcotest.(check bool) "1 before 3" true (pos.(1) < pos.(3));
      Alcotest.(check bool) "2 before 3" true (pos.(2) < pos.(3))

let test_topo_cyclic_none () =
  let g = Digraph.of_edges 2 [ (0, 1, ()); (1, 0, ()) ] in
  Alcotest.(check bool) "no order" true (Topo.topological_order g = None);
  Alcotest.(check bool) "not acyclic" false (Topo.is_acyclic g)

let test_topo_self_loop_counts_as_cycle () =
  let g = Digraph.of_edges 2 [ (0, 1, ()); (1, 1, ()) ] in
  Alcotest.(check bool) "self loop is a cycle" false (Topo.is_acyclic g);
  Alcotest.(check bool) "acyclic ignoring self loops" true
    (Topo.is_acyclic_ignoring_self_loops g)

let test_topo_ranks_paper () =
  (* The paper's rank: 1 + max over proper predecessors; sources rank 1. *)
  let g = Digraph.of_edges 4 [ (0, 1, ()); (1, 2, ()); (0, 3, ()) ] in
  match Topo.ranks g with
  | None -> Alcotest.fail "expected ranks"
  | Some r -> Alcotest.(check (array int)) "ranks" [| 1; 2; 3; 2 |] r

let test_topo_ranks_with_self_loops () =
  let g = Digraph.of_edges 3 [ (0, 1, ()); (1, 1, ()); (1, 2, ()) ] in
  match Topo.ranks g with
  | None -> Alcotest.fail "self loops should be ignored"
  | Some r -> Alcotest.(check (array int)) "ranks" [| 1; 2; 3 |] r

let test_topo_ranks_cyclic () =
  let g = Digraph.of_edges 2 [ (0, 1, ()); (1, 0, ()) ] in
  Alcotest.(check bool) "no ranks on cyclic" true (Topo.ranks g = None)

let test_topo_longest_paths () =
  let g = Digraph.of_edges 4 [ (0, 1, ()); (1, 2, ()); (0, 2, ()); (3, 0, ()) ] in
  match Topo.longest_path_lengths g with
  | None -> Alcotest.fail "acyclic"
  | Some d -> Alcotest.(check (array int)) "lengths" [| 1; 2; 3; 0 |] d

let test_find_cycle () =
  let g = Digraph.of_edges 4 [ (0, 1, ()); (1, 2, ()); (2, 1, ()); (2, 3, ()) ] in
  match Topo.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      Alcotest.(check (list int)) "the 1-2 cycle" [ 1; 2 ] (sorted cycle);
      (* consecutive elements are edges, and last wraps to first *)
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        let u = arr.(i) and v = arr.((i + 1) mod n) in
        Alcotest.(check bool) "edge exists" true (List.mem v (Digraph.succ g u))
      done

let test_find_cycle_self_loop () =
  let g = Digraph.of_edges 2 [ (0, 1, ()); (1, 1, ()) ] in
  Alcotest.(check bool) "singleton" true (Topo.find_cycle g = Some [ 1 ])

let test_find_cycle_none () =
  let g = Digraph.of_edges 3 [ (0, 1, ()); (1, 2, ()) ] in
  Alcotest.(check bool) "acyclic" true (Topo.find_cycle g = None)

(* --- Classification --- *)

let test_classify_out_tree () =
  let g = Digraph.of_edges 4 [ (0, 1, ()); (0, 2, ()); (1, 3, ()) ] in
  Alcotest.(check bool) "is out-tree" true (Classify.is_out_tree g);
  Alcotest.(check bool) "shape" true (Classify.shape g = Classify.Out_tree)

let test_classify_not_out_tree_two_roots () =
  let g = Digraph.of_edges 4 [ (0, 1, ()); (2, 3, ()) ] in
  Alcotest.(check bool) "disconnected" false (Classify.is_out_tree g);
  Alcotest.(check bool) "still self-looping class" true
    (Classify.shape g = Classify.Self_looping)

let test_classify_not_out_tree_indegree_two () =
  let g = Digraph.of_edges 3 [ (0, 2, ()); (1, 2, ()); (0, 1, ()) ] in
  Alcotest.(check bool) "diamond-ish" false (Classify.is_out_tree g);
  Alcotest.(check bool) "self-looping" true
    (Classify.shape g = Classify.Self_looping)

let test_classify_self_looping () =
  let g = Digraph.of_edges 3 [ (0, 1, ()); (1, 1, ()); (1, 2, ()) ] in
  Alcotest.(check bool) "self-looping" true (Classify.is_self_looping g);
  Alcotest.(check bool) "shape" true (Classify.shape g = Classify.Self_looping)

let test_classify_cyclic () =
  let g = Digraph.of_edges 3 [ (0, 1, ()); (1, 2, ()); (2, 0, ()) ] in
  Alcotest.(check bool) "shape" true (Classify.shape g = Classify.Cyclic)

let test_classify_single_node () =
  let g = Digraph.of_edges 1 [] in
  Alcotest.(check bool) "single node is out-tree" true (Classify.is_out_tree g)

let test_classify_weak_connectivity () =
  let g = Digraph.of_edges 3 [ (0, 1, ()) ] in
  Alcotest.(check bool) "node 2 unreachable" false
    (Classify.is_weakly_connected g);
  let g2 = Digraph.of_edges 3 [ (0, 1, ()); (2, 1, ()) ] in
  Alcotest.(check bool) "weakly connected via 1" true
    (Classify.is_weakly_connected g2)

(* --- DOT --- *)

let test_dot_output () =
  let g = Digraph.of_edges 2 [ (0, 1, "e\"dge") ] in
  let dot =
    Dgraph.Dot.to_dot ~name:"t"
      ~node_label:(fun i -> Printf.sprintf "n%d" i)
      ~edge_label:Fun.id g
  in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "escaped quote" true
    (let rec contains i =
       i + 2 <= String.length dot
       && (String.sub dot i 2 = "\\\"" || contains (i + 1))
     in
     contains 0)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "parallel edges and self loops" `Quick
      test_digraph_parallel_and_self;
    Alcotest.test_case "out of range" `Quick test_digraph_out_of_range;
    Alcotest.test_case "reverse" `Quick test_digraph_reverse;
    Alcotest.test_case "filter and map" `Quick test_digraph_filter_map;
    Alcotest.test_case "scc simple cycle" `Quick test_scc_simple_cycle;
    Alcotest.test_case "scc dag" `Quick test_scc_dag;
    Alcotest.test_case "scc two cycles" `Quick test_scc_two_cycles;
    Alcotest.test_case "scc triviality" `Quick test_scc_trivial;
    Alcotest.test_case "scc condensation" `Quick test_scc_condensation;
    Alcotest.test_case "scc large path (iterative)" `Quick
      test_scc_big_path_no_stack_overflow;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "cyclic has no order" `Quick test_topo_cyclic_none;
    Alcotest.test_case "self loop is a cycle" `Quick
      test_topo_self_loop_counts_as_cycle;
    Alcotest.test_case "paper ranks" `Quick test_topo_ranks_paper;
    Alcotest.test_case "ranks ignore self loops" `Quick
      test_topo_ranks_with_self_loops;
    Alcotest.test_case "no ranks when cyclic" `Quick test_topo_ranks_cyclic;
    Alcotest.test_case "longest paths" `Quick test_topo_longest_paths;
    Alcotest.test_case "find cycle" `Quick test_find_cycle;
    Alcotest.test_case "find self loop" `Quick test_find_cycle_self_loop;
    Alcotest.test_case "find cycle none" `Quick test_find_cycle_none;
    Alcotest.test_case "classify out-tree" `Quick test_classify_out_tree;
    Alcotest.test_case "classify two roots" `Quick
      test_classify_not_out_tree_two_roots;
    Alcotest.test_case "classify indegree two" `Quick
      test_classify_not_out_tree_indegree_two;
    Alcotest.test_case "classify self-looping" `Quick test_classify_self_looping;
    Alcotest.test_case "classify cyclic" `Quick test_classify_cyclic;
    Alcotest.test_case "classify single node" `Quick test_classify_single_node;
    Alcotest.test_case "weak connectivity" `Quick test_classify_weak_connectivity;
    Alcotest.test_case "dot export" `Quick test_dot_output;
  ]
