(* Model-based properties of the flat CSR digraph: random multigraphs
   (self-loops and parallel edges included) are checked against a plain
   list of (src, dst, label) triples in insertion order — every accessor
   and the order it returns, index rebuilds after add_edge, source-free
   graphs built from offsets, Kahn's tie order, cycle search, longest
   paths, ranks and SCCs. The model
   functions below are the list-based definitions the graph must agree
   with. *)

module Digraph = Dgraph.Digraph
module Scc = Dgraph.Scc
module Topo = Dgraph.Topo

type model = { n : int; es : (int * int * int) list }

(* --- the model ------------------------------------------------------- *)

let m_out m v = List.filter (fun (s, _, _) -> s = v) m.es
let m_in m v = List.filter (fun (_, d, _) -> d = v) m.es
let m_succ m v = List.map (fun (_, d, _) -> d) (m_out m v)
let m_pred m v = List.map (fun (s, _, _) -> s) (m_in m v)
let to_edge (src, dst, label) = { Digraph.src; dst; label }

(* CSR order: by source node, insertion order within a source *)
let m_edges m = List.concat_map (m_out m) (List.init m.n Fun.id)
let nodes m = List.init m.n Fun.id

(* Kahn with a FIFO queue, successors released in reverse insertion
   order: the tie order the graph documents. *)
let m_topological_order m =
  let indeg = Array.init m.n (fun v -> List.length (m_in m v)) in
  let q = Queue.create () in
  List.iter (fun v -> if indeg.(v) = 0 then Queue.add v q) (nodes m);
  let order = ref [] in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := v :: !order;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w q)
      (List.rev (m_succ m v))
  done;
  if List.length !order = m.n then Some (List.rev !order) else None

(* Depth-first search from nodes in index order, successors in insertion
   order; the first back edge names the cycle (self-loops first). *)
let m_find_cycle m =
  match List.find_opt (fun v -> List.mem v (m_succ m v)) (nodes m) with
  | Some v -> Some [ v ]
  | None ->
      let color = Array.make m.n 0 in
      let exception Found of int list in
      let rec dfs path v =
        color.(v) <- 1;
        List.iter
          (fun w ->
            if color.(w) = 1 then begin
              let rec upto = function
                | x :: rest -> if x = w then [ x ] else x :: upto rest
                | [] -> []
              in
              raise (Found (List.rev (upto (v :: path))))
            end
            else if color.(w) = 0 then dfs (v :: path) w)
          (m_succ m v);
        color.(v) <- 2
      in
      (try
         List.iter (fun v -> if color.(v) = 0 then dfs [] v) (nodes m);
         None
       with Found c -> Some c)

(* Brute force: the longest path ending at [v] over non-self edges,
   trying every predecessor recursively (the graph must be acyclic apart
   from self-loops). *)
let rec m_longest m v =
  List.fold_left
    (fun acc p -> if p = v then acc else max acc (m_longest m p + 1))
    0 (m_pred m v)

let m_reach m =
  let r = Array.make_matrix m.n m.n false in
  List.iter (fun (s, d, _) -> r.(s).(d) <- true) m.es;
  for k = 0 to m.n - 1 do
    for i = 0 to m.n - 1 do
      for j = 0 to m.n - 1 do
        if r.(i).(k) && r.(k).(j) then r.(i).(j) <- true
      done
    done
  done;
  r

(* Recursive Tarjan over the model's successor lists. *)
let m_tarjan m =
  let index = Array.make m.n (-1) and low = Array.make m.n 0 in
  let on = Array.make m.n false and stack = ref [] and next = ref 0 in
  let comps = ref [] in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          visit w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on.(w) then low.(v) <- min low.(v) index.(w))
      (m_succ m v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      comps := pop [] :: !comps
    end
  in
  List.iter (fun v -> if index.(v) < 0 then visit v) (nodes m);
  (* emitted last = lowest id *)
  Array.of_list !comps

(* --- generators ------------------------------------------------------ *)

let gen_model ~max_n ~max_e =
  QCheck.Gen.(
    int_range 1 max_n >>= fun n ->
    list_size (int_range 0 max_e)
      (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 5))
    >|= fun es -> { n; es })

let print_model m =
  Printf.sprintf "n=%d [%s]" m.n
    (String.concat "; "
       (List.map (fun (s, d, l) -> Printf.sprintf "%d->%d/%d" s d l) m.es))

let arb_model = QCheck.make ~print:print_model (gen_model ~max_n:8 ~max_e:24)

(* Acyclic apart from self-loops: orient every edge from the smaller to
   the larger rank of a random node permutation, so node order is not a
   topological order. *)
let arb_dag =
  let gen =
    QCheck.Gen.(
      gen_model ~max_n:8 ~max_e:16 >>= fun m ->
      shuffle_l (List.init m.n Fun.id) >|= fun perm ->
      let perm = Array.of_list perm in
      let es =
        List.map
          (fun (s, d, l) ->
            let a = min s d and b = max s d in
            (perm.(a), perm.(b), l))
          m.es
      in
      { m with es })
  in
  QCheck.make ~print:print_model gen

(* The graph built three ways: by add_edge, by of_arrays, and (grouped
   by source, the exploration backends' insertion pattern) sorted. *)
let build m = Digraph.of_edges m.n m.es

let build_arrays m =
  let a = Array.of_list m.es in
  Digraph.of_arrays m.n
    ~src:(Array.map (fun (s, _, _) -> s) a)
    ~dst:(Array.map (fun (_, d, _) -> d) a)
    ~label:(Array.map (fun (_, _, l) -> l) a)

let grouped m =
  { m with es = List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) m.es }

(* A grouped model without its source array: per-node offsets, the way
   the exploration backends hand their regions over. *)
let csr_parts m =
  let a = Array.of_list (grouped m).es in
  let off = Array.make (m.n + 1) 0 in
  Array.iter (fun (s, _, _) -> off.(s + 1) <- off.(s + 1) + 1) a;
  for v = 0 to m.n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  (off, Array.map (fun (_, d, _) -> d) a, Array.map (fun (_, _, l) -> l) a)

let build_csr m =
  let off, dst, label = csr_parts m in
  Digraph.of_csr m.n ~off ~dst ~label

(* --- agreement ------------------------------------------------------- *)

let iter_succ_list g v =
  let acc = ref [] in
  Digraph.iter_succ g v (fun w -> acc := w :: !acc);
  List.rev !acc

let csr_succ g v =
  let c = Digraph.out_csr g in
  List.init (c.off.(v + 1) - c.off.(v)) (fun i -> c.ends.(c.off.(v) + i))

let csr_edges g =
  let c = Digraph.out_csr g in
  List.init (Digraph.edge_count g) (fun k -> Digraph.edge g (Digraph.csr_edge c k))

(* Every accessor, in its documented order. [Failure] names the first
   disagreement. *)
let agrees m g =
  let fail what v = failwith (Printf.sprintf "%s disagrees at node %d" what v) in
  if Digraph.node_count g <> m.n then fail "node_count" 0;
  if Digraph.edge_count g <> List.length m.es then fail "edge_count" 0;
  List.iter
    (fun v ->
      if Digraph.succ g v <> m_succ m v then fail "succ" v;
      if Digraph.pred g v <> m_pred m v then fail "pred" v;
      if Digraph.out_edges g v <> List.map to_edge (m_out m v) then
        fail "out_edges" v;
      if Digraph.in_edges g v <> List.map to_edge (m_in m v) then
        fail "in_edges" v;
      if Digraph.out_degree g v <> List.length (m_out m v) then
        fail "out_degree" v;
      if Digraph.in_degree g v <> List.length (m_in m v) then fail "in_degree" v;
      if Digraph.has_self_loop g v <> List.mem v (m_succ m v) then
        fail "has_self_loop" v;
      if iter_succ_list g v <> List.rev (m_succ m v) then fail "iter_succ" v;
      if csr_succ g v <> m_succ m v then fail "out_csr" v)
    (nodes m);
  let edges = List.map to_edge (m_edges m) in
  if Digraph.edges g <> edges then fail "edges" 0;
  if csr_edges g <> edges then fail "csr_edge" 0;
  if List.rev (Digraph.fold_edges (fun acc e -> e :: acc) [] g) <> edges then
    fail "fold_edges" 0;
  true

let prop_accessors =
  QCheck.Test.make ~name:"digraph: every accessor agrees with the model"
    ~count:300 arb_model (fun m ->
      agrees m (build m)
      && agrees m (build_arrays m)
      && agrees (grouped m) (build_arrays (grouped m)))

(* Query between every insertion, so each add_edge lands on a built
   index that it must invalidate. *)
let prop_add_after_query =
  QCheck.Test.make ~name:"digraph: add_edge after a query rebuilds the index"
    ~count:200 arb_model (fun m ->
      let g = Digraph.create m.n in
      let rec go prefix = function
        | [] -> true
        | ((src, dst, l) as e) :: rest ->
            ignore (agrees { m with es = List.rev prefix } g);
            Digraph.add_edge g ~src ~dst l;
            agrees { m with es = List.rev (e :: prefix) } g && go (e :: prefix) rest
      in
      go [] m.es)

let prop_derived =
  QCheck.Test.make ~name:"digraph: derived graphs insert in CSR order"
    ~count:200 arb_model (fun m ->
      let g = build m in
      let csr = m_edges m in
      let sub es = { m with es } in
      agrees (sub (List.map (fun (s, d, l) -> (s, d, l * 3)) csr))
        (Digraph.map_labels (fun l -> l * 3) g)
      && agrees
           (sub (List.filter (fun (_, _, l) -> l mod 2 = 0) csr))
           (Digraph.filter_edges (fun e -> e.label mod 2 = 0) g)
      && agrees
           (sub (List.filter (fun (s, d, _) -> s <> d) csr))
           (Digraph.drop_self_loops g)
      && agrees (sub (List.map (fun (s, d, l) -> (d, s, l)) csr)) (Digraph.reverse g)
      && Format.asprintf "%a" (Digraph.pp Format.pp_print_int) g
         = Format.asprintf "@[<v>digraph (%d nodes, %d edges)@,%a@]" m.n
             (List.length m.es)
             (fun ppf ->
               List.iter (fun (s, d, l) ->
                   Format.fprintf ppf "  %d -> %d [%d]@," s d l))
             csr)

let prop_bytes =
  QCheck.Test.make ~name:"digraph: of_arrays costs 24 B per int-labelled edge"
    ~count:100 arb_model (fun m ->
      Digraph.bytes (build_arrays m) = 24 * List.length m.es)

(* Source-free graphs against the of_arrays graph of the same grouped
   edges: every edge by id (its source found in the offsets), every
   accessor, the rendering, the exact footprint, and add_edge after
   construction, which writes the sources out first. *)
let prop_source_free =
  QCheck.Test.make ~name:"digraph: source-free graphs agree with of_arrays"
    ~count:300 arb_model (fun m ->
      let gm = grouped m in
      let free = build_csr m and reference = build_arrays gm in
      let by_id g = List.init (Digraph.edge_count g) (Digraph.edge g) in
      let render g = Format.asprintf "%a" (Digraph.pp Format.pp_print_int) g in
      let rejects_bad_offsets () =
        let off, dst, label = csr_parts m in
        off.(m.n) <- off.(m.n) + 1;
        match Digraph.of_csr m.n ~off ~dst ~label with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let extra = List.map (fun (s, d, l) -> (d, s, l + 10)) gm.es in
      (* bytes first: the queries below build the in-index *)
      Digraph.bytes free = (16 * List.length m.es) + (8 * (m.n + 1))
      && by_id free = by_id reference
      && render free = render reference
      && agrees gm free
      && rejects_bad_offsets ()
      && begin
           List.iter (fun (src, dst, l) -> Digraph.add_edge free ~src ~dst l) extra;
           by_id free = List.map to_edge (gm.es @ extra)
           && agrees { gm with es = gm.es @ extra } free
         end)

let prop_kahn_order =
  QCheck.Test.make ~name:"topo: Kahn tie order matches the model" ~count:300
    (QCheck.oneof [ arb_model; arb_dag ]) (fun m ->
      let g = build m in
      Topo.topological_order g = m_topological_order m
      && Topo.is_acyclic g = (m_topological_order m <> None)
      && Topo.topological_order (build_arrays (grouped m))
         = m_topological_order (grouped m)
      && Topo.topological_order (build_csr m) = m_topological_order (grouped m))

let valid_cycle m = function
  | [] -> false
  | first :: _ as c ->
      let rec ok = function
        | [ last ] -> List.mem first (m_succ m last)
        | a :: (b :: _ as rest) -> List.mem b (m_succ m a) && ok rest
        | [] -> false
      in
      ok c

let prop_find_cycle =
  QCheck.Test.make
    ~name:"topo: find_cycle succeeds iff no topological order exists"
    ~count:300 (QCheck.oneof [ arb_model; arb_dag ]) (fun m ->
      let g = build m in
      let c = Topo.find_cycle g in
      c = m_find_cycle m
      && (match c with
         | None -> Topo.topological_order g <> None
         | Some c -> Topo.topological_order g = None && valid_cycle m c))

let prop_longest_paths =
  QCheck.Test.make ~name:"topo: longest paths and ranks against brute force"
    ~count:300 arb_dag (fun m ->
      let g = build m in
      let no_self = { m with es = List.filter (fun (s, d, _) -> s <> d) m.es } in
      let brute mm = Array.init m.n (m_longest mm) in
      Topo.ranks g = Some (Array.map succ (brute m))
      && Topo.is_acyclic_ignoring_self_loops g
      && Topo.longest_path_lengths g
         = (if no_self.es = m.es then Some (brute m) else None)
      && Topo.longest_path_lengths (build no_self) = Some (brute no_self))

let prop_scc_classes =
  QCheck.Test.make ~name:"scc: components are the mutual-reachability classes"
    ~count:300 arb_model (fun m ->
      let scc = Scc.compute (build m) in
      let r = m_reach m in
      let same = ref true in
      for u = 0 to m.n - 1 do
        for v = 0 to m.n - 1 do
          let mutual = u = v || (r.(u).(v) && r.(v).(u)) in
          if mutual <> (scc.Scc.component.(u) = scc.Scc.component.(v)) then
            same := false
        done
      done;
      !same
      && scc.Scc.members = m_tarjan m
      && (Scc.compute (build_csr m)).Scc.members = m_tarjan (grouped m))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_accessors;
      prop_add_after_query;
      prop_derived;
      prop_bytes;
      prop_source_free;
      prop_kahn_order;
      prop_find_cycle;
      prop_longest_paths;
      prop_scc_classes;
    ]
