type shape = Out_tree | Self_looping | Cyclic

let is_weakly_connected g =
  let n = Digraph.node_count g in
  if n = 0 then true
  else begin
    (* BFS over the underlying undirected graph. *)
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      incr count;
      let push w =
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end
      in
      List.iter push (Digraph.succ g v);
      List.iter push (Digraph.pred g v)
    done;
    !count = n
  end

let is_out_tree g =
  let n = Digraph.node_count g in
  if n = 0 then false
  else
    let roots = ref 0 and ok = ref true in
    for i = 0 to n - 1 do
      match Digraph.in_degree g i with
      | 0 -> incr roots
      | 1 -> ()
      | _ -> ok := false
    done;
    !ok && !roots = 1 && is_weakly_connected g
(* n nodes, one root of indegree 0, others indegree 1, weakly connected:
   that is exactly n-1 edges forming a tree oriented away from the root. *)

let is_self_looping g = Topo.is_acyclic_ignoring_self_loops g

let shape g =
  if is_out_tree g then Out_tree
  else if is_self_looping g then Self_looping
  else Cyclic

let shape_to_string = function
  | Out_tree -> "out-tree"
  | Self_looping -> "self-looping"
  | Cyclic -> "cyclic"

