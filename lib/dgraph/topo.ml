(* Kahn's algorithm over the out-index, one core for every query here.
   [order] doubles as the FIFO queue: a node is appended when its last
   in-edge is released, and the first [count] slots are the order found
   ([count = n] iff the graph is acyclic). Successors are released in
   reverse insertion order — the order [Digraph.iter_succ] walks — which
   fixes the tie order. With [skip_self], self-loops are ignored. The
   in-degree array is returned too: all zero after a complete pass. *)
let kahn ~skip_self g =
  let n = Digraph.node_count g in
  let { Digraph.off; ends; _ } = Digraph.out_csr g in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    for k = off.(v) to off.(v + 1) - 1 do
      let w = ends.(k) in
      if not (skip_self && w = v) then indeg.(w) <- indeg.(w) + 1
    done
  done;
  let order = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    for k = off.(v + 1) - 1 downto off.(v) do
      let w = ends.(k) in
      if not (skip_self && w = v) then begin
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          order.(!tail) <- w;
          incr tail
        end
      end
    done
  done;
  (order, !tail, indeg)

let topological_order g =
  let order, count, _ = kahn ~skip_self:false g in
  if count = Digraph.node_count g then Some (Array.to_list order) else None

let complete g ~skip_self =
  let _, count, _ = kahn ~skip_self g in
  count = Digraph.node_count g

let is_acyclic g = complete g ~skip_self:false
let is_acyclic_ignoring_self_loops g = complete g ~skip_self:true

(* [dist.(w) = max (dist.(w), dist.(v) + 1)] along every edge [v -> w]
   (self-loops skipped), relaxed in topological order so each [dist.(v)]
   is final before it is read. [dist] is Kahn's spent in-degree array,
   reused rather than a third n-word array. *)
let relax_forward g order dist ~init =
  let n = Digraph.node_count g in
  let { Digraph.off; ends; _ } = Digraph.out_csr g in
  Array.fill dist 0 n init;
  for i = 0 to n - 1 do
    let v = order.(i) in
    let d = dist.(v) + 1 in
    for k = off.(v) to off.(v + 1) - 1 do
      let w = ends.(k) in
      if w <> v && dist.(w) < d then dist.(w) <- d
    done
  done;
  dist

let ranks g =
  let order, count, indeg = kahn ~skip_self:true g in
  if count < Digraph.node_count g then None
  else Some (relax_forward g order indeg ~init:1)

let longest_path_lengths g =
  let order, count, indeg = kahn ~skip_self:false g in
  if count < Digraph.node_count g then None
  else Some (relax_forward g order indeg ~init:0)

let find_cycle g =
  let n = Digraph.node_count g in
  let { Digraph.off; ends; _ } = Digraph.out_csr g in
  (* Self-loops first: cheapest cycles to report. *)
  let rec self v =
    if v = n then None
    else if Digraph.has_self_loop g v then Some [ v ]
    else self (v + 1)
  in
  match self 0 with
  | Some _ as c -> c
  | None ->
      (* Iterative DFS with colors over two array stacks: [path] holds the
         gray nodes root-first and [cursor] each one's next out-position,
         so the cycle is read straight off the path. *)
      let color = Bytes.make n '\000' (* 0 white, 1 gray, 2 black *) in
      let path = Array.make n 0 and cursor = Array.make n 0 in
      let depth = ref 0 in
      let result = ref None in
      let push v =
        Bytes.set color v '\001';
        path.(!depth) <- v;
        cursor.(!depth) <- off.(v);
        incr depth
      in
      let root = ref 0 in
      while !result = None && !root < n do
        if Bytes.get color !root = '\000' then begin
          push !root;
          while !result = None && !depth > 0 do
            let top = !depth - 1 in
            let v = path.(top) and k = cursor.(top) in
            if k = off.(v + 1) then begin
              Bytes.set color v '\002';
              decr depth
            end
            else begin
              cursor.(top) <- k + 1;
              let w = ends.(k) in
              match Bytes.get color w with
              | '\001' ->
                  (* cycle: the gray path from w up to v *)
                  let i = ref top in
                  while path.(!i) <> w do
                    decr i
                  done;
                  result := Some (Array.to_list (Array.sub path !i (!depth - !i)))
              | '\000' -> push w
              | _ -> ()
            end
          done
        end;
        incr root
      done;
      !result
