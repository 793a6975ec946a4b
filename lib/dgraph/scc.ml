type t = { count : int; component : int array; members : int list array }

(* Iterative Tarjan over the out-index, with array stacks so that
   state-space-sized graphs (hundreds of thousands of nodes) neither
   overflow the OCaml stack nor allocate a frame per node: [frame] holds
   the DFS path and [cursor] each frame's next out-position; [stack] is
   Tarjan's component stack. *)
let compute ?poll g =
  let n = Digraph.node_count g in
  let { Digraph.off; ends; _ } = Digraph.out_csr g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame = Array.make n 0 and cursor = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 in
  let comp = Array.make n (-1) in
  let comp_count = ref 0 in
  let rev_members : int list list ref = ref [] in
  let discover v =
    (* [poll] runs before the first discovery and every 4096th after *)
    Topo.tick poll !next_index;
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    Bytes.set on_stack v '\001';
    frame.(!fp) <- v;
    cursor.(!fp) <- off.(v);
    incr fp
  in
  let visit root =
    discover root;
    while !fp > 0 do
      let top = !fp - 1 in
      let v = frame.(top) and k = cursor.(top) in
      if k < off.(v + 1) then begin
        cursor.(top) <- k + 1;
        let w = ends.(k) in
        if index.(w) = -1 then discover w
        else if Bytes.get on_stack w = '\001' then
          lowlink.(v) <- min lowlink.(v) index.(w)
      end
      else begin
        fp := top;
        if top > 0 then begin
          let parent = frame.(top - 1) in
          lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
        end;
        if lowlink.(v) = index.(v) then begin
          (* v is the root of a component: pop the stack down to v; the
             members list runs from v up to the old top *)
          let members = ref [] in
          let continue = ref true in
          while !continue do
            decr sp;
            let w = stack.(!sp) in
            Bytes.set on_stack w '\000';
            comp.(w) <- !comp_count;
            members := w :: !members;
            if w = v then continue := false
          done;
          rev_members := !members :: !rev_members;
          incr comp_count
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (* Tarjan emits components in reverse topological order already: a
     component is emitted only after all components it can reach. To get ids
     in reverse topological order (edges go from lower to higher id is the
     *forward* topological convention; Tarjan gives the opposite), renumber
     so that edges across components go from smaller to larger id. *)
  let count = !comp_count in
  let renumber i = count - 1 - i in
  Array.iteri (fun v c -> comp.(v) <- renumber c) comp;
  let members = Array.make count [] in
  List.iteri
    (fun emitted ms -> members.(renumber emitted) <- ms)
    (List.rev !rev_members);
  { count; component = comp; members }

let is_trivial t g node =
  match t.members.(t.component.(node)) with
  | [ v ] -> not (Digraph.has_self_loop g v)
  | _ -> false

let condensation g t =
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  let { Digraph.off; ends; _ } = Digraph.out_csr g in
  for v = 0 to Digraph.node_count g - 1 do
    let cs = t.component.(v) in
    for k = off.(v) to off.(v + 1) - 1 do
      let cd = t.component.(ends.(k)) in
      if cs <> cd && not (Hashtbl.mem seen ((cs * t.count) + cd)) then begin
        Hashtbl.add seen ((cs * t.count) + cd) ();
        edges := (cs, cd, ()) :: !edges
      end
    done
  done;
  Digraph.of_edges t.count (List.rev !edges)
