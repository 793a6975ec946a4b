module State = Guarded.State
module Compile = Guarded.Compile

type t = {
  space : Space.t;
  program : Compile.program;
  offsets : int array; (* length n+1 *)
  dsts : int array;
  acts : int array;
}

let build ?(guard = Rt.Guard.inert) (cp : Compile.program) space =
  let n = Space.size space in
  let n_actions = Array.length cp.actions in
  let counts = Array.make (n + 1) 0 in
  let buf = State.make (Space.env space) in
  let guard_on = Rt.Guard.active guard in
  (* Pass 1: count transitions per state. *)
  for id = 0 to n - 1 do
    if guard_on && id land 8191 = 0 then
      Rt.Guard.check guard ~states:id ~bytes:(8 * (n + 1));
    Space.decode_into space id buf;
    for a = 0 to n_actions - 1 do
      if cp.actions.(a).enabled buf then counts.(id) <- counts.(id) + 1
    done
  done;
  let offsets = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    offsets.(id + 1) <- offsets.(id) + counts.(id)
  done;
  let m = offsets.(n) in
  let dsts = Array.make m 0 and acts = Array.make m 0 in
  let post = State.make (Space.env space) in
  (* Pass 2: fill. *)
  let cursor = Array.copy offsets in
  for id = 0 to n - 1 do
    if guard_on && id land 8191 = 0 then
      Rt.Guard.check guard ~states:id ~bytes:(8 * ((2 * m) + (2 * (n + 1))));
    Space.decode_into space id buf;
    for a = 0 to n_actions - 1 do
      let ca = cp.actions.(a) in
      if ca.enabled buf then begin
        ca.apply_into buf post;
        let dst = Space.encode space post in
        let k = cursor.(id) in
        dsts.(k) <- dst;
        acts.(k) <- a;
        cursor.(id) <- k + 1
      end
    done
  done;
  { space; program = cp; offsets; dsts; acts }

let space t = t.space
let program t = t.program
let state_count t = Array.length t.offsets - 1
let transition_count t = Array.length t.dsts

let iter_succ t id f =
  for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
    f ~action:t.acts.(k) ~dst:t.dsts.(k)
  done

let succ t id =
  let acc = ref [] in
  for k = t.offsets.(id + 1) - 1 downto t.offsets.(id) do
    acc := (t.acts.(k), t.dsts.(k)) :: !acc
  done;
  !acc

let out_degree t id = t.offsets.(id + 1) - t.offsets.(id)
let is_terminal t id = out_degree t id = 0

let reachable t roots =
  let seen = Bitset.create (state_count t) in
  let queue = Queue.create () in
  List.iter
    (fun id ->
      if not (Bitset.mem seen id) then begin
        Bitset.add seen id;
        Queue.add id queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    iter_succ t id (fun ~action:_ ~dst ->
        if not (Bitset.mem seen dst) then begin
          Bitset.add seen dst;
          Queue.add dst queue
        end)
  done;
  seen

let region_graph_full t ~member =
  let n = state_count t in
  let state_to_node = Array.make n (-1) in
  let node_count = ref 0 in
  for id = 0 to n - 1 do
    if member id then begin
      state_to_node.(id) <- !node_count;
      incr node_count
    end
  done;
  let node_to_state = Array.make !node_count 0 in
  for id = 0 to n - 1 do
    if state_to_node.(id) >= 0 then node_to_state.(state_to_node.(id)) <- id
  done;
  (* Two passes over the CSR rows of member states (count, then fill)
     give exact-size edge arrays and the offsets of a source-free graph. *)
  let off = Array.make (!node_count + 1) 0 in
  Array.iteri
    (fun id node ->
      if node >= 0 then begin
        let c = ref 0 in
        for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
          if state_to_node.(t.dsts.(k)) >= 0 then incr c
        done;
        off.(node + 1) <- off.(node) + !c
      end)
    state_to_node;
  let m = off.(!node_count) in
  let dst = Array.make m 0 and label = Array.make m 0 in
  let e = ref 0 in
  Array.iteri
    (fun id node ->
      if node >= 0 then
        for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
          let d = state_to_node.(t.dsts.(k)) in
          if d >= 0 then begin
            dst.(!e) <- d;
            label.(!e) <- t.acts.(k);
            incr e
          end
        done)
    state_to_node;
  let g = Dgraph.Digraph.of_csr !node_count ~off ~dst ~label in
  (g, node_to_state, fun id -> state_to_node.(id))

let region_graph t ~member =
  let g, _, _ = region_graph_full t ~member in
  g
