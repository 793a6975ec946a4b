module State = Guarded.State
module Compile = Guarded.Compile

type dsts = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  space : Space.t;
  program : Compile.program;
  offsets : int array;
      (* n + 1 of them: row [id] is [offsets.(id) ..< offsets.(id + 1)] *)
  dsts : dsts; (* destination ids, four bytes each *)
  narrow : bool; (* at most 256 actions: labels are the bytes of [acts8] *)
  acts8 : Bytes.t;
  acts : int array; (* labels as words, beyond 256 actions *)
}

let max_states = 0x7fff_ffff

let require_fits codec =
  let states = Codec.states codec in
  if states > float_of_int max_states then
    raise
      (Codec.Overflow
         { layout = "eager int32"; bits = Codec.dense_bits codec; states })

let bytes_for ~states ~transitions ~narrow =
  (8 * (states + 1)) + (transitions * if narrow then 5 else 12)

let build ?(guard = Rt.Guard.inert) ?(resident = 0) (cp : Compile.program)
    space =
  require_fits (Space.codec space);
  let n = Space.size space in
  let actions = cp.Compile.actions in
  let n_actions = Array.length actions in
  let offsets = Array.make (n + 1) 0 in
  let guard_on = Rt.Guard.active guard in
  (* Both passes sweep the states in id order ({!Space.iter}, on the
     odometer). Pass 1: count each state's enabled actions, summing into
     the row ends as it goes. *)
  Space.iter space (fun id buf ->
      if guard_on && id land 8191 = 0 then
        Rt.Guard.check guard ~states:id ~bytes:(resident + (8 * (n + 1)));
      let c = ref 0 in
      for a = 0 to n_actions - 1 do
        if actions.(a).enabled buf then incr c
      done;
      offsets.(id + 1) <- offsets.(id) + !c);
  let m = offsets.(n) in
  let narrow = n_actions <= 256 in
  let dsts = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout m in
  let acts8 = Bytes.create (if narrow then m else 0) in
  let acts = Array.make (if narrow then 0 else m) 0 in
  let bytes = resident + bytes_for ~states:n ~transitions:m ~narrow in
  let post = State.make (Space.env space) in
  (* Pass 2: fill the rows in state order, so one cursor serves them all. *)
  let k = ref 0 in
  Space.iter space (fun id buf ->
      if guard_on && id land 8191 = 0 then
        Rt.Guard.check guard ~states:id ~bytes;
      for a = 0 to n_actions - 1 do
        let ca = actions.(a) in
        if ca.enabled buf then begin
          ca.apply_into buf post;
          Bigarray.Array1.unsafe_set dsts !k
            (Int32.of_int (Space.encode space post));
          if narrow then Bytes.unsafe_set acts8 !k (Char.unsafe_chr a)
          else acts.(!k) <- a;
          incr k
        end
      done);
  { space; program = cp; offsets; dsts; narrow; acts8; acts }

let space t = t.space
let program t = t.program
let state_count t = Array.length t.offsets - 1
let transition_count t = Bigarray.Array1.dim t.dsts

let bytes t =
  bytes_for ~states:(state_count t) ~transitions:(transition_count t)
    ~narrow:t.narrow

(* [k] is always inside [offsets.(0) ..< offsets.(n)], the arrays' range *)
let dst t k = Int32.to_int (Bigarray.Array1.unsafe_get t.dsts k)
let act t k =
  if t.narrow then Char.code (Bytes.unsafe_get t.acts8 k) else t.acts.(k)

let iter_succ t id f =
  for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
    f ~action:(act t k) ~dst:(dst t k)
  done

let succ t id =
  let acc = ref [] in
  for k = t.offsets.(id + 1) - 1 downto t.offsets.(id) do
    acc := (act t k, dst t k) :: !acc
  done;
  !acc

let out_degree t id = t.offsets.(id + 1) - t.offsets.(id)
let is_terminal t id = out_degree t id = 0

let reachable t roots =
  let seen = Bitset.create (state_count t) in
  let queue = Flatqueue.create () in
  let visit id =
    if not (Bitset.mem seen id) then begin
      Bitset.add seen id;
      Flatqueue.push queue id
    end
  in
  List.iter visit roots;
  while not (Flatqueue.is_empty queue) do
    let id = Flatqueue.pop queue in
    for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
      visit (dst t k)
    done
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
          if state_to_node.(dst t k) >= 0 then incr c
        done;
        off.(node + 1) <- off.(node) + !c
      end)
    state_to_node;
  let m = off.(!node_count) in
  (* the graph's labels are bytes exactly when the relation's are *)
  let narrow = t.narrow in
  let dst_arr = Array.make m 0 in
  let label8 = Bytes.create (if narrow then m else 0) in
  let label = Array.make (if narrow then 0 else m) 0 in
  let e = ref 0 in
  Array.iteri
    (fun id node ->
      if node >= 0 then
        for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
          let d = state_to_node.(dst t k) in
          if d >= 0 then begin
            dst_arr.(!e) <- d;
            if narrow then
              Bytes.unsafe_set label8 !e (Bytes.unsafe_get t.acts8 k)
            else label.(!e) <- t.acts.(k);
            incr e
          end
        done)
    state_to_node;
  let g =
    if narrow then
      Dgraph.Digraph.of_csr_bytes !node_count ~off ~dst:dst_arr ~label:label8
    else Dgraph.Digraph.of_csr !node_count ~off ~dst:dst_arr ~label
  in
  (g, node_to_state, fun id -> state_to_node.(id))

let region_graph t ~member =
  let g, _, _ = region_graph_full t ~member in
  g
