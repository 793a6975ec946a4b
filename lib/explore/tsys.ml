module State = Guarded.State
module Compile = Guarded.Compile

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  space : Space.t;
  program : Compile.program;
  offsets : int array;
      (* n + 1 of them: row [id] is [offsets.(id) ..< offsets.(id + 1)] *)
  dsts : int32s; (* destination ids, four bytes each *)
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

let build ?poll ?(resident = 0) (cp : Compile.program) space =
  require_fits (Space.codec space);
  let n = Space.size space in
  let actions = cp.Compile.actions in
  let n_actions = Array.length actions in
  let offsets = Array.make (n + 1) 0 in
  (* polled every 8192 ids of each pass *)
  let poll id ~bytes =
    match poll with
    | Some p when id land 8191 = 0 -> p ~states:id ~bytes
    | _ -> ()
  in
  (* Both passes sweep the states in id order ({!Space.iter}, on the
     odometer). Pass 1: count each state's enabled actions, summing into
     the row ends as it goes. *)
  let bytes = resident + (8 * (n + 1)) in
  Space.iter space (fun id buf ->
      poll id ~bytes;
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
      poll id ~bytes;
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

let region ?poll t ~roots ~member =
  let n = state_count t in
  (* state -> node: [-2] unseen, [-1] seen outside the region, else the
     member's node id; ids fit because [n <= max_states] *)
  let node : int32s = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  Bigarray.Array1.fill node (-2l);
  let node_of id = Int32.to_int (Bigarray.Array1.unsafe_get node id) in
  (* every state seen, in discovery order: the FIFO queue, [head] its
     front, [explored] its end *)
  let order : int32s = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  let explored = ref 0 and members = ref 0 in
  let discover id is_member =
    Bigarray.Array1.unsafe_set order !explored (Int32.of_int id);
    incr explored;
    if is_member then begin
      Bigarray.Array1.unsafe_set node id (Int32.of_int !members);
      incr members
    end
    else Bigarray.Array1.unsafe_set node id (-1l)
  in
  roots ~seen:(fun id -> node_of id <> -2) discover;
  (* once every state is seen nothing is left to discover: a sweep of
     all roots expands nothing *)
  let head = ref 0 in
  while !head < !explored && !explored < n do
    let id = Int32.to_int (Bigarray.Array1.unsafe_get order !head) in
    Dgraph.Topo.tick poll !head;
    incr head;
    for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
      let d = dst t k in
      if node_of d = -2 then discover d (member d)
    done
  done;
  let count = !members in
  let node_key = Array.make count 0 in
  for i = 0 to !explored - 1 do
    let id = Int32.to_int (Bigarray.Array1.unsafe_get order i) in
    let v = node_of id in
    if v >= 0 then node_key.(v) <- id
  done;
  (* Two passes over the members' rows (count, then fill) give the exact
     edge arrays of the graph in node order, each row in action order.
     Every member was expanded, so its destinations are all seen. *)
  let off = Array.make (count + 1) 0 in
  for v = 0 to count - 1 do
    Dgraph.Topo.tick poll v;
    let id = node_key.(v) in
    let c = ref 0 in
    for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
      if node_of (dst t k) >= 0 then incr c
    done;
    off.(v + 1) <- off.(v) + !c
  done;
  let m = off.(count) in
  (* the graph's labels are bytes exactly when the relation's are *)
  let narrow = t.narrow in
  let dst_arr = Array.make m 0 in
  let label8 = Bytes.create (if narrow then m else 0) in
  let label = Array.make (if narrow then 0 else m) 0 in
  let e = ref 0 in
  for v = 0 to count - 1 do
    Dgraph.Topo.tick poll v;
    let id = node_key.(v) in
    for k = t.offsets.(id) to t.offsets.(id + 1) - 1 do
      let d = node_of (dst t k) in
      if d >= 0 then begin
        dst_arr.(!e) <- d;
        if narrow then Bytes.unsafe_set label8 !e (Bytes.unsafe_get t.acts8 k)
        else label.(!e) <- t.acts.(k);
        incr e
      end
    done
  done;
  let graph =
    if narrow then Dgraph.Digraph.of_csr_bytes count ~off ~dst:dst_arr ~label:label8
    else Dgraph.Digraph.of_csr count ~off ~dst:dst_arr ~label
  in
  (graph, node_key, !explored, fun id -> max (-1) (node_of id))
