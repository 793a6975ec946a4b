module State = Guarded.State
module Compile = Guarded.Compile
module A1 = Bigarray.Array1

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

(* Unchecked native-endian loads and stores of the fixed-width slots
   below; every offset is inside its [Bytes]. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Growable storage of fixed-width slots in blocks of [block] slots: slot
   [k] is at byte [width × (k land mask)] of block [k lsr bits]. Every
   block is full but the last, which may be short; growing a short last
   block reallocates it, so slots stay contiguous and nothing is ever
   doubled. The blocks and the row index are [Bytes], not bigarrays: a
   bigarray's bytes count against the major collector's budget for
   out-of-heap memory, about four times faster than heap bytes, and cost
   the eager legs of the benchmark one more major cycle. *)
let bits = 16
let block = 1 lsl bits
let mask = block - 1

type blocks = { width : int; mutable data : Bytes.t array; mutable cap : int }

let blocks width = { width; data = [||]; cap = 0 }

(* Make room for [need] slots. A new or regrown block ends at
   [max need hint] when that is nearer than a full block: [hint] bounds
   the slots ever needed, so a small relation allocates no more. *)
let grow b ~need ~hint =
  while b.cap < need do
    let i = b.cap lsr bits in
    let base = i lsl bits in
    let size = min block (max need hint - base) in
    let fresh = Bytes.create (b.width * size) in
    if base < b.cap then begin
      Bytes.blit b.data.(i) 0 fresh 0 (b.width * (b.cap - base));
      b.data.(i) <- fresh
    end
    else b.data <- Array.append b.data [| fresh |];
    b.cap <- base + size
  done

let[@inline] ensure b ~need ~hint = if b.cap < need then grow b ~need ~hint

type t = {
  space : Space.t;
  program : Compile.program;
  row : Bytes.t; (* state -> its row number, an int32; [-1] while not built *)
  mutable rows : int; (* rows built *)
  mutable edges : int; (* transitions built: [off rows] *)
  offs : blocks; (* [rows + 1] words: row [r] is [off r ..< off (r + 1)] *)
  dsts : blocks; (* an int32 destination id per transition *)
  narrow : bool; (* at most 256 actions: a byte per label, else a word *)
  acts : blocks;
}

let max_states = 0x7fff_ffff

let require_fits codec =
  let states = Codec.states codec in
  if states > float_of_int max_states then
    raise
      (Codec.Overflow
         { layout = "eager int32"; bits = Codec.dense_bits codec; states })

let bytes_for ~states ~rows ~transitions ~narrow =
  (4 * states) + (8 * (rows + 1)) + (transitions * if narrow then 5 else 12)

let space t = t.space
let program t = t.program
let state_count t = Space.size t.space
let rows_built t = t.rows
let transition_count t = t.edges

let bytes t =
  bytes_for ~states:(state_count t) ~rows:t.rows ~transitions:t.edges
    ~narrow:t.narrow

let[@inline] row_index t id = Int32.to_int (get32 t.row (4 * id))

(* Every slot read is below [cap], inside the blocks. Loops that append
   no row read a block table once and pass it to the getters. *)
let[@inline] get_off (offs : Bytes.t array) r =
  Int64.to_int (get64 (Array.unsafe_get offs (r lsr bits)) (8 * (r land mask)))

let[@inline] off t r = get_off t.offs.data r

let[@inline] set_off t r v =
  set64 t.offs.data.(r lsr bits) (8 * (r land mask)) (Int64.of_int v)

let[@inline] get_dst (dsts : Bytes.t array) k =
  Int32.to_int (get32 (Array.unsafe_get dsts (k lsr bits)) (4 * (k land mask)))

let[@inline] dst t k = get_dst t.dsts.data k

let[@inline] act t k =
  let b = Array.unsafe_get t.acts.data (k lsr bits) and j = k land mask in
  if t.narrow then Char.code (Bytes.unsafe_get b j)
  else Int64.to_int (get64 b (8 * j))

let[@inline] ensure_edges t ~need ~hint =
  ensure t.dsts ~need ~hint;
  ensure t.acts ~need ~hint

(* Store [post], the post-state of action [a], at slot [k]. *)
let[@inline] put t k a post =
  let i = k lsr bits and j = k land mask in
  set32 t.dsts.data.(i) (4 * j) (Int32.of_int (Space.encode t.space post));
  if t.narrow then Bytes.unsafe_set t.acts.data.(i) j (Char.unsafe_chr a)
  else set64 t.acts.data.(i) (8 * j) (Int64.of_int a)

let create (cp : Compile.program) space =
  require_fits (Space.codec space);
  let n = Space.size space in
  let narrow = Array.length cp.Compile.actions <= 256 in
  let t =
    { space; program = cp; row = Bytes.make (4 * n) '\255'; rows = 0;
      edges = 0; offs = blocks 8; dsts = blocks 4; narrow;
      acts = blocks (if narrow then 1 else 8) }
  in
  ensure t.offs ~need:1 ~hint:(n + 1);
  set_off t 0 0;
  t

(* Build the row of [id] now: decode it into [pre], then append its
   successors in action order. The row is committed only once complete.
   Callers allocate the scratch states [pre] and [post] just before their
   loop, as [fill] does its [post]: with buffers allocated by [create]
   instead, pass 2 of a full fill ran a fifth slower in a fresh process
   on the benchmark's 16,384-state check-dense model. *)
let add_row t ~pre ~post id =
  let actions = t.program.Compile.actions in
  let n_actions = Array.length actions in
  let r = t.rows and n = state_count t in
  ensure t.offs ~need:(r + 2) ~hint:(n + 1);
  ensure_edges t ~need:(t.edges + n_actions) ~hint:(n * n_actions);
  Space.decode_into t.space id pre;
  let k = ref t.edges in
  for a = 0 to n_actions - 1 do
    let ca = actions.(a) in
    if ca.enabled pre then begin
      ca.apply_into pre post;
      put t !k a post;
      incr k
    end
  done;
  set_off t (r + 1) !k;
  t.edges <- !k;
  set32 t.row (4 * id) (Int32.of_int r);
  t.rows <- r + 1;
  r

(* The row of [id], built first if it is not; [grow] (the build poll)
   runs each time the rows built reach a multiple of 8192. *)
let row_of ?grow ~resident ~pre ~post t id =
  let r = row_index t id in
  if r >= 0 then r
  else begin
    let r = add_row t ~pre ~post id in
    (match grow with
    | Some g when t.rows land 8191 = 0 ->
        g ~states:t.rows ~bytes:(resident + bytes t)
    | _ -> ());
    r
  end

(* Build every missing row, in id order on the odometer ({!Space.iter})
   and with storage sized exactly: pass 1 counts each missing row's
   enabled actions into its end offset, pass 2 fills the rows, committing
   each as it completes. [poll] runs every 8192 missing rows of each
   pass (not before the first) with the rows reached and the bytes held
   once the storage has grown, plus [resident]. *)
let fill ?poll ~resident t =
  let n = state_count t in
  let missing = n - t.rows in
  if missing > 0 then begin
    let actions = t.program.Compile.actions in
    let n_actions = Array.length actions in
    let r0 = t.rows and e0 = t.edges in
    let poll i ~bytes =
      match poll with
      | Some p when i > 0 && i land 8191 = 0 -> p ~states:(r0 + i) ~bytes
      | _ -> ()
    in
    ensure t.offs ~need:(n + 1) ~hint:(n + 1);
    let bytes =
      resident
      + bytes_for ~states:n ~rows:n ~transitions:e0 ~narrow:t.narrow
    in
    let i = ref 0 and m = ref e0 in
    Space.iter t.space (fun id buf ->
        if row_index t id < 0 then begin
          poll !i ~bytes;
          for a = 0 to n_actions - 1 do
            if actions.(a).enabled buf then incr m
          done;
          incr i;
          set_off t (r0 + !i) !m
        end);
    let m = !m in
    ensure_edges t ~need:m ~hint:m;
    let bytes =
      resident + bytes_for ~states:n ~rows:n ~transitions:m ~narrow:t.narrow
    in
    let post = State.make (Space.env t.space) in
    let i = ref 0 and k = ref e0 in
    Space.iter t.space (fun id buf ->
        if row_index t id < 0 then begin
          poll !i ~bytes;
          for a = 0 to n_actions - 1 do
            let ca = actions.(a) in
            if ca.enabled buf then begin
              ca.apply_into buf post;
              put t !k a post;
              incr k
            end
          done;
          set32 t.row (4 * id) (Int32.of_int (r0 + !i));
          t.rows <- r0 + !i + 1;
          t.edges <- !k;
          incr i
        end)
  end

let build cp space =
  let t = create cp space in
  fill ~resident:0 t;
  t

(* The row of [id] for the queries below, built first if it is not. *)
let row t id =
  let r = row_index t id in
  if r >= 0 then r
  else
    let env = Space.env t.space in
    add_row t ~pre:(State.make env) ~post:(State.make env) id

let iter_succ t id f =
  let r = row t id in
  for k = off t r to off t (r + 1) - 1 do
    f ~action:(act t k) ~dst:(dst t k)
  done

let succ t id =
  let r = row t id in
  let acc = ref [] in
  for k = off t (r + 1) - 1 downto off t r do
    acc := (act t k, dst t k) :: !acc
  done;
  !acc

let out_degree t id =
  let r = row t id in
  off t (r + 1) - off t r

let is_terminal t id = out_degree t id = 0

let region ?poll ?grow ?(resident = 0) t ~roots ~member =
  let n = state_count t in
  let env = Space.env t.space in
  let pre = State.make env and post = State.make env in
  let row_of = row_of ?grow ~resident ~pre ~post t in
  (* state -> node: [-2] unseen, [-1] seen outside the region, else the
     member's node id; ids fit because [n <= max_states] *)
  let node : int32s = A1.create Bigarray.int32 Bigarray.c_layout n in
  A1.fill node (-2l);
  let node_of id = Int32.to_int (A1.unsafe_get node id) in
  (* every state seen, in discovery order: the FIFO queue, [head] its
     front, [explored] its end *)
  let order : int32s = A1.create Bigarray.int32 Bigarray.c_layout n in
  let explored = ref 0 and members = ref 0 in
  let discover id is_member =
    A1.unsafe_set order !explored (Int32.of_int id);
    incr explored;
    if is_member then begin
      A1.unsafe_set node id (Int32.of_int !members);
      incr members
    end
    else A1.unsafe_set node id (-1l)
  in
  roots ~seen:(fun id -> node_of id <> -2) discover;
  (* once every state is seen nothing is left to discover: a sweep of
     all roots expands nothing *)
  let head = ref 0 in
  while !head < !explored && !explored < n do
    let id = Int32.to_int (A1.unsafe_get order !head) in
    Dgraph.Topo.tick poll !head;
    incr head;
    let r = row_of id in
    (* read after [row_of], which may append a block *)
    let dsts = t.dsts.data in
    for k = off t r to off t (r + 1) - 1 do
      let d = get_dst dsts k in
      if node_of d = -2 then discover d (member d)
    done
  done;
  (* every state seen: the rows the walk did not expand are built in id
     order, which needs no decode per row *)
  if !explored = n then fill ?poll:grow ~resident t;
  (* Every member was expanded or filled, so its row is built and its
     destinations are all seen. [order] is spent once [node_key] is read
     off it, so member [v]'s row number goes to [order.{v}] ([v <= i]):
     the passes below read the row index once per member, not twice. *)
  let count = !members in
  let node_key = Array.make count 0 in
  for i = 0 to !explored - 1 do
    let id = Int32.to_int (A1.unsafe_get order i) in
    let v = node_of id in
    if v >= 0 then begin
      node_key.(v) <- id;
      A1.unsafe_set order v (get32 t.row (4 * id))
    end
  done;
  let row_of_node v = Int32.to_int (A1.unsafe_get order v) in
  (* Two passes over the members' rows (count, then fill) give the exact
     edge arrays of the graph in node order, each row in action order. *)
  let off_g = Array.make (count + 1) 0 in
  let offs = t.offs.data and dsts = t.dsts.data in
  for v = 0 to count - 1 do
    Dgraph.Topo.tick poll v;
    let r = row_of_node v in
    let c = ref 0 in
    for k = get_off offs r to get_off offs (r + 1) - 1 do
      if node_of (get_dst dsts k) >= 0 then incr c
    done;
    off_g.(v + 1) <- off_g.(v) + !c
  done;
  let m = off_g.(count) in
  (* the graph's labels are bytes exactly when the relation's are *)
  let narrow = t.narrow in
  let dst_arr = Array.make m 0 in
  let label8 = Bytes.create (if narrow then m else 0) in
  let label = Array.make (if narrow then 0 else m) 0 in
  let e = ref 0 in
  for v = 0 to count - 1 do
    Dgraph.Topo.tick poll v;
    let r = row_of_node v in
    for k = get_off offs r to get_off offs (r + 1) - 1 do
      let d = node_of (get_dst dsts k) in
      if d >= 0 then begin
        dst_arr.(!e) <- d;
        if narrow then Bytes.unsafe_set label8 !e (Char.unsafe_chr (act t k))
        else label.(!e) <- act t k;
        incr e
      end
    done
  done;
  let graph =
    if narrow then
      Dgraph.Digraph.of_csr_bytes count ~off:off_g ~dst:dst_arr ~label:label8
    else Dgraph.Digraph.of_csr count ~off:off_g ~dst:dst_arr ~label
  in
  (graph, node_key, !explored, fun id -> max (-1) (node_of id))
