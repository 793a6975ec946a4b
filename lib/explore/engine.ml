module Env = Guarded.Env
module State = Guarded.State
module Var = Guarded.Var
module Domain = Guarded.Domain
module Compile = Guarded.Compile

type backend = Eager | Lazy | Parallel
type storage = Auto | Direct | Probed

type t = {
  backend : backend;
  space : Space.t;
  codec : Codec.t;
  budget : int;
  jobs : int;  (* worker-domain count for the parallel backend *)
  mutable pool : Par.Pool.t option;
      (* a caller-owned shared pool (the serve daemon's), or one lent by
         [sharing_pool]; searches borrow it instead of spawning a
         transient pool per call *)
  packed : bool;  (* keys are bit-packed codes instead of dense ids *)
  direct : bool;  (* visited sets are direct-mapped over the dense range *)
  obs : Obs.Ctx.t;
  guard : Rt.Guard.t;  (* cooperative budget/cancellation polling point *)
  snapshots : bool;  (* build a resumable snapshot when interrupted *)
  salt : string;  (* caller context folded into config hashes *)
  mutable csr : (Compile.program * Tsys.t) option;
      (* Cache of the eager CSR build, keyed by physical equality of the
         compiled program: repeated queries against the same program (the
         common case: check_unfair then check_fair) build it once. *)
  mutable last_visited_bytes : int;
  mutable last_frontier_bytes : int;
}

exception Region_overflow of int

type interrupt = {
  reason : Rt.Cancel.reason;
  states_seen : int;
  frontier_size : int;
  snapshot : Rt.Snapshot.t option;
}

exception Interrupted of interrupt

type roots =
  | All
  | Pred of (Guarded.State.t -> bool)
  | Seeds of Guarded.State.t list

type region = {
  graph : int Dgraph.Digraph.t;
  node_key : int array;
  terminal : bool array;
  explored : int;
  node_of_key : int -> int;
}

(* Direct-mapped visited tables pay 4 bytes per state of the whole dense
   range up front, so they must both be materializable and not dwarf the
   states the budget lets the search touch. *)
let direct_auto_cap = 1 lsl 28
let direct_hard_cap = 1 lsl 30

let create ?(backend = Eager) ?(max_states = 2_000_000) ?jobs ?pool
    ?(storage = Auto) ?(packed_keys = false) ?(obs = Obs.Ctx.disabled)
    ?(guard = Rt.Guard.inert) ?(snapshots = false) ?(salt = "") env =
  let jobs =
    match (jobs, pool) with
    | Some j, _ when j > 0 -> j
    | Some j, _ -> invalid_arg (Printf.sprintf "Engine.create: jobs must be positive (got %d)" j)
    | None, Some p -> Par.Pool.jobs p
    | None, None -> Par.Pool.default_jobs ()
  in
  match backend with
  | Eager ->
      if packed_keys then
        invalid_arg "Engine.create: packed keys need the lazy or parallel backend";
      let space = Space.create ~max_states env in
      { backend; space; codec = Space.codec space; budget = Space.size space;
        jobs; pool; packed = false; direct = false; obs; guard; snapshots;
        salt; csr = None; last_visited_bytes = 0; last_frontier_bytes = 0 }
  | Lazy | Parallel ->
      let space = Space.create_unbounded env in
      let codec = Space.codec space in
      if packed_keys then Codec.require_packed codec;
      let direct =
        match storage with
        | Probed -> false
        | Direct ->
            if packed_keys then
              invalid_arg "Engine.create: direct storage needs dense keys";
            if Space.size space > direct_hard_cap then
              invalid_arg
                (Printf.sprintf
                   "Engine.create: direct storage needs a dense range of at \
                    most 2^30 slots (space has %d)"
                   (Space.size space));
            true
        | Auto ->
            (not packed_keys)
            && Space.size space <= direct_auto_cap
            && Space.size space / 8 <= max_states
      in
      { backend; space; codec; budget = max_states; jobs; pool;
        packed = packed_keys; direct; obs; guard; snapshots; salt; csr = None;
        last_visited_bytes = 0; last_frontier_bytes = 0 }

let of_space ?(obs = Obs.Ctx.disabled) space =
  { backend = Eager; space; codec = Space.codec space;
    budget = Space.size space; jobs = 1; pool = None; packed = false;
    direct = false; obs; guard = Rt.Guard.inert; snapshots = false; salt = "";
    csr = None; last_visited_bytes = 0; last_frontier_bytes = 0 }

let backend t = t.backend

let backend_name t =
  match t.backend with Eager -> "eager" | Lazy -> "lazy" | Parallel -> "parallel"

let space t = t.space
let codec t = t.codec
let env t = Space.env t.space
let max_states t = t.budget
let jobs t = t.jobs
let pool t = t.pool
let obs t = t.obs
let guard t = t.guard
let wants_snapshots t = t.snapshots
let packed_keys t = t.packed

let sharing_pool t f =
  match (t.backend, t.pool) with
  | Parallel, None ->
      Par.Pool.with_pool ~jobs:t.jobs (fun pool ->
          t.pool <- Some pool;
          Fun.protect ~finally:(fun () -> t.pool <- None) f)
  | _ -> f ()

let storage_name t =
  match t.backend with
  | Eager -> "csr"
  | Lazy | Parallel -> if t.direct then "direct" else "probed"

let storage_bytes t = t.last_visited_bytes + t.last_frontier_bytes

(* --- state keys: how node_key / node_of_key values read --- *)

let encode_key t s =
  if t.packed then Codec.encode_packed t.codec s else Space.encode t.space s

let decode_key_into t key s =
  if t.packed then Codec.decode_packed_into t.codec key s
  else Space.decode_into t.space key s

let decode_key t key =
  let s = State.make (env t) in
  decode_key_into t key s;
  s

(* --- successor stepping ---

   An action writes only the slots in its [Compile.slots], and both key
   layouts are positional, so firing it in place on a decoded state moves
   the key by [(new - old) * place] per written slot. [step] evaluates
   every right-hand side first (a [Domain_violation] leaves the buffer as
   it was), then writes them and records the overwritten values; [undo]
   puts those back. No copy of the state, no re-encode. *)

type stepper = {
  engine : t;
  buf : State.t;
  places : int array;  (* per-slot place value of the engine's keys *)
  mutable key : int;  (* key of the state [load]ed into [buf] *)
  vals : int array;  (* right-hand sides of the action being fired *)
  fired : int array;  (* slots written by the pending step ... *)
  olds : int array;  (* ... and the values they held *)
  mutable n_fired : int;
}

let stepper t =
  let n = Codec.slots t.codec in
  { engine = t; buf = State.make (env t);
    places = Codec.places t.codec ~packed:t.packed; key = 0;
    vals = Array.make n 0; fired = Array.make n 0; olds = Array.make n 0;
    n_fired = 0 }

let stepper_state st = st.buf

let load st key =
  decode_key_into st.engine key st.buf;
  st.key <- key;
  st.n_fired <- 0

let step st (ca : Compile.action) =
  let slots = ca.Compile.slots and rhs = ca.Compile.rhs in
  let n = Array.length slots in
  for k = 0 to n - 1 do
    st.vals.(k) <- rhs.(k) st.buf
  done;
  let key = ref st.key in
  for k = 0 to n - 1 do
    let i = slots.(k) in
    let old = State.get_index st.buf i and v = st.vals.(k) in
    st.fired.(k) <- i;
    st.olds.(k) <- old;
    State.set_index st.buf i v;
    key := !key + ((v - old) * st.places.(i))
  done;
  st.n_fired <- n;
  !key

let undo st =
  for k = st.n_fired - 1 downto 0 do
    State.set_index st.buf st.fired.(k) st.olds.(k)
  done;
  st.n_fired <- 0

let make_visited t =
  let direct =
    match t.backend with
    (* eager engines only need a Flatset for layered searches
       (Faultspan); their space is already bounded, so direct-map it
       whenever the range is materializable *)
    | Eager -> Space.size t.space <= direct_auto_cap
    | Lazy | Parallel -> t.direct
  in
  if direct then Flatset.direct ~size:(Space.size t.space)
  else Flatset.probed ()

let tsys t cp =
  match t.csr with
  | Some (cp', tsys) when cp' == cp -> tsys
  | _ ->
      (* drop the old relation first, so a sweep alternating two programs
         never holds both *)
      t.csr <- None;
      let tsys = Tsys.build ~guard:t.guard cp t.space in
      t.csr <- Some (cp, tsys);
      tsys

(* Growable int array for node keys discovered in order. *)
module Vec = Par.Ivec

(* --- configuration fingerprints for checkpoint files ---

   A snapshot written under one engine configuration must not silently
   resume under another: node numbering depends on the codec layout and
   the key representation, the overflow point on the budget, and the
   explored set on the model itself. The hash folds the engine-shape
   parameters with caller-supplied [parts] (action names, and via [salt]
   the CLI's whole instance/flag spelling). Backend and job count are
   deliberately excluded — resuming lazy checkpoints on the parallel
   backend (and vice versa, at any job count) is part of the
   determinism contract. *)

let config_hash t ~parts =
  let b = Buffer.create 160 in
  Buffer.add_string b t.salt;
  Buffer.add_string b (Format.asprintf "|layout=%a" Codec.pp_layout t.codec);
  Buffer.add_string b
    (Printf.sprintf "|packed=%b|budget=%d" t.packed t.budget);
  List.iter
    (fun p ->
      Buffer.add_char b '|';
      Buffer.add_string b p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let action_names (cp : Compile.program) =
  Array.to_list
    (Array.map
       (fun (ca : Compile.action) -> Guarded.Action.name ca.Compile.source)
       cp.Compile.actions)

(* --- region snapshots ---

   The resumable wavefront of a region search is: member keys in node
   order, non-member keys in discovery order (together they rebuild the
   visited table and the explored count), committed terminals and edges,
   and the pending frontier in FIFO order. The lazy queue at any pop
   boundary and the parallel next-wave at any wave boundary are the same
   FIFO — the E16 equivalence argument applies to any starting queue —
   so one snapshot format resumes on either backend at any job count.
   Edges are bit-packed (src, dst, action) into one word when the widths
   fit, which keeps a 10^7-state checkpoint in the hundreds of MB. *)

let kind_region = "region"

let region_hash t cp = config_hash t ~parts:(kind_region :: action_names cp)

let bits_for n =
  let rec go b = if n <= 1 lsl b then b else go (b + 1) in
  go 1

let build_region_snapshot t cp ~explored ~node_keys ~nonmembers ~terminals
    ~edges ~frontier =
  let n_members = Vec.len node_keys in
  let n_actions = Array.length cp.Compile.actions in
  let n_edges = Edgebuf.length edges in
  let node_bits = bits_for n_members and act_bits = bits_for n_actions in
  let packed = (2 * node_bits) + act_bits <= 62 in
  (* one word per edge when packed, else the (src, dst, action) triples
     interleaved *)
  let edges_arr = Array.make (if packed then n_edges else 3 * n_edges) 0 in
  let j = ref 0 in
  Edgebuf.iter edges (fun s d a ->
      if packed then begin
        edges_arr.(!j) <- (((s lsl node_bits) lor d) lsl act_bits) lor a;
        incr j
      end
      else begin
        edges_arr.(!j) <- s;
        edges_arr.(!j + 1) <- d;
        edges_arr.(!j + 2) <- a;
        j := !j + 3
      end);
  {
    Rt.Snapshot.kind = kind_region;
    config_hash = region_hash t cp;
    meta =
      [
        ("explored", explored);
        ("n_edges", n_edges);
        ("edges_packed", (if packed then 1 else 0));
        ("node_bits", node_bits);
        ("act_bits", act_bits);
      ];
    sections =
      [
        ("members", Vec.to_array node_keys);
        ("nonmembers", Vec.to_array nonmembers);
        ("terminals", Vec.to_array terminals);
        ("frontier", frontier);
        ("edges", edges_arr);
      ];
  }

let check_snapshot_kind ~kind ~hash (snap : Rt.Snapshot.t) =
  if snap.Rt.Snapshot.kind <> kind then
    raise
      (Rt.Snapshot.Corrupt
         (Printf.sprintf
            "snapshot kind %S where %S was expected (written by a different \
             subcommand?)"
            snap.Rt.Snapshot.kind kind));
  if snap.Rt.Snapshot.config_hash <> hash then
    raise
      (Rt.Snapshot.Corrupt
         "config-hash mismatch: this checkpoint was written under a \
          different model or engine configuration")

(* Rebuild search state from a snapshot. [add] binds key -> node in
   whichever visited representation the resuming backend uses; the
   pending frontier is returned for the backend to re-queue. *)
let restore_region t cp snap ~add ~node_keys ~nonmembers ~terminals ~edges =
  check_snapshot_kind ~kind:kind_region ~hash:(region_hash t cp) snap;
  let members = Rt.Snapshot.section snap "members" in
  let nonm = Rt.Snapshot.section snap "nonmembers" in
  let terms = Rt.Snapshot.section snap "terminals" in
  let frontier = Rt.Snapshot.section snap "frontier" in
  let edges_arr = Rt.Snapshot.section snap "edges" in
  let explored = Rt.Snapshot.meta_int snap "explored" in
  if explored <> Array.length members + Array.length nonm then
    raise (Rt.Snapshot.Corrupt "inconsistent explored count");
  Array.iteri
    (fun i key ->
      ignore (Vec.push node_keys key);
      add key i)
    members;
  Array.iter
    (fun key ->
      ignore (Vec.push nonmembers key);
      add key (-1))
    nonm;
  Array.iter (fun v -> ignore (Vec.push terminals v)) terms;
  let n_edges = Rt.Snapshot.meta_int snap "n_edges" in
  if Rt.Snapshot.meta_int snap "edges_packed" = 1 then begin
    let node_bits = Rt.Snapshot.meta_int snap "node_bits" in
    let act_bits = Rt.Snapshot.meta_int snap "act_bits" in
    if node_bits < 1 || act_bits < 1 || (2 * node_bits) + act_bits > 62 then
      raise (Rt.Snapshot.Corrupt "implausible edge packing");
    let nmask = (1 lsl node_bits) - 1 and amask = (1 lsl act_bits) - 1 in
    Array.iter
      (fun w ->
        Edgebuf.push edges
          ((w lsr (act_bits + node_bits)) land nmask)
          ((w lsr act_bits) land nmask)
          (w land amask))
      edges_arr
  end
  else begin
    if Array.length edges_arr mod 3 <> 0 then
      raise (Rt.Snapshot.Corrupt "inconsistent edge count");
    for j = 0 to (Array.length edges_arr / 3) - 1 do
      Edgebuf.push edges
        edges_arr.(3 * j)
        edges_arr.((3 * j) + 1)
        edges_arr.((3 * j) + 2)
    done
  end;
  if Edgebuf.length edges <> n_edges then
    raise (Rt.Snapshot.Corrupt "inconsistent edge count");
  (explored, frontier)

(* --- eager backend: answer from the materialized CSR relation --- *)

let eager_region t cp ~from ~target =
  let space = t.space in
  let ts = tsys t cp in
  let n = Space.size space in
  let reach =
    match from with
    | All -> None (* every state is a root: reachability is the whole space *)
    | Pred p -> Some (Tsys.reachable ts (Space.satisfying space p))
    | Seeds l -> Some (Tsys.reachable ts (List.map (Space.encode space) l))
  in
  let member = Bitset.create n in
  let buf = State.make (Space.env space) in
  let consider id =
    Space.decode_into space id buf;
    if not (target buf) then Bitset.add member id
  in
  (match reach with
  | None -> for id = 0 to n - 1 do consider id done
  | Some r -> Bitset.iter r consider);
  let graph, node_to_state, state_to_node =
    Tsys.region_graph_full ts ~member:(Bitset.mem member)
  in
  {
    graph;
    node_key = node_to_state;
    terminal = Array.map (Tsys.is_terminal ts) node_to_state;
    explored = (match reach with None -> n | Some r -> Bitset.cardinal r);
    node_of_key = state_to_node;
  }

(* --- lazy backend: BFS generating successors on demand --- *)

let check_budget t visited =
  if visited > t.budget then raise (Region_overflow visited)

(* Seed the search with the root states. [visit] classifies a state on
   first sight (assigning it a member node id when the target fails) and
   enqueues it. [All]/[Pred] need a sweep, so they require the space to
   fit the budget; [Seeds] does not. Sweeps run in dense id order — the
   canonical root order — whatever the key representation; under packed
   keys the id is re-encoded from the state buffer. *)
let seed_roots t ~from visit =
  let space = t.space in
  match from with
  | Seeds l -> List.iter (fun s -> visit (encode_key t s) s) l
  | All | Pred _ ->
      check_budget t (Space.size space);
      let p = match from with Pred p -> p | _ -> fun _ -> true in
      if t.packed then
        Space.iter space (fun _ s ->
            if p s then visit (Codec.encode_packed t.codec s) s)
      else Space.iter space (fun id s -> if p s then visit id s)

let finish_region t ~visited_bytes ~frontier_bytes ~node_keys ~terminals
    ~edges ~explored ~node_of_key =
  t.last_visited_bytes <- visited_bytes;
  t.last_frontier_bytes <- frontier_bytes;
  let node_key = Vec.to_array node_keys in
  let n_nodes = Array.length node_key in
  let terminal = Array.make n_nodes false in
  for i = 0 to Vec.len terminals - 1 do
    terminal.(Vec.get terminals i) <- true
  done;
  (* the committed edge blocks go straight into the graph's exact arrays *)
  let graph = Edgebuf.to_graph edges n_nodes in
  { graph; node_key; terminal; explored; node_of_key }

let lazy_region t cp ~from ~target ~resume =
  let actions = cp.Compile.actions in
  let n_actions = Array.length actions in
  let visited = make_visited t in
  let node_keys = Vec.create () in
  let nonmembers = Vec.create () in
  let terminals = Vec.create () in
  let edges = Edgebuf.create () in
  let queue = Flatqueue.create () in
  let explored = ref 0 in
  (* first sighting of [key], known absent from [visited]; returns its
     node id *)
  let visit_new key s =
    incr explored;
    check_budget t !explored;
    let node =
      if target s then begin
        ignore (Vec.push nonmembers key);
        -1
      end
      else Vec.push node_keys key
    in
    Flatset.add visited key node;
    Flatqueue.push queue key;
    node
  in
  (match resume with
  | Some snap ->
      let ex, frontier =
        restore_region t cp snap ~add:(Flatset.add visited) ~node_keys
          ~nonmembers ~terminals ~edges
      in
      explored := ex;
      Array.iter (fun key -> Flatqueue.push queue key) frontier
  | None ->
      seed_roots t ~from (fun key s ->
          if not (Flatset.mem visited key) then ignore (visit_new key s)));
  let st = stepper t in
  let buf = stepper_state st in
  let pops = ref 0 in
  let guard_on = Rt.Guard.active t.guard in
  while not (Flatqueue.is_empty queue) do
    (* cancellation points at chunk granularity, never per state *)
    if guard_on && !pops land 1023 = 0 then begin
      match
        Rt.Guard.poll t.guard ~states:!explored
          ~bytes:(Flatset.bytes visited + Flatqueue.bytes queue)
      with
      | None -> ()
      | Some reason ->
          t.last_visited_bytes <- Flatset.bytes visited;
          t.last_frontier_bytes <- Flatqueue.peak_bytes queue;
          let frontier_size = Flatqueue.length queue in
          let snapshot =
            if not t.snapshots then None
            else begin
              let fr = Array.make frontier_size 0 in
              let i = ref 0 in
              Flatqueue.iter queue (fun k ->
                  fr.(!i) <- k;
                  incr i);
              Some
                (build_region_snapshot t cp ~explored:!explored ~node_keys
                   ~nonmembers ~terminals ~edges ~frontier:fr)
            end
          in
          raise
            (Interrupted
               { reason; states_seen = !explored; frontier_size; snapshot })
    end;
    let key = Flatqueue.pop queue in
    incr pops;
    (* progress checkpoints at chunk granularity, never per state *)
    if Obs.Ctx.enabled t.obs && !pops land 8191 = 0 then
      Obs.Ctx.tick t.obs ~label:"engine.lazy" ~states:!explored
        ~frontier:(Flatqueue.length queue) ();
    load st key;
    let src_node = Flatset.find_def visited key (-2) in
    let out_degree = ref 0 in
    for a = 0 to n_actions - 1 do
      let ca = actions.(a) in
      if ca.Compile.enabled buf then begin
        incr out_degree;
        let dst_key = step st ca in
        (* one probe per successor; [target] reads the stepped buffer *)
        let dst_node =
          let v = Flatset.find_def visited dst_key min_int in
          if v <> min_int then v else visit_new dst_key buf
        in
        undo st;
        if src_node >= 0 && dst_node >= 0 then
          Edgebuf.push edges src_node dst_node a
      end
    done;
    if src_node >= 0 && !out_degree = 0 then ignore (Vec.push terminals src_node)
  done;
  finish_region t ~visited_bytes:(Flatset.bytes visited)
    ~frontier_bytes:(Flatqueue.peak_bytes queue) ~node_keys ~terminals ~edges
    ~explored:!explored
    ~node_of_key:(fun key -> Flatset.find_def visited key (-1))

(* --- parallel backend: level-synchronized BFS over a domain pool ---

   Each level runs in two phases, over bounded blocks of the frontier
   ({!Par.Chunked}). Phase A (parallel, read-only): every frontier state
   is expanded on some worker — decode, evaluate every guard, step each
   enabled action — on a per-worker {!stepper} (the compiled closures are
   pure, so every worker shares the program's); each successor is
   annotated with a probe of the visited table. The table is the
   engine's own {!Flatset} (the same Direct or Probed storage the lazy
   backend uses), and phase A only reads it: a probe mutates nothing, so
   concurrent readers need no lock.
   Phase B (sequential, the only writer): successors are committed in
   frontier order × action order, which is exactly the FIFO order of the
   lazy backend's single queue — so node numbering, edge order, the
   explored count, and the overflow point are all bit-identical to
   [lazy_region] at any job count. *)

(* Phase-A output, per frontier state: one (action, key, tag) triple per
   enabled action, then [-1]. Tags:
   >= -1 : already-visited key carrying its node id (-1 = non-member);
   -2    : unseen at probe time, target fails (member when committed);
   -3    : unseen at probe time, target holds (non-member). *)

let parallel_region t cp ~from ~target ~resume =
  let space = t.space in
  let n_actions = Array.length cp.Compile.actions in
  Par.Pool.use ?pool:t.pool ~jobs:t.jobs @@ fun pool ->
  let actions = cp.Compile.actions in
  let worker_st = Array.init (Par.Pool.jobs pool) (fun _ -> stepper t) in
  let chunks = Par.Chunked.create () in
  let visited = make_visited t in
  let node_keys = Vec.create () in
  let nonmembers = Vec.create () in
  let terminals = Vec.create () in
  let edges = Edgebuf.create () in
  let explored = ref 0 in
  let frontier_peak = ref 0 in
  let cur_keys = Vec.create () and cur_nodes = Vec.create () in
  let next_keys = Vec.create () and next_nodes = Vec.create () in
  let frontier_bytes () =
    Vec.bytes cur_keys + Vec.bytes cur_nodes + Vec.bytes next_keys
    + Vec.bytes next_nodes + Par.Chunked.bytes chunks
  in
  (* First sighting of [key], known absent from [visited]: mirrors the
     lazy backend's [visit] exactly (count, budget check, numbering). *)
  let visit_new key ~member =
    incr explored;
    check_budget t !explored;
    let node =
      if member then Vec.push node_keys key
      else begin
        ignore (Vec.push nonmembers key);
        -1
      end
    in
    Flatset.add visited key node;
    ignore (Vec.push next_keys key);
    ignore (Vec.push next_nodes node);
    node
  in
  (match resume with
  | Some snap ->
      let ex, frontier =
        restore_region t cp snap ~add:(Flatset.add visited) ~node_keys
          ~nonmembers ~terminals ~edges
      in
      explored := ex;
      Array.iter
        (fun key ->
          let node = Flatset.find_def visited key min_int in
          if node = min_int then
            raise (Rt.Snapshot.Corrupt "frontier key missing from visited set");
          ignore (Vec.push next_keys key);
          ignore (Vec.push next_nodes node))
        frontier
  | None ->
      (match from with
      | Seeds l ->
          List.iter
            (fun s ->
              let key = encode_key t s in
              if not (Flatset.mem visited key) then
                ignore (visit_new key ~member:(not (target s))))
            l
      | All | Pred _ ->
          let n = Space.size space in
          check_budget t n;
          let p = match from with Pred p -> p | _ -> fun _ -> true in
          (* classify every id in parallel, then commit in id order; under
             packed keys phase A also records each qualifying id's key, so
             the sequential commit needs no re-decode *)
          let classes = Bytes.make n '\000' in
          let packed_key = if t.packed then Array.make n 0 else [||] in
          Par.Pool.parallel_for pool ~n (fun ~worker lo hi ->
              let buf = stepper_state worker_st.(worker) in
              for id = lo to hi - 1 do
                Space.decode_into space id buf;
                if p buf then begin
                  Bytes.unsafe_set classes id
                    (if target buf then '\002' else '\001');
                  if t.packed then
                    packed_key.(id) <- Codec.encode_packed t.codec buf
                end
              done);
          for id = 0 to n - 1 do
            match Bytes.unsafe_get classes id with
            | '\000' -> ()
            | c ->
                let key = if t.packed then packed_key.(id) else id in
                ignore (visit_new key ~member:(c = '\001'))
          done);
      if Obs.Ctx.enabled t.obs then
        Obs.Ctx.emit t.obs "engine.roots"
          [ ("discovered", Obs.Sink.I !explored) ]);
  let guard_on = Rt.Guard.active t.guard in
  let level = ref 0 in
  (* phase A: expand frontier state [i] into [out] *)
  let expand ~worker out i =
    let st = worker_st.(worker) in
    let buf = stepper_state st in
    load st (Vec.get cur_keys i);
    for a = 0 to n_actions - 1 do
      let ca = actions.(a) in
      if ca.Compile.enabled buf then begin
        let dst_key = step st ca in
        let tag =
          let v = Flatset.find_def visited dst_key min_int in
          if v <> min_int then v else if target buf then -3 else -2
        in
        undo st;
        ignore (Vec.push out a);
        ignore (Vec.push out dst_key);
        ignore (Vec.push out tag)
      end
    done;
    ignore (Vec.push out (-1))
  in
  (* phase B: commit the records of consecutive frontier states; [src]
     is the frontier index of the next record *)
  let src = ref 0 in
  let commit out =
    let p = ref 0 in
    let len = Vec.len out in
    while !p < len do
      let src_node = Vec.get cur_nodes !src in
      let m = ref 0 in
      while Vec.get out !p >= 0 do
        let a = Vec.get out !p in
        let dst_key = Vec.get out (!p + 1) in
        let tag = Vec.get out (!p + 2) in
        p := !p + 3;
        incr m;
        let dst_node =
          if tag >= -1 then tag
          else
            (* the same key may already have been committed earlier in
               this level; only a miss here is a genuine first sighting *)
            let v = Flatset.find_def visited dst_key min_int in
            if v <> min_int then v
            else visit_new dst_key ~member:(tag = -2)
        in
        if src_node >= 0 && dst_node >= 0 then
          Edgebuf.push edges src_node dst_node a
      done;
      incr p;
      if src_node >= 0 && !m = 0 then ignore (Vec.push terminals src_node);
      incr src
    done
  in
  while Vec.len next_keys > 0 do
    (* cancellation point at the wave boundary: the pending next wave is
       exactly the lazy queue's remaining FIFO, so the snapshot format is
       shared with the lazy backend *)
    (if guard_on then
       match
         Rt.Guard.poll t.guard ~states:!explored
           ~bytes:(Flatset.bytes visited + frontier_bytes ())
       with
       | None -> ()
       | Some reason ->
           t.last_visited_bytes <- Flatset.bytes visited;
           t.last_frontier_bytes <- max !frontier_peak (frontier_bytes ());
           let frontier_size = Vec.len next_keys in
           let snapshot =
             if not t.snapshots then None
             else
               Some
                 (build_region_snapshot t cp ~explored:!explored ~node_keys
                    ~nonmembers ~terminals ~edges
                    ~frontier:(Vec.to_array next_keys))
           in
           raise
             (Interrupted
                { reason; states_seen = !explored; frontier_size; snapshot }));
    Vec.swap cur_keys next_keys;
    Vec.swap cur_nodes next_nodes;
    Vec.clear next_keys;
    Vec.clear next_nodes;
    let len = Vec.len cur_keys in
    let explored_before = !explored in
    src := 0;
    Par.Chunked.round chunks pool ~n:len ~expand ~commit;
    let fb = frontier_bytes () in
    if fb > !frontier_peak then frontier_peak := fb;
    if Obs.Ctx.enabled t.obs then begin
      Obs.Metrics.incr (Obs.Ctx.counter t.obs "engine.waves");
      Obs.Ctx.emit t.obs "engine.wave"
        [
          ("level", Obs.Sink.I !level);
          ("frontier", Obs.Sink.I len);
          ("discovered", Obs.Sink.I (!explored - explored_before));
        ];
      Obs.Ctx.tick t.obs ~label:"engine.parallel" ~states:!explored
        ~frontier:(Vec.len next_keys) ~depth:!level ()
    end;
    incr level
  done;
  finish_region t ~visited_bytes:(Flatset.bytes visited)
    ~frontier_bytes:!frontier_peak ~node_keys ~terminals ~edges
    ~explored:!explored
    ~node_of_key:(fun key -> Flatset.find_def visited key (-1))

let dispatch_region t cp ~from ~target ~resume =
  match t.backend with
  | Eager -> (
      (match resume with
      | Some _ ->
          raise
            (Rt.Snapshot.Corrupt
               "the eager backend cannot resume checkpoints (use the lazy \
                or parallel backend)")
      | None -> ());
      try eager_region t cp ~from ~target
      with Rt.Cancel.Cancelled reason ->
        (* the CSR build has no resumable wavefront; the partial relation
           is discarded *)
        raise
          (Interrupted
             { reason; states_seen = 0; frontier_size = 0; snapshot = None }))
  | Lazy -> lazy_region t cp ~from ~target ~resume
  | Parallel -> parallel_region t cp ~from ~target ~resume

(* Every backend funnels through here, so the reconciliation invariant
   holds uniformly: the [engine.states_discovered] counter equals the sum
   of the [explored] fields over all [engine.region] events. *)
let region ?resume t cp ~from ~target =
  if not (Obs.Ctx.enabled t.obs) then dispatch_region t cp ~from ~target ~resume
  else begin
    let r =
      Obs.Ctx.time t.obs "engine.region" (fun () ->
          dispatch_region t cp ~from ~target ~resume)
    in
    let nodes = Array.length r.node_key in
    let edges = Dgraph.Digraph.edge_count r.graph in
    Obs.Metrics.incr (Obs.Ctx.counter t.obs "engine.regions");
    Obs.Metrics.add (Obs.Ctx.counter t.obs "engine.states_discovered")
      r.explored;
    Obs.Metrics.add (Obs.Ctx.counter t.obs "engine.region_nodes") nodes;
    Obs.Metrics.add (Obs.Ctx.counter t.obs "engine.region_edges") edges;
    (* the region graph as handed back: edge arrays only, no index yet
       (reported beside storage_bytes, never counted against budgets) *)
    Obs.Metrics.set_max
      (Obs.Ctx.gauge t.obs "engine.graph_bytes")
      (Dgraph.Digraph.bytes r.graph);
    (* storage gauges are set post-hoc from totals, so they are as
       job-count-invariant as the search itself *)
    if t.last_visited_bytes > 0 then begin
      Obs.Metrics.set_max
        (Obs.Ctx.gauge t.obs "engine.visited_bytes")
        t.last_visited_bytes;
      Obs.Metrics.set_max
        (Obs.Ctx.gauge t.obs "engine.frontier_peak_bytes")
        t.last_frontier_bytes
    end;
    Obs.Ctx.emit t.obs "engine.region"
      [
        ("backend", Obs.Sink.S (backend_name t));
        ("explored", Obs.Sink.I r.explored);
        ("nodes", Obs.Sink.I nodes);
        ("edges", Obs.Sink.I edges);
      ];
    Obs.Ctx.finish_progress t.obs
      ~label:("engine." ^ backend_name t)
      ~states:r.explored;
    r
  end

let state_of_node t region v = decode_key t region.node_key.(v)

let iter_states t f =
  (match t.backend with
  | Eager -> ()
  | Lazy | Parallel -> check_budget t (Space.size t.space));
  Space.iter t.space (fun _ s -> f s)

let iter_reachable t cp ~from f =
  match from with
  | All -> iter_states t f
  | Pred _ | Seeds _ ->
      let actions = cp.Compile.actions in
      let visited = make_visited t in
      let queue = Flatqueue.create () in
      let explored = ref 0 in
      let visit key =
        if not (Flatset.mem visited key) then begin
          incr explored;
          check_budget t !explored;
          Flatset.add visited key 0;
          Flatqueue.push queue key
        end
      in
      seed_roots t ~from (fun key _ -> visit key);
      let st = stepper t in
      let buf = stepper_state st in
      let guard_on = Rt.Guard.active t.guard in
      let pops = ref 0 in
      while not (Flatqueue.is_empty queue) do
        (if guard_on && !pops land 1023 = 0 then
           match
             Rt.Guard.poll t.guard ~states:!explored
               ~bytes:(Flatset.bytes visited + Flatqueue.bytes queue)
           with
           | None -> ()
           | Some reason ->
               raise
                 (Interrupted
                    {
                      reason;
                      states_seen = !explored;
                      frontier_size = Flatqueue.length queue;
                      snapshot = None;
                    }));
        let key = Flatqueue.pop queue in
        incr pops;
        load st key;
        f buf;
        Array.iter
          (fun (ca : Compile.action) ->
            if ca.enabled buf then begin
              visit (step st ca);
              undo st
            end)
          actions
      done;
      t.last_visited_bytes <- Flatset.bytes visited;
      t.last_frontier_bytes <- Flatqueue.peak_bytes queue

let ball env ~center ~radius =
  let vars = Env.vars env in
  let n = Array.length vars in
  let acc = ref [] in
  let s = State.copy center in
  let rec go i remaining =
    if i = n then acc := State.copy s :: !acc
    else begin
      go (i + 1) remaining;
      if remaining > 0 then begin
        let d = Var.domain vars.(i) in
        let low =
          match d with
          | Domain.Range { lo; _ } -> lo
          | Domain.Bool | Domain.Enum _ -> 0
        in
        let center_value = State.get_index s i in
        for v = low to low + Domain.size d - 1 do
          if v <> center_value then begin
            State.set_index s i v;
            go (i + 1) (remaining - 1)
          end
        done;
        State.set_index s i center_value
      end
    end
  in
  go 0 radius;
  List.rev !acc
