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
  direct : bool;  (* visited sets are direct-mapped over the dense range *)
  obs : Obs.Ctx.t;
  guard : Rt.Guard.t;  (* cooperative budget/cancellation polling point *)
  snapshots : bool;  (* build a resumable snapshot when interrupted *)
  salt : string;  (* caller context folded into config hashes *)
  mutable csr : Tsys.t list;
      (* The eager relations kept for reuse, most recently used first, at
         most [csr_keep]; see [tsys]. *)
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
    ?(storage = Auto) ?(obs = Obs.Ctx.disabled)
    ?(guard = Rt.Guard.inert) ?(snapshots = false) ?(salt = "") env =
  let jobs =
    match (jobs, pool) with
    | Some j, _ when j > 0 -> j
    | Some j, _ -> invalid_arg (Printf.sprintf "Engine.create: jobs must be positive (got %d)" j)
    | None, Some p -> Par.Pool.jobs p
    | None, None -> Par.Pool.default_jobs ()
  in
  (* past 2^60 states no key exists: refuse in the codec's terms, not as
     a budget that a larger --max-states could lift *)
  let codec = Codec.of_env env in
  Codec.require_dense codec;
  match backend with
  | Eager ->
      (* nor past 2^31 - 1, where no int32 CSR destination exists *)
      Tsys.require_fits codec;
      let space = Space.of_codec ~max_states codec in
      { backend; space; codec; budget = Space.size space;
        jobs; pool; direct = false; obs; guard; snapshots; salt; csr = [];
        last_visited_bytes = 0; last_frontier_bytes = 0 }
  | Lazy | Parallel ->
      let space = Space.of_codec ~max_states:Space.encodable_max codec in
      let direct =
        match storage with
        | Probed -> false
        | Direct ->
            if Space.size space > direct_hard_cap then
              invalid_arg
                (Printf.sprintf
                   "Engine.create: direct storage needs a dense range of at \
                    most 2^30 slots (space has %d)"
                   (Space.size space));
            true
        | Auto ->
            Space.size space <= direct_auto_cap
            && Space.size space / 8 <= max_states
      in
      { backend; space; codec; budget = max_states; jobs; pool; direct; obs;
        guard; snapshots; salt; csr = []; last_visited_bytes = 0;
        last_frontier_bytes = 0 }

let of_space ?(obs = Obs.Ctx.disabled) space =
  { backend = Eager; space; codec = Space.codec space;
    budget = Space.size space; jobs = 1; pool = None; direct = false; obs;
    guard = Rt.Guard.inert; snapshots = false; salt = ""; csr = [];
    last_visited_bytes = 0; last_frontier_bytes = 0 }

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

let sharing_pool t f =
  match (t.backend, t.pool) with
  | Parallel, None ->
      Par.Pool.with_pool ~jobs:t.jobs (fun pool ->
          t.pool <- Some pool;
          Fun.protect ~finally:(fun () -> t.pool <- None) f)
  | _ -> f ()

let with_workers t f =
  match t.backend with
  | Parallel -> Par.Pool.use ?pool:t.pool ~jobs:t.jobs f
  | Eager | Lazy -> Par.Pool.with_pool ~jobs:1 f

let storage_name t =
  match t.backend with
  | Eager -> "csr"
  | Lazy | Parallel -> if t.direct then "direct" else "probed"

let storage_bytes t = t.last_visited_bytes + t.last_frontier_bytes

(* --- state keys: how node_key / node_of_key values read --- *)

let encode_key t s = Space.encode t.space s
let decode_key_into t key s = Space.decode_into t.space key s

let decode_key t key =
  let s = State.make (env t) in
  decode_key_into t key s;
  s

(* --- successor stepping ---

   An action writes only the slots in its [Compile.slots], and the key
   layout is positional, so firing it in place on a decoded state moves
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
    places = Codec.places t.codec; key = 0;
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

(* The one cooperative stop point: every search, sweep and analysis
   polls the guard here. *)
let poll ?snapshot t ~states ~bytes ~frontier =
  match Rt.Guard.poll t.guard ~states ~bytes with
  | None -> ()
  | Some reason ->
      let snapshot =
        if t.snapshots then Option.map (fun f -> f ()) snapshot else None
      in
      raise
        (Interrupted
           { reason; states_seen = states; frontier_size = frontier; snapshot })

(* An analysis runs after its search has answered to the state and byte
   ceilings, so it polls with no live counts: only cancellation and the
   deadline stop it. Its interrupt reports the search's [explored]. *)
let analysis_poll t ~explored =
  if not (Rt.Guard.active t.guard) then None
  else
    Some
      (fun () ->
        try poll t ~states:0 ~bytes:0 ~frontier:0
        with Interrupted i ->
          raise (Interrupted { i with states_seen = explored }))

(* The eager relation of [cp], built at most once per program while it
   stays among the [csr_keep] most recently used. A relation serves every
   compiled program with the same action sources, physically equal and in
   the same order: a tolerance sweep recompiles the program and program ∪
   faults at each budget, and builds each once. The least recently used
   relation is dropped before a build, whose guard counts the one kept. *)
let csr_keep = 2

let same_sources (a : Compile.program) (b : Compile.program) =
  Array.length a.actions = Array.length b.actions
  && Array.for_all2
       (fun (x : Compile.action) (y : Compile.action) -> x.source == y.source)
       a.actions b.actions

let tsys t cp =
  match List.partition (fun ts -> same_sources (Tsys.program ts) cp) t.csr with
  | ts :: _, rest ->
      t.csr <- ts :: rest;
      ts
  | [], older ->
      let kept = List.filteri (fun i _ -> i < csr_keep - 1) older in
      t.csr <- kept;
      let resident = List.fold_left (fun b ts -> b + Tsys.bytes ts) 0 kept in
      let poll ~states ~bytes = poll t ~states ~bytes ~frontier:0 in
      let ts = Tsys.build ~poll ~resident cp t.space in
      t.csr <- ts :: kept;
      if Obs.Ctx.enabled t.obs then begin
        Obs.Metrics.incr (Obs.Ctx.counter t.obs "engine.csr_builds");
        Obs.Metrics.set_max
          (Obs.Ctx.gauge t.obs "engine.csr_bytes")
          (resident + Tsys.bytes ts)
      end;
      ts

(* Growable int array for node keys discovered in order. *)
module Vec = Par.Ivec

(* --- configuration fingerprints for checkpoint files ---

   A snapshot written under one engine configuration must not silently
   resume under another: node numbering depends on the codec layout,
   the overflow point on the budget, and the
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
  (* keys are always dense; the [packed=false] literal stays in the
     hashed text so checkpoints written before that still resume *)
  Buffer.add_string b (Printf.sprintf "|packed=false|budget=%d" t.budget);
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
   and the pending frontier in FIFO order: the rest of the current wave
   followed by the next one. The E16 equivalence argument applies to any
   starting queue, so one snapshot format resumes on either backend at
   any job count.
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
  (* a search commits edges grouped by source, so a snapshot whose
     sources decrease (or leave the member nodes) was not written by one *)
  let n_members = Array.length members in
  let last_src = ref 0 in
  let push s d a =
    if s < !last_src || s >= n_members || d < 0 || d >= n_members then
      raise (Rt.Snapshot.Corrupt "edges out of order or out of range");
    last_src := s;
    Edgebuf.push edges s d a
  in
  if Rt.Snapshot.meta_int snap "edges_packed" = 1 then begin
    let node_bits = Rt.Snapshot.meta_int snap "node_bits" in
    let act_bits = Rt.Snapshot.meta_int snap "act_bits" in
    if node_bits < 1 || act_bits < 1 || (2 * node_bits) + act_bits > 62 then
      raise (Rt.Snapshot.Corrupt "implausible edge packing");
    let nmask = (1 lsl node_bits) - 1 and amask = (1 lsl act_bits) - 1 in
    Array.iter
      (fun w ->
        push
          ((w lsr (act_bits + node_bits)) land nmask)
          ((w lsr act_bits) land nmask)
          (w land amask))
      edges_arr
  end
  else begin
    if Array.length edges_arr mod 3 <> 0 then
      raise (Rt.Snapshot.Corrupt "inconsistent edge count");
    for j = 0 to (Array.length edges_arr / 3) - 1 do
      push
        edges_arr.(3 * j)
        edges_arr.((3 * j) + 1)
        edges_arr.((3 * j) + 2)
    done
  end;
  if Edgebuf.length edges <> n_edges then
    raise (Rt.Snapshot.Corrupt "inconsistent edge count");
  (explored, frontier)

(* --- shared by the frontier searches --- *)

let check_budget t visited =
  if visited > t.budget then raise (Region_overflow visited)

(* The one root sweep of every frontier search: lazy and parallel
   regions, fault spans and [iter_reachable]. [All]/[Pred] need a sweep,
   so they require the space to fit the budget; [Seeds] does not. *)
let seed_roots ?pool ?(target = fun _ -> false) t ~from ~mem add =
  let space = t.space in
  match from with
  | Seeds l ->
      List.iter
        (fun s ->
          let key = Space.encode space s in
          if not (mem key) then add key (not (target s)))
        l
  | All | Pred _ -> (
      let n = Space.size space in
      check_budget t n;
      let p = match from with Pred p -> p | _ -> fun _ -> true in
      match pool with
      | Some pool when Par.Pool.jobs pool > 1 ->
          (* classify every id on the pool, then commit in id order; each
             chunk decodes into a buffer its own domain allocates, so no
             two workers write one cache line *)
          let classes = Bytes.make n '\000' in
          Par.Pool.parallel_for pool ~n (fun ~worker:_ lo hi ->
              let buf = State.make (env t) in
              for id = lo to hi - 1 do
                Space.decode_into space id buf;
                if p buf then
                  Bytes.unsafe_set classes id
                    (if target buf then '\002' else '\001')
              done);
          for id = 0 to n - 1 do
            match Bytes.unsafe_get classes id with
            | '\000' -> ()
            | c -> add id (c = '\001')
          done
      | _ -> Space.iter space (fun id s -> if p s then add id (not (target s))))

(* --- eager backend: the same walk over the materialized relation --- *)

let eager_region t cp ~from ~target =
  let ts = tsys t cp in
  let buf = State.make (env t) in
  (* past the build, the walk answers to cancellation and the deadline
     only, reporting the ids the build covered *)
  let poll = analysis_poll t ~explored:(Tsys.state_count ts) in
  let graph, node_key, explored, node_of_key =
    Tsys.region ?poll ts
      ~roots:(fun ~seen add -> seed_roots ~target t ~from ~mem:seen add)
      ~member:(fun id ->
        Space.decode_into t.space id buf;
        not (target buf))
  in
  let terminal = Array.map (Tsys.is_terminal ts) node_key in
  { graph; node_key; terminal; explored; node_of_key }

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
  (* the committed edge blocks go straight into the graph's exact arrays;
     past the search's last poll, so only the analysis poll applies *)
  let poll = analysis_poll t ~explored in
  let graph = Edgebuf.to_graph ?poll edges n_nodes in
  { graph; node_key; terminal; explored; node_of_key }

(* --- the frontier kernel: one FIFO search ---

   Every lazy and parallel region search runs here. States are
   committed in FIFO order — each frontier state's successors in action
   order, the frontier states in the order they were discovered — so
   node numbering, edge order, the explored count and the overflow point
   depend on neither the worker count nor the scheduling.

   At one worker (the lazy backend, and the parallel one at [jobs = 1])
   the frontier is a {!Flatqueue} of keys, and each successor is
   committed as soon as it is stepped: one probe of the visited table,
   [visit_new] on a miss, then the edge. [target] runs once per
   discovered state.

   At more workers the frontier is the current BFS wave and the next
   one, keys and node ids, and each wave runs in two phases over bounded
   blocks ({!Par.Chunked}). Phase A (parallel, read-only): each frontier
   state is expanded on some worker's {!stepper} (the compiled closures
   are pure, so every worker shares the program's) and each successor
   annotated with a probe of the engine's own {!Flatset}, which phase A
   only reads, so no probe takes a lock. Phase B (sequential, the only
   writer) commits the records in frontier order.

   The guard is polled every 1024 committed states, before the state's
   commit: the pending work is then the queue, or the rest of the wave
   followed by the next wave — the same FIFO — so one snapshot format
   resumes on either backend at any job count, and a state budget cuts
   at the same state at every job count. BFS levels are counted: the
   next level ends after the states discovered during this one. *)

(* Phase-A output, per frontier state: two words per enabled action —
   the successor's key, then [((tag + 3) lsl abits) lor action] — and
   then [-1] (keys are non-negative). Tags:
   >= -1 : already-visited key carrying its node id (-1 = non-member);
   -2    : unseen at probe time, target fails (member when committed);
   -3    : unseen at probe time, target holds (non-member). *)

let fifo_region t cp ~from ~target ~resume pool =
  let actions = cp.Compile.actions in
  let n_actions = Array.length actions in
  let abits = bits_for n_actions in
  let amask = (1 lsl abits) - 1 in
  let workers = match pool with Some p -> Par.Pool.jobs p | None -> 1 in
  let worker_st = Array.init workers (fun _ -> stepper t) in
  let chunks = Par.Chunked.create () in
  let visited = make_visited t in
  let node_keys = Vec.create () in
  let nonmembers = Vec.create () in
  let terminals = Vec.create () in
  let edges = Edgebuf.create () in
  let explored = ref 0 in
  (* the frontier: the queue at one worker, the two waves at more (where
     the queue stays empty, so it gets no full-size chunk) *)
  let queue =
    Flatqueue.create ?chunk:(if workers = 1 then None else Some 1) ()
  in
  let cur_keys = Vec.create () and cur_nodes = Vec.create () in
  let next_keys = Vec.create () and next_nodes = Vec.create () in
  let enqueue key node =
    if workers = 1 then Flatqueue.push queue key
    else begin
      ignore (Vec.push next_keys key);
      ignore (Vec.push next_nodes node)
    end
  in
  let pending () = Flatqueue.length queue + Vec.len next_keys in
  let frontier_bytes () =
    Flatqueue.bytes queue + Vec.bytes cur_keys + Vec.bytes cur_nodes
    + Vec.bytes next_keys + Vec.bytes next_nodes + Par.Chunked.bytes chunks
  in
  (* the queue reports its own high-water mark; vectors never shrink *)
  let frontier_peak () =
    frontier_bytes () - Flatqueue.bytes queue + Flatqueue.peak_bytes queue
  in
  (* first sighting of [key], known absent from [visited]; returns its
     node id *)
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
    enqueue key node;
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
          enqueue key node)
        frontier
  | None ->
      seed_roots ?pool ~target t ~from ~mem:(Flatset.mem visited)
        (fun key member -> ignore (visit_new key ~member));
      if Obs.Ctx.enabled t.obs then
        Obs.Ctx.emit t.obs "engine.roots"
          [ ("discovered", Obs.Sink.I !explored) ]);
  let guard_on = Rt.Guard.active t.guard in
  let obs_on = Obs.Ctx.enabled t.obs in
  let label = "engine." ^ backend_name t in
  (* states committed so far; the current level ends when [pops]
     reaches [level_end], and began at [level_start] with [explored] at
     [explored_at] *)
  let pops = ref 0 in
  let level = ref 0 in
  let level_start = ref 0 and level_end = ref (pending ()) in
  let explored_at = ref !explored in
  (* the guard and progress point before committing the state at the
     queue's front, or at [cur_keys.(i)] *)
  let checkpoint i =
    let rest = Vec.len cur_keys - i in
    let frontier_size = rest + pending () in
    if obs_on then
      Obs.Ctx.tick t.obs ~label ~states:!explored ~frontier:frontier_size
        ~depth:!level ();
    if guard_on then
      poll t ~states:!explored
        ~bytes:(Flatset.bytes visited + frontier_bytes ())
        ~frontier:frontier_size
        ~snapshot:(fun () ->
          let frontier = Array.make frontier_size 0 in
          let j = ref 0 in
          let add k =
            frontier.(!j) <- k;
            incr j
          in
          for j = i to Vec.len cur_keys - 1 do
            add (Vec.get cur_keys j)
          done;
          Flatqueue.iter queue add;
          for j = 0 to Vec.len next_keys - 1 do
            add (Vec.get next_keys j)
          done;
          build_region_snapshot t cp ~explored:!explored ~node_keys
            ~nonmembers ~terminals ~edges ~frontier)
  in
  let checks = guard_on || obs_on in
  let begin_state i = if checks && !pops land 1023 = 0 then checkpoint i in
  let end_state src_node out_degree =
    if src_node >= 0 && out_degree = 0 then ignore (Vec.push terminals src_node);
    incr pops;
    if !pops = !level_end then begin
      if obs_on then begin
        Obs.Metrics.incr (Obs.Ctx.counter t.obs "engine.waves");
        Obs.Ctx.emit t.obs "engine.wave"
          [
            ("level", Obs.Sink.I !level);
            ("frontier", Obs.Sink.I (!level_end - !level_start));
            ("discovered", Obs.Sink.I (!explored - !explored_at));
          ]
      end;
      incr level;
      level_start := !level_end;
      level_end := !level_end + (!explored - !explored_at);
      explored_at := !explored
    end
  in
  (* one worker: take the queue's front state, expanding and committing
     as it goes *)
  let expand_commit () =
    begin_state 0;
    let st = worker_st.(0) in
    let buf = stepper_state st in
    let key = Flatqueue.pop queue in
    let src_node = Flatset.find_def visited key (-1) in
    load st key;
    let out_degree = ref 0 in
    for a = 0 to n_actions - 1 do
      let ca = actions.(a) in
      if ca.Compile.enabled buf then begin
        incr out_degree;
        let dst_key = step st ca in
        (* one probe per successor; [target] reads the stepped buffer *)
        let dst_node =
          let v = Flatset.find_def visited dst_key min_int in
          if v <> min_int then v
          else visit_new dst_key ~member:(not (target buf))
        in
        undo st;
        if src_node >= 0 && dst_node >= 0 then
          Edgebuf.push edges src_node dst_node a
      end
    done;
    end_state src_node !out_degree
  in
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
        ignore (Vec.push out dst_key);
        ignore (Vec.push out (((tag + 3) lsl abits) lor a))
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
      begin_state !src;
      let src_node = Vec.get cur_nodes !src in
      let m = ref 0 in
      while Vec.get out !p >= 0 do
        let dst_key = Vec.get out !p in
        let w = Vec.get out (!p + 1) in
        p := !p + 2;
        incr m;
        let tag = (w lsr abits) - 3 in
        let dst_node =
          if tag >= -1 then tag
          else
            (* the same key may already have been committed earlier in
               this wave; only a miss here is a genuine first sighting *)
            let v = Flatset.find_def visited dst_key min_int in
            if v <> min_int then v
            else visit_new dst_key ~member:(tag = -2)
        in
        if src_node >= 0 && dst_node >= 0 then
          Edgebuf.push edges src_node dst_node (w land amask)
      done;
      incr p;
      end_state src_node !m;
      incr src
    done
  in
  (match pool with
  | None ->
      while not (Flatqueue.is_empty queue) do
        expand_commit ()
      done
  | Some pool ->
      while Vec.len next_keys > 0 do
        Vec.swap cur_keys next_keys;
        Vec.swap cur_nodes next_nodes;
        Vec.clear next_keys;
        Vec.clear next_nodes;
        src := 0;
        Par.Chunked.round chunks pool ~n:(Vec.len cur_keys) ~expand ~commit
      done);
  finish_region t ~visited_bytes:(Flatset.bytes visited)
    ~frontier_bytes:(frontier_peak ()) ~node_keys ~terminals ~edges
    ~explored:!explored
    ~node_of_key:(fun key -> Flatset.find_def visited key (-1))

(* The lazy backend is the kernel at one worker and never starts a
   pool; the parallel one borrows or spawns a pool unless it too has a
   single worker. *)
let frontier_region t cp ~from ~target ~resume =
  let workers =
    match (t.backend, t.pool) with
    | Parallel, Some p -> Par.Pool.jobs p
    | Parallel, None -> t.jobs
    | _ -> 1
  in
  if workers = 1 then fifo_region t cp ~from ~target ~resume None
  else
    Par.Pool.use ?pool:t.pool ~jobs:t.jobs (fun pool ->
        fifo_region t cp ~from ~target ~resume (Some pool))

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
      eager_region t cp ~from ~target)
  | Lazy | Parallel -> frontier_region t cp ~from ~target ~resume

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

(* --- the sweep ---

   A slice's chunks fold in chunk order after the join, so the caller
   sees the same chunk results at every job count. Each worker makes
   its stepper and scratch on first use, in its own domain; a chunk of
   the whole space decodes its first id and steps the odometer on. *)

type domain = Whole_space | Keys of int * (int -> int)

let sweep t over ~scratch ~visit ~empty ~fold ~stop init =
  let n =
    match over with
    | Keys (n, _) -> n
    | Whole_space ->
        if t.backend <> Eager then check_budget t (Space.size t.space);
        Space.size t.space
  in
  with_workers t @@ fun pool ->
  let own = Array.make (Par.Pool.jobs pool) None in
  let chunk ~worker lo hi =
    if Option.is_none own.(worker) then
      own.(worker) <- Some (stepper t, scratch ());
    let st, w = Option.get own.(worker) in
    let acc = ref empty in
    for i = lo to hi - 1 do
      (match over with
      | Keys (_, key) -> load st (key i)
      | Whole_space when i = lo -> load st i
      | Whole_space ->
          Codec.next_into t.codec st.buf;
          st.key <- i);
      acc := visit w st i !acc
    done;
    !acc
  in
  let slice = 1024 * Par.Pool.jobs pool in
  let rec go lo acc =
    if lo >= n || stop acc then acc
    else begin
      poll t ~states:lo ~bytes:0 ~frontier:0;
      go (lo + slice)
        (Par.Pool.map_reduce pool ~n:(min slice (n - lo))
           ~map:(fun ~worker a b -> chunk ~worker (lo + a) (lo + b))
           fold acc)
    end
  in
  go 0 init

let iter_reachable t cp ~from f =
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
  seed_roots t ~from ~mem:(Flatset.mem visited) (fun key _ -> visit key);
  let st = stepper t in
  let buf = stepper_state st in
  let pops = ref 0 in
  while not (Flatqueue.is_empty queue) do
    if !pops land 1023 = 0 then
      poll t ~states:!explored
        ~bytes:(Flatset.bytes visited + Flatqueue.bytes queue)
        ~frontier:(Flatqueue.length queue);
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
