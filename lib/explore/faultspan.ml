module State = Guarded.State
module Compile = Guarded.Compile
module Vec = Par.Ivec

(* One layered search, extended budget by budget. Layer [d] holds the
   states whose cheapest derivation from the roots uses exactly [d]
   fault steps. Keys are discovered in nondecreasing depth order — the
   fault phase of layer [d] appends depth [d + 1], and the closure of
   layer [d + 1] appends more of it — so [keys] is at once the member
   list, every layer's closure FIFO (its unexpanded suffix) and the
   layer boundaries' source of truth; the span at budget [b] is the
   prefix ending with layer [b]. *)
type search = {
  engine : Engine.t;
  program : Compile.program option;
  envs : Compile.program option;
  faults : Compile.program;
  closure_actions : Compile.action array;
      (* program then environment: 0-cost edges that never consume budget *)
  keys : Vec.t;  (* discovery order *)
  index : Flatset.t;  (* key -> discovery index *)
  bounds : Vec.t;
      (* [bounds.(d)]: discovery index of the first depth-[d] key, for
         [d <= level] — and [level + 1] once that layer's fault phase
         has begun *)
  mutable roots : int;
  mutable level : int;  (* the layer being closed or last closed *)
  mutable cursor : int;  (* next key of layer [level] to expand *)
  mutable closed : bool;  (* layer [level]'s closure is complete *)
  mutable fault_done : int;
      (* members of layer [level] already fault-expanded, in processing
         (reverse discovery) order *)
  mutable saturated : bool;  (* layer [level]'s faults reached nothing new *)
  mutable busy : bool;  (* an extension is running, or stopped by a raise *)
  mutable seen : int;  (* keys at the last [faultspan.layer] event *)
  mutable reported : int;  (* keys already added to [faultspan.states] *)
}

(* A span: the first [count] keys, layers [0 .. max_depth]. *)
type t = { search : search; count : int; max_depth : int }

let count t = t.count
let root_count t = t.search.roots
let max_depth t = t.max_depth

(* End of layer [d] within the span. *)
let layer_end t d =
  if d = t.max_depth then t.count else Vec.get t.search.bounds (d + 1)

let depth_histogram t =
  Array.init (t.max_depth + 1) (fun d ->
      layer_end t d - Vec.get t.search.bounds d)

(* Layer of the key at discovery index [i]: the last [d <= top] whose
   layer starts at or before [i]. *)
let depth_of_index s ~top i =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if Vec.get s.bounds mid <= i then go mid hi else go lo (mid - 1)
  in
  go 0 top

let find t key =
  let i = Flatset.find_def t.search.index key (-1) in
  if i < t.count then i else -1

let mem_key t key = find t key >= 0

let mem t s =
  match Engine.encode_key t.search.engine s with
  | key -> mem_key t key
  | exception Invalid_argument _ -> false

let depth t s =
  match Engine.encode_key t.search.engine s with
  | key ->
      let i = find t key in
      if i < 0 then None else Some (depth_of_index t.search ~top:t.max_depth i)
  | exception Invalid_argument _ -> None

(* Members in reverse discovery order — the order [iter] has always
   used (the seed implementation consed keys onto a list), which
   certification output and tests pin down. *)
let iter t f =
  let engine = t.search.engine in
  let buf = State.make (Engine.env engine) in
  for i = t.count - 1 downto 0 do
    Engine.decode_key_into engine (Vec.get t.search.keys i) buf;
    f buf
  done

let nth_key t i = Vec.get t.search.keys (t.count - 1 - i)

let index_key t key =
  let i = find t key in
  if i < 0 then -1 else t.count - 1 - i

let decode_nth_into t i buf =
  Engine.decode_key_into t.search.engine (nth_key t i) buf

let states t =
  List.init t.count (fun i ->
      Engine.decode_key t.search.engine (Vec.get t.search.keys i))

(* Shared observability hooks: one [faultspan.layer] event per layer, as
   its closure completes, and one [faultspan.done] per span handed out;
   the [faultspan.states] counter sees each state once per search. Layer
   structure is bit-identical at every worker count, so the event stream
   is too. *)
let obs_layer s =
  let obs = Engine.obs s.engine in
  let total = Vec.len s.keys in
  if Obs.Ctx.enabled obs then begin
    Obs.Metrics.incr (Obs.Ctx.counter obs "faultspan.layers");
    Obs.Ctx.emit obs "faultspan.layer"
      [
        ("layer", Obs.Sink.I s.level);
        ("members", Obs.Sink.I (total - Vec.get s.bounds s.level));
        ("discovered", Obs.Sink.I (total - s.seen));
        ("total", Obs.Sink.I total);
      ];
    Obs.Ctx.tick obs ~label:"faultspan" ~states:total ~depth:s.level ()
  end;
  s.seen <- total

let obs_done t =
  let s = t.search in
  let obs = Engine.obs s.engine in
  if Obs.Ctx.enabled obs then begin
    let total = Vec.len s.keys in
    Obs.Metrics.incr (Obs.Ctx.counter obs "faultspan.spans");
    Obs.Metrics.add (Obs.Ctx.counter obs "faultspan.states") (total - s.reported);
    Obs.Metrics.set_max (Obs.Ctx.gauge obs "faultspan.max_depth") t.max_depth;
    Obs.Ctx.emit obs "faultspan.done"
      [
        ("states", Obs.Sink.I t.count);
        ("roots", Obs.Sink.I s.roots);
        ("max_depth", Obs.Sink.I t.max_depth);
      ];
    Obs.Ctx.finish_progress obs ~label:"faultspan" ~states:t.count;
    s.reported <- total
  end

(* First sighting of [key] appends it to the layer being built. *)
let visit s key =
  if not (Flatset.mem s.index key) then begin
    let i = Vec.len s.keys in
    Engine.check_budget s.engine (i + 1);
    Flatset.add s.index key i;
    ignore (Vec.push s.keys key)
  end

let closure_actions program envs =
  let actions_of = function
    | None -> [||]
    | Some (cp : Compile.program) -> cp.Compile.actions
  in
  Array.append (actions_of program) (actions_of envs)

let create engine ?program ?envs ~faults () =
  let bounds = Vec.create () in
  ignore (Vec.push bounds 0);
  { engine; program; envs; faults;
    closure_actions = closure_actions program envs; keys = Vec.create ();
    index = Engine.make_visited engine; bounds; roots = 0; level = 0;
    cursor = 0; closed = false; fault_done = 0; saturated = false;
    busy = false; seen = 0; reported = 0 }

(* The roots, in the canonical order, classified on the engine's pool
   when it has more than one worker. *)
let seed s from =
  Engine.with_workers s.engine (fun pool ->
      Engine.seed_roots ~pool s.engine ~from ~mem:(Flatset.mem s.index)
        (fun key _ -> visit s key));
  s.roots <- Vec.len s.keys;
  s.seen <- s.roots

(* --- span snapshots ---

   A span search can be checkpointed at two kinds of boundary:
   mid-{e closure} (phase 0: the current layer's program closure is
   still draining a FIFO of pending keys) and mid-{e fault} (phase 1:
   the layer's members are being fault-expanded, in reverse pop order).
   Both record: every visited key with its depth (discovery order), the
   accumulated next-layer seeds, and the phase's own pending work — the
   remaining closure FIFO plus the members popped so far (phase 0), or
   the members still awaiting fault expansion {e in processing order}
   (phase 1). Every one of these is a run of [keys], so the search
   writes them from its cursors and a restore checks that they are.
   The FIFO/wave equivalence that makes region checkpoints
   backend-portable applies layer-by-layer here, so span checkpoints
   also resume on either backend at any job count. A span extended from
   a smaller budget is, at every boundary, the search a fresh run at
   the larger budget would be, so its checkpoints carry the larger
   budget's config hash. *)

let kind_span = "span"

let span_hash s budget =
  let parts =
    kind_span
    :: (match budget with
       | None -> "budget=none"
       | Some b -> Printf.sprintf "budget=%d" b)
    :: ((match s.program with None -> [] | Some cp -> Engine.action_names cp)
       @ (match s.envs with
         | None -> []
         | Some cp -> "/envs" :: Engine.action_names cp)
       @ ("/faults" :: Engine.action_names s.faults))
  in
  Engine.config_hash s.engine ~parts

let keys_sub s lo hi = Array.init (hi - lo) (fun i -> Vec.get s.keys (lo + i))

(* Members of layer [level] not yet fault-expanded. *)
let fault_remaining s =
  Vec.get s.bounds (s.level + 1) - Vec.get s.bounds s.level - s.fault_done

(* The same members, in processing order. *)
let fault_pending s =
  let hi = Vec.get s.bounds (s.level + 1) in
  Array.init (fault_remaining s) (fun k ->
      Vec.get s.keys (hi - 1 - s.fault_done - k))

let snapshot s ~budget =
  let n = Vec.len s.keys in
  let lo = Vec.get s.bounds s.level in
  let top = Vec.len s.bounds - 1 in
  let phase, layer_members, frontier, next, pending =
    if not s.closed then
      (0, s.cursor - lo, keys_sub s s.cursor n, [||], keys_sub s lo s.cursor)
    else
      let hi = Vec.get s.bounds (s.level + 1) in
      (1, hi - lo, [||], keys_sub s hi n, fault_pending s)
  in
  {
    Rt.Snapshot.kind = kind_span;
    config_hash = span_hash s budget;
    meta =
      [
        ("count", n);
        ("level", s.level);
        ("roots", s.roots);
        ("phase", phase);
        ("layer_members", layer_members);
      ];
    sections =
      [
        ("keys", Vec.to_array s.keys);
        ("depths", Array.init n (depth_of_index s ~top));
        ("frontier", frontier);
        ("next", next);
        ("pending", pending);
      ];
  }

let corrupt msg = raise (Rt.Snapshot.Corrupt msg)

(* Rebuild a search from a snapshot, checking that every section is the
   run of [keys] the writer's cursors make it. *)
let restore s ~budget snap =
  Engine.check_snapshot_kind ~kind:kind_span ~hash:(span_hash s budget) snap;
  let ks = Rt.Snapshot.section snap "keys" in
  let ds = Rt.Snapshot.section snap "depths" in
  let n = Array.length ks in
  if Array.length ds <> n then corrupt "keys/depths length mismatch";
  if Rt.Snapshot.meta_int snap "count" <> n then corrupt "inconsistent count";
  Array.iteri
    (fun i k ->
      if k < 0 || Flatset.mem s.index k then corrupt "repeated or negative key";
      (try Flatset.add s.index k i
       with Invalid_argument _ -> corrupt "key outside the state space");
      ignore (Vec.push s.keys k);
      let d = ds.(i) in
      let prev = if i = 0 then 0 else ds.(i - 1) in
      if i > 0 && d = prev + 1 then ignore (Vec.push s.bounds i)
      else if d <> prev then corrupt "depths out of layer order")
    ks;
  let level = Rt.Snapshot.meta_int snap "level" in
  let phase = Rt.Snapshot.meta_int snap "phase" in
  let roots = Rt.Snapshot.meta_int snap "roots" in
  let members = Rt.Snapshot.meta_int snap "layer_members" in
  let top = Vec.len s.bounds - 1 in
  if roots < 0 || roots > (if top >= 1 then Vec.get s.bounds 1 else n) then
    corrupt "implausible root count";
  (match budget with
  | Some b when level > b || (phase = 1 && level = b) ->
      corrupt "layer beyond the budget"
  | _ -> ());
  let frontier = Rt.Snapshot.section snap "frontier" in
  let next = Rt.Snapshot.section snap "next" in
  let pending = Rt.Snapshot.section snap "pending" in
  let is_run a ~lo ~step =
    Array.for_all Fun.id
      (Array.mapi (fun j k -> Vec.get s.keys (lo + (step * j)) = k) a)
  in
  s.roots <- roots;
  s.level <- level;
  (match phase with
  | 0 ->
      let cursor = n - Array.length frontier in
      let lo = if top = level then Vec.get s.bounds level else -1 in
      if
        lo < 0 || cursor < lo || next <> [||]
        || cursor - lo <> members
        || Array.length pending <> members
        || not (is_run frontier ~lo:cursor ~step:1 && is_run pending ~lo ~step:1)
      then corrupt "closure-phase sections disagree with the keys";
      s.cursor <- cursor;
      s.seen <- (if level = 0 then roots else lo)
  | 1 ->
      if top = level then ignore (Vec.push s.bounds n);
      let hi = n - Array.length next in
      let lo = if top >= level then Vec.get s.bounds level else -1 in
      let p = Array.length pending in
      if
        top > level + 1 || lo < 0
        || Vec.get s.bounds (level + 1) <> hi
        || frontier <> [||]
        || hi - lo <> members
        || p > members
        || not (is_run pending ~lo:(lo + p - 1) ~step:(-1))
      then corrupt "fault-phase sections disagree with the keys";
      s.closed <- true;
      s.cursor <- hi;
      s.fault_done <- members - p;
      s.seen <- hi
  | _ -> corrupt "implausible phase")

(* --- the closure and fault phases ---

   Both run in slices of [1024 × workers] keys with an {!Engine.poll}
   before each, counted from where the phase started or resumed; at one
   worker that is a poll every 1024 expansions. [stop ~frontier] is that
   poll, [frontier] being the phase's pending keys. *)

(* Expand [n] keys from discovery index [lo], the highest index first
   under [reverse] — the fault phase's order — visiting successors in
   source order × action order. At one worker each successor is visited
   as it is stepped. At more, the rounds run phase A on the pool and
   phase B committing in source order (see {!Par.Chunked}); phase A
   drops successors already visited when probed, and the commit
   re-probes, since an earlier commit of this very round may have
   claimed the key. *)
let expand s pool steppers chunks actions ~lo ~n ~reverse =
  let successors st i f =
    let buf = Engine.stepper_state st in
    Engine.load st (Vec.get s.keys (if reverse then lo + n - 1 - i else lo + i));
    for a = 0 to Array.length actions - 1 do
      let ca = actions.(a) in
      if ca.Compile.enabled buf then begin
        let dst = Engine.step st ca in
        Engine.undo st;
        f dst
      end
    done
  in
  if Par.Pool.jobs pool = 1 then begin
    let visit = visit s in
    for i = 0 to n - 1 do
      successors steppers.(0) i visit
    done
  end
  else
    Par.Chunked.round chunks pool ~n
      ~expand:(fun ~worker out i ->
        successors steppers.(worker) i (fun dst ->
            if not (Flatset.mem s.index dst) then ignore (Vec.push out dst)))
      ~commit:(fun out ->
        for j = 0 to Vec.len out - 1 do
          visit s (Vec.get out j)
        done)

(* Drain the closure FIFO, the keys from [cursor] on: slice order ×
   action order is the single queue's pop order. *)
let closure_phase s ~stop run ~slice =
  while s.cursor < Vec.len s.keys do
    stop ~frontier:(Vec.len s.keys - s.cursor);
    let lo = s.cursor in
    let n = min slice (Vec.len s.keys - lo) in
    run s.closure_actions ~lo ~n ~reverse:false;
    s.cursor <- lo + n
  done

(* Fault successors of the layer's members, last discovered first. *)
let fault_phase s ~stop run ~slice =
  let hi = Vec.get s.bounds (s.level + 1) in
  while fault_remaining s > 0 do
    stop ~frontier:(fault_remaining s);
    let n = min slice (fault_remaining s) in
    run s.faults.Compile.actions ~lo:(hi - s.fault_done - n) ~n ~reverse:true;
    s.fault_done <- s.fault_done + n
  done

(* Layers until [budget] (or saturation): close layer [level], and while
   budget allows, fire its faults to seed layer [level + 1]. *)
let run_layers s ~closure ~fault budget =
  let continue = ref true in
  while !continue do
    if not s.closed then begin
      closure ();
      s.closed <- true;
      obs_layer s
    end;
    let allowed = match budget with None -> true | Some b -> s.level < b in
    if s.saturated || not allowed then continue := false
    else begin
      if Vec.len s.bounds = s.level + 1 then
        ignore (Vec.push s.bounds (Vec.len s.keys));
      fault ();
      let hi = Vec.get s.bounds (s.level + 1) in
      if Vec.len s.keys = hi then begin
        s.saturated <- true;
        continue := false
      end
      else begin
        s.level <- s.level + 1;
        s.cursor <- hi;
        s.closed <- false;
        s.fault_done <- 0
      end
    end
  done

let run_search s budget =
  Engine.with_workers s.engine @@ fun pool ->
  let steppers =
    Array.init (Par.Pool.jobs pool) (fun _ -> Engine.stepper s.engine)
  in
  (* phase-A buffers, counted beside the keys and the table *)
  let chunks = Par.Chunked.create () in
  let stop ~frontier =
    Engine.poll s.engine ~states:(Vec.len s.keys)
      ~bytes:
        (Flatset.bytes s.index + Vec.bytes s.keys + Par.Chunked.bytes chunks)
      ~frontier
      ~snapshot:(fun () -> snapshot s ~budget)
  in
  let run = expand s pool steppers chunks in
  let slice = 1024 * Par.Pool.jobs pool in
  run_layers s budget
    ~closure:(fun () -> closure_phase s ~stop run ~slice)
    ~fault:(fun () -> fault_phase s ~stop run ~slice)

(* The span at [budget]: a prefix when the search already went past it. *)
let view s budget =
  match budget with
  | Some b when b < s.level ->
      { search = s; count = Vec.get s.bounds (b + 1); max_depth = b }
  | _ -> { search = s; count = Vec.len s.keys; max_depth = s.level }

(* A negative budget allows no fault step, like [0]. *)
let clamp budget = Option.map (max 0) budget

let extend s ?budget () =
  if s.busy then
    invalid_arg "Faultspan.extend: an earlier extension of this search raised";
  let budget = clamp budget in
  s.busy <- true;
  run_search s budget;
  s.busy <- false;
  let t = view s budget in
  obs_done t;
  t

let start engine ?program ?envs ~faults ~from () =
  let s = create engine ?program ?envs ~faults () in
  seed s from;
  s

let compute engine ?program ?envs ?budget ?resume ~faults ~from () =
  Engine.sharing_pool engine @@ fun () ->
  let s = create engine ?program ?envs ~faults () in
  (match resume with
  | Some snap -> restore s ~budget:(clamp budget) snap
  | None -> seed s from);
  extend s ?budget ()
