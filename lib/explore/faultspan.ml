module State = Guarded.State
module Compile = Guarded.Compile
module Vec = Par.Ivec

type t = {
  engine : Engine.t;
  keys : Vec.t;  (** member keys, discovery order ({!iter} walks it backwards) *)
  count : int;
  depth_of : Flatset.t;  (** key -> fault layer of first reach *)
  roots : int;
  max_depth : int;
  histogram : int array;
}

let count t = t.count
let root_count t = t.roots
let max_depth t = t.max_depth
let depth_histogram t = Array.sub t.histogram 0 (t.max_depth + 1)

let mem t s =
  match Engine.encode_key t.engine s with
  | key -> Flatset.mem t.depth_of key
  | exception Invalid_argument _ -> false

let mem_key t key = Flatset.mem t.depth_of key

let depth t s =
  match Engine.encode_key t.engine s with
  | key ->
      let d = Flatset.find_def t.depth_of key (-1) in
      if d < 0 then None else Some d
  | exception Invalid_argument _ -> None

(* Members in reverse discovery order — the order [iter] has always
   used (the seed implementation consed keys onto a list), which
   certification output and tests pin down. *)
let iter t f =
  let buf = State.make (Engine.env t.engine) in
  for i = Vec.len t.keys - 1 downto 0 do
    Engine.decode_key_into t.engine (Vec.get t.keys i) buf;
    f buf
  done

let nth_key t i = Vec.get t.keys (t.count - 1 - i)

let decode_nth_into t i buf =
  Engine.decode_key_into t.engine (nth_key t i) buf

let states t =
  List.init t.count (fun i -> Engine.decode_key t.engine (Vec.get t.keys i))

(* Shared observability hooks: one [faultspan.layer] event per completed
   fault layer, plus totals when the span is done. Layer structure is
   bit-identical between the sequential and parallel searches, so the
   event stream is too. *)
let obs_layer obs ~layer ~members ~discovered ~total =
  if Obs.Ctx.enabled obs then begin
    Obs.Metrics.incr (Obs.Ctx.counter obs "faultspan.layers");
    Obs.Ctx.emit obs "faultspan.layer"
      [
        ("layer", Obs.Sink.I layer);
        ("members", Obs.Sink.I members);
        ("discovered", Obs.Sink.I discovered);
      ];
    Obs.Ctx.tick obs ~label:"faultspan" ~states:total ~depth:layer ()
  end

let obs_done obs ~states ~roots ~max_depth =
  if Obs.Ctx.enabled obs then begin
    Obs.Metrics.incr (Obs.Ctx.counter obs "faultspan.spans");
    Obs.Metrics.add (Obs.Ctx.counter obs "faultspan.states") states;
    Obs.Metrics.set_max (Obs.Ctx.gauge obs "faultspan.max_depth") max_depth;
    Obs.Ctx.emit obs "faultspan.done"
      [
        ("states", Obs.Sink.I states);
        ("roots", Obs.Sink.I roots);
        ("max_depth", Obs.Sink.I max_depth);
      ];
    Obs.Ctx.finish_progress obs ~label:"faultspan" ~states
  end

let histogram_of depth_of max_depth =
  let histogram = Array.make (max_depth + 1) 0 in
  Flatset.iter depth_of (fun _ d -> histogram.(d) <- histogram.(d) + 1);
  histogram

(* Root sweeps run in dense id order whatever the key representation;
   under packed keys the id's state buffer is re-encoded. *)
let key_of_id engine id s =
  if Engine.packed_keys engine then Engine.encode_key engine s else id

(* --- span snapshots ---

   A span search can be checkpointed at two kinds of boundary:
   mid-{e closure} (phase 0: the current layer's program closure is
   still draining a FIFO of pending keys) and mid-{e fault} (phase 1:
   the layer's members are being fault-expanded, in reverse pop order).
   Both record: every visited key with its depth (discovery order), the
   accumulated next-layer seeds, and the phase's own pending work — the
   remaining closure FIFO plus the members popped so far (phase 0), or
   the members still awaiting fault expansion {e in processing order}
   (phase 1). The FIFO/wave equivalence that makes region checkpoints
   backend-portable applies layer-by-layer here, so span checkpoints
   also resume on either backend at any job count. *)

let kind_span = "span"

let action_names (cp : Compile.program) =
  Array.to_list
    (Array.map
       (fun (ca : Compile.action) -> Guarded.Action.name ca.Compile.source)
       cp.Compile.actions)

let span_hash engine ?program ?envs ?budget ~faults () =
  let parts =
    kind_span
    :: (match budget with
       | None -> "budget=none"
       | Some b -> Printf.sprintf "budget=%d" b)
    :: ((match program with None -> [] | Some cp -> action_names cp)
       @ (match envs with
         | None -> []
         | Some cp -> "/envs" :: action_names cp)
       @ ("/faults" :: action_names faults))
  in
  Engine.config_hash engine ~parts

let build_span_snapshot ~hash ~phase ~level ~roots ~layer_members ~keys
    ~depth_find ~frontier ~next ~pending =
  let ks = Vec.to_array keys in
  let ds = Array.map depth_find ks in
  {
    Rt.Snapshot.kind = kind_span;
    config_hash = hash;
    meta =
      [
        ("count", Array.length ks);
        ("level", level);
        ("roots", roots);
        ("phase", phase);
        ("layer_members", layer_members);
      ];
    sections =
      [
        ("keys", ks);
        ("depths", ds);
        ("frontier", frontier);
        ("next", next);
        ("pending", pending);
      ];
  }

(* Shared restore: rebuild the visited table (via [add]) and the keys
   vector, and hand back the phase-specific pending work. *)
let restore_span ~hash snap ~add ~keys =
  (match (snap : Rt.Snapshot.t).Rt.Snapshot.kind with
  | k when k = kind_span -> ()
  | k ->
      raise
        (Rt.Snapshot.Corrupt
           (Printf.sprintf
              "snapshot kind %S where %S was expected (written by a \
               different subcommand?)"
              k kind_span)));
  if snap.Rt.Snapshot.config_hash <> hash then
    raise
      (Rt.Snapshot.Corrupt
         "config-hash mismatch: this checkpoint was written under a \
          different model or engine configuration");
  let ks = Rt.Snapshot.section snap "keys" in
  let ds = Rt.Snapshot.section snap "depths" in
  if Array.length ks <> Array.length ds then
    raise (Rt.Snapshot.Corrupt "keys/depths length mismatch");
  if Rt.Snapshot.meta_int snap "count" <> Array.length ks then
    raise (Rt.Snapshot.Corrupt "inconsistent count");
  Array.iteri
    (fun i k ->
      add k ds.(i);
      ignore (Vec.push keys k))
    ks;
  let phase = Rt.Snapshot.meta_int snap "phase" in
  if phase <> 0 && phase <> 1 then
    raise (Rt.Snapshot.Corrupt "implausible phase");
  ( phase,
    Rt.Snapshot.meta_int snap "level",
    Rt.Snapshot.meta_int snap "roots",
    Rt.Snapshot.meta_int snap "layer_members",
    Rt.Snapshot.section snap "frontier",
    Rt.Snapshot.section snap "next",
    Rt.Snapshot.section snap "pending" )

let queue_to_array q =
  let a = Array.make (Flatqueue.length q) 0 in
  let i = ref 0 in
  Flatqueue.iter q (fun k ->
      a.(!i) <- k;
      incr i);
  a

(* The 0-cost closure phase fires the program's actions, then the
   environment's: env actions extend the span like program steps and never
   consume fault budget. *)
let closure_actions program envs =
  let actions_of = function
    | None -> [||]
    | Some (cp : Compile.program) -> cp.Compile.actions
  in
  Array.append (actions_of program) (actions_of envs)

(* Layered 0-1 BFS: program edges cost 0 (stay in the current layer), fault
   edges cost 1 (feed the next layer). Layers are processed in order, so the
   layer a state is first seen in is its minimal fault count. *)
let compute_seq engine ?program ?envs ?budget ?resume ~faults ~from () =
  let obs = Engine.obs engine in
  let guard = Engine.guard engine in
  let guard_on = Rt.Guard.active guard in
  let space = Engine.space engine in
  let cap = Engine.max_states engine in
  let hash = span_hash engine ?program ?envs ?budget ~faults () in
  let prog_actions = closure_actions program envs in
  let fault_actions = (faults : Compile.program).Compile.actions in
  let depth_of = Engine.make_visited engine in
  let keys = Vec.create () in
  let count = ref 0 in
  let cur = Flatqueue.create () in
  let next = Flatqueue.create () in
  let level = ref 0 in
  let roots = ref 0 in
  (* cons order = reverse pop order; phase 2 walks the list head-first *)
  let layer_members = ref [] in
  let n_members = ref 0 in
  let resume_fault = ref None in
  let visit level target_queue key =
    if not (Flatset.mem depth_of key) then begin
      incr count;
      if !count > cap then raise (Engine.Region_overflow !count);
      Flatset.add depth_of key level;
      ignore (Vec.push keys key);
      Flatqueue.push target_queue key
    end
  in
  (match resume with
  | Some snap ->
      let phase, lvl, rts, members_total, frontier, next_a, pending =
        restore_span ~hash snap ~add:(Flatset.add depth_of) ~keys
      in
      count := Vec.len keys;
      level := lvl;
      roots := rts;
      Array.iter (fun k -> Flatqueue.push next k) next_a;
      if phase = 0 then begin
        Array.iter (fun k -> Flatqueue.push cur k) frontier;
        (* pending = members popped so far, in pop order: re-cons them so
           the list is exactly what the uninterrupted run would hold *)
        Array.iter
          (fun k ->
            layer_members := k :: !layer_members;
            incr n_members)
          pending
      end
      else begin
        resume_fault := Some pending;
        n_members := members_total
      end
  | None -> (
      (match from with
      | Engine.Seeds l ->
          List.iter (fun s -> visit 0 cur (Engine.encode_key engine s)) l
      | Engine.All | Engine.Pred _ ->
          if Space.size space > cap then
            raise (Engine.Region_overflow (Space.size space));
          let p = match from with Engine.Pred p -> p | _ -> fun _ -> true in
          Space.iter space (fun id s ->
              if p s then visit 0 cur (key_of_id engine id s)));
      roots := !count));
  let st = Engine.stepper engine in
  let buf = Engine.stepper_state st in
  let live_bytes () =
    Flatset.bytes depth_of + Flatqueue.bytes cur + Flatqueue.bytes next
  in
  let interrupt reason ~phase ~frontier ~pending ~frontier_size =
    let snapshot =
      if not (Engine.wants_snapshots engine) then None
      else
        Some
          (build_span_snapshot ~hash ~phase ~level:!level ~roots:!roots
             ~layer_members:!n_members ~keys
             ~depth_find:(fun k -> Flatset.find_def depth_of k (-1))
             ~frontier ~next:(queue_to_array next) ~pending)
    in
    raise
      (Engine.Interrupted
         { reason; states_seen = !count; frontier_size; snapshot })
  in
  (* Fault successors of [order.(j ..)], already in processing order. *)
  let fault_expand order =
    let n = Array.length order in
    for j = 0 to n - 1 do
      (if guard_on && j land 1023 = 0 then
         match Rt.Guard.poll guard ~states:!count ~bytes:(live_bytes ()) with
         | None -> ()
         | Some reason ->
             interrupt reason ~phase:1 ~frontier:[||]
               ~pending:(Array.sub order j (n - j))
               ~frontier_size:(n - j));
      Engine.load st order.(j);
      Array.iter
        (fun (ca : Compile.action) ->
          if ca.enabled buf then begin
            visit (!level + 1) next (Engine.step st ca);
            Engine.undo st
          end)
        fault_actions
    done
  in
  let continue = ref true in
  while !continue do
    let count_before = !count in
    (match !resume_fault with
    | Some pending ->
        resume_fault := None;
        fault_expand pending
    | None ->
        (* Phase 1: complete the program closure of this layer before firing
           any fault edge, so a state program-reachable at this layer is never
           first seen deeper (which would mislabel its depth and, under a
           budget, wrongly prune its fault successors). *)
        let pops = ref 0 in
        while not (Flatqueue.is_empty cur) do
          (if guard_on && !pops land 1023 = 0 then
             match
               Rt.Guard.poll guard ~states:!count ~bytes:(live_bytes ())
             with
             | None -> ()
             | Some reason ->
                 (* pending members so far, in pop order *)
                 let sofar = Array.make !n_members 0 in
                 let i = ref !n_members in
                 List.iter
                   (fun k ->
                     decr i;
                     sofar.(!i) <- k)
                   !layer_members;
                 interrupt reason ~phase:0 ~frontier:(queue_to_array cur)
                   ~pending:sofar ~frontier_size:(Flatqueue.length cur));
          let key = Flatqueue.pop cur in
          incr pops;
          layer_members := key :: !layer_members;
          incr n_members;
          Engine.load st key;
          Array.iter
            (fun (ca : Compile.action) ->
              if ca.enabled buf then begin
                visit !level cur (Engine.step st ca);
                Engine.undo st
              end)
            prog_actions
        done;
        (* Phase 2: fault successors of every member of the completed layer. *)
        let fault_allowed =
          match budget with None -> true | Some b -> !level < b
        in
        if fault_allowed then fault_expand (Array.of_list !layer_members));
    obs_layer obs ~layer:!level ~members:!n_members
      ~discovered:(!count - count_before) ~total:!count;
    if Flatqueue.is_empty next then continue := false
    else begin
      incr level;
      Flatqueue.transfer next cur;
      layer_members := [];
      n_members := 0
    end
  done;
  let max_depth = !level in
  let histogram = histogram_of depth_of max_depth in
  obs_done obs ~states:!count ~roots:!roots ~max_depth;
  { engine; keys; count = !count; depth_of; roots = !roots; max_depth; histogram }

(* Parallel variant of the same layered search, for engines on the
   [Parallel] backend. Each expansion round — a program-closure wave or a
   layer's fault phase — runs in two phases: phase A expands every source
   state on some worker domain (on a per-worker {!Engine.stepper}; the
   compiled actions are pure and shared), collecting the
   successor keys that were unseen when probed in the depth table — the
   engine's own {!Flatset}, which phase A only reads; phase B, the only
   writer, commits them sequentially in the order the sequential search
   would have visited them ({!Par.Chunked} keeps phase A's output in
   source order). Two order quirks of [compute_seq] are
   reproduced deliberately: program-closure waves are FIFO (wave order ×
   action order = the single queue's pop order), and the fault phase walks
   the layer's members in {e reverse} pop order, because the sequential
   code conses members onto a list and never reverses it. The result —
   keys, depths, histogram, even the overflow point — is bit-identical at
   any job count, and checkpoints written at wave boundaries restore on
   either backend. *)
let compute_par engine ?program ?envs ?budget ?resume ~faults ~from () =
  let obs = Engine.obs engine in
  let guard = Engine.guard engine in
  let guard_on = Rt.Guard.active guard in
  let space = Engine.space engine in
  let cap = Engine.max_states engine in
  let hash = span_hash engine ?program ?envs ?budget ~faults () in
  Par.Pool.use ?pool:(Engine.pool engine) ~jobs:(Engine.jobs engine)
  @@ fun pool ->
  let prog_actions = closure_actions program envs in
  let fault_actions = (faults : Compile.program).Compile.actions in
  let worker_st =
    Array.init (Par.Pool.jobs pool) (fun _ -> Engine.stepper engine)
  in
  let chunks = Par.Chunked.create () in
  let depth_of = Engine.make_visited engine in
  let keys = Vec.create () in
  let count = ref 0 in
  let level = ref 0 in
  let roots = ref 0 in
  let resume_fault = ref None in
  let visit level target key =
    if not (Flatset.mem depth_of key) then begin
      incr count;
      if !count > cap then raise (Engine.Region_overflow !count);
      Flatset.add depth_of key level;
      ignore (Vec.push keys key);
      ignore (Vec.push target key)
    end
  in
  (* Expand [src] with [actions], then commit the candidates in source
     order ([~reverse] for the fault phase) × action order. Phase A drops
     successors already visited when probed; the commit re-probes, since
     an earlier commit of this very round may have claimed the key. *)
  let expand ~reverse actions src level target =
    let len = Vec.len src in
    Par.Chunked.round chunks pool ~n:len
      ~expand:(fun ~worker out i ->
        let st = worker_st.(worker) in
        let buf = Engine.stepper_state st in
        let i = if reverse then len - 1 - i else i in
        Engine.load st (Vec.get src i);
        Array.iter
          (fun (ca : Compile.action) ->
            if ca.enabled buf then begin
              let dst = Engine.step st ca in
              Engine.undo st;
              if not (Flatset.mem depth_of dst) then ignore (Vec.push out dst)
            end)
          actions)
      ~commit:(fun out ->
        for j = 0 to Vec.len out - 1 do
          visit level target (Vec.get out j)
        done)
  in
  let wave = Vec.create () and next_wave = Vec.create () in
  let members = Vec.create () and next_layer = Vec.create () in
  (match resume with
  | Some snap ->
      let phase, lvl, rts, _members_total, frontier, next_a, pending =
        restore_span ~hash snap ~add:(Flatset.add depth_of) ~keys
      in
      count := Vec.len keys;
      level := lvl;
      roots := rts;
      Array.iter (fun k -> ignore (Vec.push next_layer k)) next_a;
      if phase = 0 then begin
        Array.iter (fun k -> ignore (Vec.push wave k)) frontier;
        Array.iter (fun k -> ignore (Vec.push members k)) pending
      end
      else resume_fault := Some pending
  | None -> (
      (match from with
      | Engine.Seeds l ->
          List.iter (fun s -> visit 0 wave (Engine.encode_key engine s)) l
      | Engine.All | Engine.Pred _ ->
          if Space.size space > cap then
            raise (Engine.Region_overflow (Space.size space));
          let p = match from with Engine.Pred p -> p | _ -> fun _ -> true in
          let n = Space.size space in
          let packed = Engine.packed_keys engine in
          let classes = Bytes.make n '\000' in
          let packed_key = if packed then Array.make n 0 else [||] in
          Par.Pool.parallel_for pool ~n (fun ~worker lo hi ->
              let buf = Engine.stepper_state worker_st.(worker) in
              for id = lo to hi - 1 do
                Space.decode_into space id buf;
                if p buf then begin
                  Bytes.unsafe_set classes id '\001';
                  if packed then
                    packed_key.(id) <- Engine.encode_key engine buf
                end
              done);
          for id = 0 to n - 1 do
            if Bytes.unsafe_get classes id = '\001' then
              visit 0 wave (if packed then packed_key.(id) else id)
          done);
      roots := !count));
  let live_bytes () =
    Flatset.bytes depth_of + Vec.bytes wave + Vec.bytes next_wave
    + Vec.bytes members + Vec.bytes next_layer + Par.Chunked.bytes chunks
  in
  let interrupt reason ~phase ~frontier ~pending ~frontier_size =
    let snapshot =
      if not (Engine.wants_snapshots engine) then None
      else
        Some
          (build_span_snapshot ~hash ~phase ~level:!level ~roots:!roots
             ~layer_members:(Vec.len members) ~keys
             ~depth_find:(fun k -> Flatset.find_def depth_of k (-1))
             ~frontier ~next:(Vec.to_array next_layer) ~pending)
    in
    raise
      (Engine.Interrupted
         { reason; states_seen = !count; frontier_size; snapshot })
  in
  let poll_boundary ~phase ~frontier ~pending ~frontier_size =
    if guard_on then
      match Rt.Guard.poll guard ~states:!count ~bytes:(live_bytes ()) with
      | None -> ()
      | Some reason -> interrupt reason ~phase ~frontier ~pending ~frontier_size
  in
  let continue = ref true in
  while !continue do
    let count_before = !count in
    (match !resume_fault with
    | Some pending ->
        resume_fault := None;
        (* finish the interrupted fault phase: [pending] is already in
           processing order, so expand it forward *)
        let pv = Vec.of_array pending in
        expand ~reverse:false fault_actions pv (!level + 1) next_layer
    | None ->
        while Vec.len wave > 0 do
          (* wave-boundary cancellation point: the pending wave is the
             closure FIFO's remaining content *)
          poll_boundary ~phase:0 ~frontier:(Vec.to_array wave)
            ~pending:(Vec.to_array members) ~frontier_size:(Vec.len wave);
          for i = 0 to Vec.len wave - 1 do
            ignore (Vec.push members (Vec.get wave i))
          done;
          expand ~reverse:false prog_actions wave !level next_wave;
          Vec.clear wave;
          Vec.swap wave next_wave
        done;
        let fault_allowed =
          match budget with None -> true | Some b -> !level < b
        in
        if fault_allowed then begin
          (* phase boundary: pending fault work is the member list in
             processing (reverse pop) order *)
          (if guard_on then
             let n = Vec.len members in
             let pending = Array.init n (fun j -> Vec.get members (n - 1 - j)) in
             poll_boundary ~phase:1 ~frontier:[||] ~pending ~frontier_size:n);
          expand ~reverse:true fault_actions members (!level + 1) next_layer
        end);
    obs_layer obs ~layer:!level ~members:(Vec.len members)
      ~discovered:(!count - count_before) ~total:!count;
    if Vec.len next_layer = 0 then continue := false
    else begin
      incr level;
      Vec.clear members;
      Vec.swap wave next_layer
    end
  done;
  let max_depth = !level in
  let histogram = histogram_of depth_of max_depth in
  obs_done obs ~states:!count ~roots:!roots ~max_depth;
  { engine; keys; count = !count; depth_of; roots = !roots; max_depth; histogram }

let compute engine ?program ?envs ?budget ?resume ~faults ~from () =
  match Engine.backend engine with
  | Engine.Parallel ->
      compute_par engine ?program ?envs ?budget ?resume ~faults ~from ()
  | Engine.Eager | Engine.Lazy ->
      compute_seq engine ?program ?envs ?budget ?resume ~faults ~from ()
