(* Analysis legs: one engine running one workload's analysis call in
   this process. *)

open Util

(* --- workloads --- *)

type kind =
  | Check_all  (** convergence from every state *)
  | Check_ball of int  (** convergence from a Hamming ball of legitimacy *)
  | Sweep of int  (** tolerance sweep over budgets 0..n, adversary on *)

type spec = {
  model : string;
  params : (string * int) list;
  kind : kind;
  storage : Explore.Engine.storage;  (** of the lazy and parallel legs *)
}

let spec ~workload ~size =
  match (workload, size) with
  | "check-dense", "full" ->
      { model = "diffusing"; params = [ ("N", 7) ]; kind = Check_all; storage = Auto }
  | "check-dense", "tiny" ->
      { model = "diffusing"; params = [ ("N", 5) ]; kind = Check_all; storage = Auto }
  (* The space stays under the eager cap, so every engine runs; the lazy
     and parallel legs are given the Probed table a sparse region of a
     huge space would get. *)
  | "check-sparse", "full" ->
      {
        model = "token_ring";
        params = [ ("N", 6); ("K", 7) ];
        kind = Check_ball 4;
        storage = Probed;
      }
  | "check-sparse", "tiny" ->
      {
        model = "token_ring";
        params = [ ("N", 4); ("K", 5) ];
        kind = Check_ball 2;
        storage = Probed;
      }
  | "tolerance", "full" ->
      { model = "token_ring"; params = [ ("N", 5); ("K", 5) ]; kind = Sweep 3; storage = Auto }
  | "tolerance", "tiny" ->
      { model = "token_ring"; params = [ ("N", 3); ("K", 4) ]; kind = Sweep 2; storage = Auto }
  | _ -> fail "unknown workload/size %s/%s" workload size

let model_text name = read_file (Filename.concat "examples/models" (name ^ ".nm"))

let engine_of_name = function
  | "eager" -> (Explore.Engine.Eager, 1)
  | "lazy" -> (Explore.Engine.Lazy, 1)
  | "par1" -> (Explore.Engine.Parallel, 1)
  | "par2" -> (Explore.Engine.Parallel, 2)
  | e -> fail "unknown engine %s (eager|lazy|par1|par2)" e

(* --- one analysis leg --- *)

type setup = {
  elab : Lang.Elab.t;
  prog : Guarded.Compile.program;
  engine : Explore.Engine.t;
  compile_s : float;
  guarded_s : float;
  create_s : float;
}

let setup_once ~spec ~text ~backend ~jobs ~obs =
  let elab, compile_s =
    timed (fun () ->
        Lang.Driver.compile_string ~params:spec.params ~file:spec.model text)
  in
  let prog, guarded_s =
    timed (fun () -> Guarded.Compile.program elab.Lang.Elab.program)
  in
  let engine, create_s =
    timed (fun () ->
        Explore.Engine.create ~backend ~jobs ~storage:spec.storage ~obs
          elab.Lang.Elab.env)
  in
  { elab; prog; engine; compile_s; guarded_s; create_s }

let check_json = function
  | Ok { Explore.Convergence.region_states; explored; worst_case_steps } ->
      Obs.Json.Obj
        [
          ("verdict", Obs.Json.Str "converges");
          ("explored", Obs.Json.Int explored);
          ("region", Obs.Json.Int region_states);
          ("worst", json_opt_int worst_case_steps);
        ]
  | Error (Explore.Convergence.Deadlock _) ->
      Obs.Json.Obj [ ("verdict", Obs.Json.Str "deadlock") ]
  | Error (Explore.Convergence.Livelock _) ->
      Obs.Json.Obj [ ("verdict", Obs.Json.Str "livelock") ]

let frontier_json (f : Tol.Sweep.frontier) =
  Obs.Json.Obj
    [
      ( "points",
        Obs.Json.List
          (List.map
             (fun (p : Tol.Sweep.point) ->
               Obs.Json.Obj
                 [
                   ("budget", Obs.Json.Int p.budget);
                   ("span", Obs.Json.Int p.span_states);
                   ("max_depth", Obs.Json.Int p.max_depth);
                   ("certified", Obs.Json.Bool p.certified);
                   ("worst", json_opt_int p.worst_case);
                   ( "adversary",
                     json_opt_int
                       (Option.bind p.adversary Tol.Sweep.adversary_bound) );
                   ("reused", Obs.Json.Bool p.reused);
                 ])
             f.points) );
      ("cliff", json_opt_int f.cliff);
    ]

let seeds_of ~spec (s : setup) =
  match spec.kind with
  | Check_ball radius ->
      Explore.Engine.Seeds
        (Explore.Engine.ball s.elab.Lang.Elab.env ~center:s.elab.Lang.Elab.init
           ~radius)
  | Check_all | Sweep _ -> Explore.Engine.All

(* The workload's analysis call: the only thing the end-to-end engine
   times measure. *)
let analysis ~spec (s : setup) =
  let em = s.elab in
  match spec.kind with
  | Check_all | Check_ball _ ->
      let from = seeds_of ~spec s in
      fun () ->
        check_json
          (Explore.Convergence.check_unfair s.engine s.prog ~from
             ~target:em.Lang.Elab.invariant)
  | Sweep budget_max ->
      let faults = Sim.Fault.actions (Sim.Fault.corrupt em.Lang.Elab.env ~k:1) in
      fun () ->
        frontier_json
          (Tol.Sweep.run ~engine:s.engine ~program:em.Lang.Elab.program ~faults
             ~envs:em.Lang.Elab.env_actions ~invariant:em.Lang.Elab.invariant
             ~budgets:(Tol.Sweep.range ~max:budget_max)
             ~adversary:true ~name:em.Lang.Elab.name ())

(* --- per-layer replay: time each layer's public functions on the
   workload's own keys and states, from outside the program --- *)

let hist_ms obs name = float (Obs.Metrics.hist_sum (Obs.Ctx.histogram obs name)) /. 1000.
let counter obs name = Obs.Metrics.value (Obs.Ctx.counter obs name)
let gauge obs name = Obs.Metrics.gauge_value (Obs.Ctx.gauge obs name)

let storage_layers ~(s : setup) keys =
  let n = Array.length keys in
  let env = s.elab.Lang.Elab.env in
  let codec = Explore.Codec.of_env env in
  let buf = Guarded.State.make env in
  let roundtrip_ok = ref true in
  let decode_ns =
    ns_per n (fun () ->
        Array.iter (fun k -> Explore.Codec.decode_dense_into codec k buf) keys)
  in
  let encode_ns =
    ns_per n (fun () ->
        Array.iter
          (fun k ->
            Explore.Codec.decode_dense_into codec k buf;
            if Explore.Codec.encode_dense codec buf <> k then
              roundtrip_ok := false)
          keys)
    -. decode_ns
  in
  if not !roundtrip_ok then fail "codec round-trip mismatch";
  let dst = Guarded.State.make env in
  let successors_ns =
    ns_per n (fun () ->
        Array.iter
          (fun k ->
            Explore.Codec.decode_dense_into codec k buf;
            List.iter
              (fun i -> s.prog.Guarded.Compile.actions.(i).apply_into buf dst)
              (Guarded.Compile.enabled_indices s.prog buf))
          keys)
    -. decode_ns
  in
  let table_ns make add find =
    let t = ref (make ()) in
    let add_ns =
      ns_per n (fun () ->
          let fresh = make () in
          Array.iteri (fun i k -> add fresh k i) keys;
          t := fresh)
    in
    let find_ns =
      ns_per n (fun () ->
          Array.iteri
            (fun i k -> if find !t k (-1) <> i then fail "table lookup mismatch")
            keys)
    in
    (add_ns, find_ns, !t)
  in
  let probed_add, probed_find, _ =
    table_ns
      (fun () -> Explore.Flatset.probed ())
      Explore.Flatset.add Explore.Flatset.find_def
  in
  let _, _, tbl =
    table_ns (fun () -> Par.Flattbl.create ()) Par.Flattbl.add Par.Flattbl.find_def
  in
  let shard_add, shard_find, _ =
    table_ns (fun () -> Par.Shardmap.create ()) Par.Shardmap.add Par.Shardmap.find_def
  in
  let push_pop_ns =
    ns_per n (fun () ->
        let q = Explore.Flatqueue.create () in
        Array.iter (Explore.Flatqueue.push q) keys;
        while not (Explore.Flatqueue.is_empty q) do
          ignore (Explore.Flatqueue.pop q)
        done)
  in
  let direct =
    let size = Explore.Codec.dense_size codec in
    if Explore.Codec.dense_ok codec && size <= 1 lsl 28 then begin
      let add, find, _ =
        table_ns
          (fun () -> Explore.Flatset.direct ~size)
          Explore.Flatset.add Explore.Flatset.find_def
      in
      [ ("flatset.direct_add_ns", add); ("flatset.direct_find_ns", find) ]
    end
    else []
  in
  [
    ("codec.encode_ns", encode_ns);
    ("codec.decode_ns", decode_ns);
    ("guarded.successors_ns", successors_ns);
    ("flatset.probed_add_ns", probed_add);
    ("flatset.probed_find_ns", probed_find);
    ("flattbl.max_probe", float (Par.Flattbl.max_probe tbl));
    ("shardmap.add_ns", shard_add);
    ("shardmap.find_ns", shard_find);
    ("flatqueue.push_pop_ns", push_pop_ns);
  ]
  @ direct

(* Tolerance layers, timed from outside on the sweep's top budget. *)
let tolerance_layers ~(s : setup) ~budget =
  let em = s.elab in
  let faults_src = Sim.Fault.actions (Sim.Fault.corrupt em.Lang.Elab.env ~k:1) in
  let faults =
    Guarded.Compile.program
      (Guarded.Program.make ~name:"faults" em.Lang.Elab.env faults_src)
  in
  let span, span_s =
    timed (fun () ->
        Explore.Faultspan.compute s.engine ~program:s.prog ~budget ~faults
          ~from:(Explore.Engine.Pred em.Lang.Elab.invariant) ())
  in
  let cert, cert_s =
    timed (fun () ->
        Nonmask.Certify.tolerance ~engine:s.engine ~program:em.Lang.Elab.program
          ~faults:faults_src ~invariant:em.Lang.Elab.invariant ~budget ~span
          ~name:em.Lang.Elab.name ())
  in
  if not (Nonmask.Certify.ok cert) then fail "top-budget certificate failed";
  let adv, adv_s =
    timed (fun () ->
        Tol.Adversary.worst_case s.engine ~program:s.prog ~span
          ~invariant:em.Lang.Elab.invariant ())
  in
  (* The recurrence graph: program ∪ faults over the span, outside S. *)
  let combined =
    Guarded.Compile.program
      (Guarded.Program.add_actions em.Lang.Elab.program faults_src)
  in
  let region =
    Explore.Engine.region s.engine combined
      ~from:(Explore.Engine.Seeds (Explore.Faultspan.states span))
      ~target:em.Lang.Elab.invariant
  in
  let _, scc_s = timed (fun () -> Dgraph.Scc.compute region.Explore.Engine.graph) in
  let keys =
    Array.init (Explore.Faultspan.count span) (Explore.Faultspan.nth_key span)
  in
  ( keys,
    [
      ("faultspan.compute_ms", span_s *. 1e3);
      ("certify.post_span_ms", cert_s *. 1e3);
      ("adversary.worst_case_ms", adv_s *. 1e3);
      ("adversary.waves", float adv.Tol.Adversary.waves);
      ("adversary.ranked", float adv.Tol.Adversary.ranked);
      ("scc.compute_ms", scc_s *. 1e3);
    ] )

(* One set-up takes well under a millisecond; its median over this many
   repetitions is steadier than any single one. *)
let setup_reps = 15

let leg ~workload ~size ~engine:ename ~traced =
  let spec = spec ~workload ~size in
  let text = model_text spec.model in
  let backend, jobs = engine_of_name ename in
  let obs = if traced then Obs.Ctx.create () else Obs.Ctx.disabled in
  let setups =
    List.init setup_reps (fun _ ->
        setup_once ~spec ~text ~backend ~jobs ~obs)
  in
  let s = List.nth setups (List.length setups - 1) in
  let med f = median (List.map f setups) in
  let setup_s = med (fun s -> s.compile_s +. s.guarded_s +. s.create_s) in
  let run = analysis ~spec s in
  let rss_before = status_kb "VmRSS" in
  let out, analysis_s = timed run in
  let rss_kb = status_kb "VmHWM" in
  let layers =
    if not traced then []
    else begin
      let region_ms = hist_ms obs "engine.region_us" in
      let states = counter obs "engine.states_discovered" in
      let per_engine =
        [
          ("lang.compile_ms", med (fun s -> s.compile_s) *. 1e3);
          ("guarded.compile_ms", med (fun s -> s.guarded_s) *. 1e3);
          ("engine.create_ms." ^ ename, med (fun s -> s.create_s) *. 1e3);
          ("engine.region_ms." ^ ename, region_ms);
          ( "engine.bytes_per_state." ^ ename,
            float ((rss_kb - rss_before) * 1024) /. float (max 1 states) );
          ("engine.states", float states);
          ("engine.region_edges", float (counter obs "engine.region_edges"));
          (* the analysis call outside region building: the convergence
             analysis (check) or spans, certificates and ranks (sweep) *)
          ("convergence.analysis_ms." ^ ename, (analysis_s *. 1e3) -. region_ms);
        ]
      in
      let kind_layers =
        match spec.kind with
        | Check_all | Check_ball _ -> []
        | Sweep _ ->
            let points =
              match Obs.Json.member "points" out with
              | Some (Obs.Json.List ps) -> ps
              | _ -> []
            in
            let reused =
              List.length
                (List.filter
                   (fun p -> Obs.Json.member "reused" p = Some (Obs.Json.Bool true))
                   points)
            in
            [
              ("certify.closure_ms", hist_ms obs "certify.closure_us");
              ("certify.convergence_ms", hist_ms obs "certify.convergence_us");
              ("certify.recurrence_ms", hist_ms obs "certify.recurrence_us");
              ("faultspan.states", float (counter obs "faultspan.states"));
              ("faultspan.layers", float (counter obs "faultspan.layers"));
              ("sweep.points", float (List.length points));
              ( "sweep.reused_ratio",
                float reused /. float (max 1 (List.length points)) );
            ]
      in
      (* Replays run after the registry was read, on the lazy leg only. *)
      let replay =
        if ename <> "lazy" then []
        else
          let peak = ("engine.frontier_peak_bytes", float (gauge obs "engine.frontier_peak_bytes")) in
          match spec.kind with
          | Check_all | Check_ball _ ->
              let region =
                Explore.Engine.region s.engine s.prog ~from:(seeds_of ~spec s)
                  ~target:s.elab.Lang.Elab.invariant
              in
              peak :: storage_layers ~s region.Explore.Engine.node_key
          | Sweep budget ->
              let keys, tl = tolerance_layers ~s ~budget in
              (peak :: tl) @ storage_layers ~s keys
      in
      per_engine @ kind_layers @ replay
    end
  in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str workload);
      ("engine", Obs.Json.Str ename);
      ("setup_s", Obs.Json.Float setup_s);
      ("analysis_s", Obs.Json.Float analysis_s);
      ("rss_kb", Obs.Json.Int rss_kb);
      ("out", out);
      ("layers", floats layers);
    ]

