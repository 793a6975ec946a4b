module State = Guarded.State
module Compile = Guarded.Compile
module Program = Guarded.Program
module Engine = Explore.Engine
module Faultspan = Explore.Faultspan
module Convergence = Explore.Convergence
module Closure = Explore.Closure
module Certify = Nonmask.Certify

type failure = { oracle : string; detail : string }

type config = {
  cert_budget : int;
  storm_trials : int;
  storm_rate : float;
  defect : Engine.backend option;
}

let default =
  { cert_budget = 2; storm_trials = 20; storm_rate = 0.2; defect = None }

let backends = [ Engine.Eager; Engine.Lazy; Engine.Parallel ]

let backend_name = function
  | Engine.Eager -> "eager"
  | Engine.Lazy -> "lazy"
  | Engine.Parallel -> "parallel"

(* Spaces are capped at generation time (Generate.config.max_states), so a
   budget far above the cap means no backend can overflow. *)
let engine_budget = 1 lsl 21

(* --- canonical signatures, comparable across backends --- *)

(* A region as every backend must return it: member keys in node order,
   edges in CSR order, terminal members in node order. *)
type region_sig = {
  r_keys : int list;  (* member keys by node id *)
  r_edges : (int * int * int) list;  (* (src key, dst key, action), CSR order *)
  r_terminals : int list;  (* member keys with no enabled action *)
  r_explored : int;
}

let region_sig ~bump (r : Engine.region) =
  let key v = r.Engine.node_key.(v) in
  let edges =
    Dgraph.Digraph.fold_edges
      (fun acc e -> (key e.Dgraph.Digraph.src, key e.dst, e.label) :: acc)
      [] r.Engine.graph
  in
  let terminals = ref [] in
  Array.iteri
    (fun v t -> if t then terminals := key v :: !terminals)
    r.Engine.terminal;
  {
    r_keys = Array.to_list r.Engine.node_key;
    r_edges = List.rev edges;
    r_terminals = List.rev !terminals;
    r_explored = r.Engine.explored + bump;
  }

let diff_region a b =
  if a.r_keys <> b.r_keys then Some "member keys differ (in node order)"
  else if a.r_edges <> b.r_edges then Some "edges differ (in CSR order)"
  else if a.r_terminals <> b.r_terminals then Some "terminals differ"
  else if a.r_explored <> b.r_explored then
    Some
      (Printf.sprintf "explored counts differ (%d vs %d)" a.r_explored
         b.r_explored)
  else None

(* Every backend returns the same region, so the witnesses too are the
   same: the deadlock state, and the livelock cycle's states in order. *)
type verdict_sig =
  | V_ok of int * int * int option
  | V_deadlock of string
  | V_livelock of string list

let verdict_sig env = function
  | Ok { Convergence.region_states; explored; worst_case_steps } ->
      V_ok (region_states, explored, worst_case_steps)
  | Error (Convergence.Deadlock s) -> V_deadlock (State.to_string env s)
  | Error (Convergence.Livelock cycle) ->
      V_livelock (List.map (State.to_string env) cycle)

let verdict_str = function
  | V_ok (r, e, w) ->
      Printf.sprintf "converges (region=%d explored=%d worst=%s)" r e
        (match w with Some w -> string_of_int w | None -> "-")
  | V_deadlock s -> "deadlock: " ^ s
  | V_livelock cycle -> "livelock: " ^ String.concat " -> " cycle

type span_sig = {
  s_count : int;
  s_roots : int;
  s_depth : int;
  s_hist : int list;
}

let span_sig ~bump span =
  {
    s_count = Faultspan.count span + bump;
    s_roots = Faultspan.root_count span;
    s_depth = Faultspan.max_depth span;
    s_hist = Array.to_list (Faultspan.depth_histogram span);
  }

let span_str s =
  Printf.sprintf "count=%d roots=%d depth=%d hist=[%s]" s.s_count s.s_roots
    s.s_depth
    (String.concat ";" (List.map string_of_int s.s_hist))

let cert_sig cert =
  ( Certify.ok cert,
    List.map
      (fun c -> (c.Certify.label, c.Certify.ok, c.Certify.detail))
      cert.Certify.checks )

(* --- the oracles --- *)

type ctx = {
  cfg : config;
  m : Spec.model;
  cp : Compile.program;
  faults_cp : Compile.program;
  engines : (Engine.backend * Engine.t) list;
  guard : Rt.Guard.t;
  storm_seed : int;
  reorder_seed : int;
}

let bump_of cfg b = if cfg.defect = Some b then 1 else 0

let eager ctx = List.assoc Engine.Eager ctx.engines
let lazy_e ctx = List.assoc Engine.Lazy ctx.engines

let root_sets ctx =
  [ ("legit", Engine.Seeds [ ctx.m.Spec.legit ]); ("all", Engine.All) ]

(* Compare every backend's value of [f] against the eager backend's. *)
let against_eager ctx ~name ~describe ~diff f =
  let reference = f (eager ctx) Engine.Eager in
  List.fold_left
    (fun acc (b, e) ->
      match acc with
      | Some _ -> acc
      | None when b = Engine.Eager -> None
      | None -> (
          match diff reference (f e b) with
          | None -> None
          | Some why ->
              Some
                {
                  oracle = name;
                  detail =
                    Printf.sprintf "%s: %s disagrees with eager: %s" describe
                      (backend_name b) why;
                }))
    None ctx.engines

let o_region_agree ctx =
  List.fold_left
    (fun acc (rname, from) ->
      match acc with
      | Some _ -> acc
      | None ->
          against_eager ctx ~name:"region-agree"
            ~describe:(Printf.sprintf "roots=%s" rname) ~diff:diff_region
            (fun e b ->
              region_sig ~bump:(bump_of ctx.cfg b)
                (Engine.region e ctx.cp ~from ~target:ctx.m.Spec.invariant)))
    None (root_sets ctx)

let o_verdict_agree ctx =
  let diff a b =
    if a = b then None
    else Some (Printf.sprintf "%s vs %s" (verdict_str b) (verdict_str a))
  in
  List.fold_left
    (fun acc (rname, from) ->
      match acc with
      | Some _ -> acc
      | None ->
          against_eager ctx ~name:"verdict-agree"
            ~describe:(Printf.sprintf "roots=%s" rname) ~diff
            (fun e _b ->
              verdict_sig ctx.m.Spec.env
                (Convergence.check_unfair e ctx.cp ~from
                   ~target:ctx.m.Spec.invariant)))
    None (root_sets ctx)

let span ctx e ~budget ~from =
  Faultspan.compute e ~program:ctx.cp ?budget ~faults:ctx.faults_cp ~from ()

let o_span_agree ctx =
  let budgets =
    [ ("budget=0", Some 0);
      (Printf.sprintf "budget=%d" ctx.cfg.cert_budget, Some ctx.cfg.cert_budget);
      ("unbounded", None);
    ]
  in
  let diff a b =
    if a = b then None
    else Some (Printf.sprintf "%s vs %s" (span_str b) (span_str a))
  in
  List.fold_left
    (fun acc (bname, budget) ->
      match acc with
      | Some _ -> acc
      | None ->
          List.fold_left
            (fun acc (rname, from) ->
              match acc with
              | Some _ -> acc
              | None ->
                  against_eager ctx ~name:"span-agree"
                    ~describe:(Printf.sprintf "roots=%s %s" rname bname) ~diff
                    (fun e b ->
                      span_sig ~bump:(bump_of ctx.cfg b)
                        (span ctx e ~budget ~from)))
            acc (root_sets ctx))
    None budgets

let o_span_monotone ctx =
  let e = lazy_e ctx in
  let from = Engine.Seeds [ ctx.m.Spec.legit ] in
  let counts =
    List.map
      (fun budget -> Faultspan.count (span ctx e ~budget ~from))
      [ Some 0; Some 1; Some ctx.cfg.cert_budget; None ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> if a > b then false else monotone rest
    | _ -> true
  in
  if not (monotone counts) then
    Some
      {
        oracle = "span-monotone";
        detail =
          Printf.sprintf "span counts not monotone in budget: [%s]"
            (String.concat ";" (List.map string_of_int counts));
      }
  else begin
    (* Budget 0 forbids every fault step, so the span must equal the
       program-only closure of the roots. *)
    let reachable = ref 0 in
    Engine.iter_reachable e ctx.cp ~from (fun _ -> incr reachable);
    let b0 = List.hd counts in
    if b0 <> !reachable then
      Some
        {
          oracle = "span-monotone";
          detail =
            Printf.sprintf
              "budget-0 span has %d states but the program closure has %d" b0
              !reachable;
        }
    else None
  end

let certificate ctx e program =
  Certify.tolerance ~engine:e ~program ~faults:ctx.m.Spec.fault_actions
    ~invariant:ctx.m.Spec.invariant ~budget:ctx.cfg.cert_budget ~name:"gen" ()

let o_cert_agree ctx =
  let diff (ok_a, checks_a) (ok_b, checks_b) =
    if ok_a <> ok_b then
      Some (Printf.sprintf "verdict %b vs %b" ok_b ok_a)
    else if List.length checks_a <> List.length checks_b then
      Some "check lists differ"
    else
      List.find_map
        (fun (((label, _, _) as a), b) ->
          if a = b then None
          else Some (Printf.sprintf "check %S: outcome or detail differs" label))
        (List.combine checks_a checks_b)
  in
  against_eager ctx ~name:"cert-agree" ~describe:"tolerance certificate" ~diff
    (fun e _b -> cert_sig (certificate ctx e ctx.m.Spec.program))

let o_reorder_stable ctx =
  let actions = Program.actions ctx.m.Spec.program in
  if Array.length actions < 2 then None
  else begin
    let rng = Prng.create ctx.reorder_seed in
    Prng.shuffle_in_place rng actions;
    let reordered =
      Program.make
        ~name:(Program.name ctx.m.Spec.program)
        ctx.m.Spec.env (Array.to_list actions)
    in
    let e = lazy_e ctx in
    let ok_orig = Certify.ok (certificate ctx e ctx.m.Spec.program) in
    let ok_re = Certify.ok (certificate ctx e reordered) in
    if ok_orig <> ok_re then
      Some
        {
          oracle = "reorder-stable";
          detail =
            Printf.sprintf
              "certificate verdict changed under action reordering (%b -> %b)"
              ok_orig ok_re;
        }
    else
      let closed p =
        match
          Closure.program_closed e (Compile.program p)
            ~pred:ctx.m.Spec.invariant
        with
        | Ok () -> true
        | Error _ -> false
      in
      if closed ctx.m.Spec.program <> closed reordered then
        Some
          {
            oracle = "reorder-stable";
            detail = "invariant closure verdict changed under action reordering";
          }
      else None
  end

let o_storm_consistent ctx =
  let e = lazy_e ctx in
  let cert = certificate ctx e ctx.m.Spec.program in
  if not (Certify.ok cert) then None
  else begin
    (* The storm starts in S and injects at most [cert_budget] single-step
       faults, so it can only visit the budgeted span of the legitimate
       state. When the fault-free convergence verdict over that span is
       exact (acyclic region, worst case [w] steps), any interleaving uses
       at most [(budget+1) * w] program steps plus [budget] injections —
       a theorem-implied bound, so a trial that exceeds it is a real
       contradiction, not bad luck. *)
    let sp =
      span ctx e ~budget:(Some ctx.cfg.cert_budget)
        ~from:(Engine.Seeds [ ctx.m.Spec.legit ])
    in
    match
      Convergence.check_unfair e ctx.cp
        ~from:(Engine.Seeds (Faultspan.states sp))
        ~target:ctx.m.Spec.invariant
    with
    | Error _ | Ok { worst_case_steps = None; _ } -> None
    | Ok { worst_case_steps = Some w; _ } ->
        let b = ctx.cfg.cert_budget in
        let max_steps = ((b + 1) * (w + 1)) + b + 4 in
        let result =
          Sim.Storm.trials ~max_steps ~fault_budget:b ~jobs:1
            ~rng:(Prng.create ctx.storm_seed) ~trials:ctx.cfg.storm_trials
            ~daemon:(fun r -> Sim.Daemon.random r)
            ~prepare:(fun _ -> State.copy ctx.m.Spec.legit)
            ~stop:ctx.m.Spec.invariant ~fault:ctx.m.Spec.fault
            ~rate:ctx.cfg.storm_rate ctx.cp
        in
        if result.Sim.Storm.failures > 0 then
          Some
            {
              oracle = "storm-consistent";
              detail =
                Printf.sprintf
                  "%d/%d storm trials failed to converge within the \
                   certificate-implied bound of %d steps (budget=%d, \
                   worst-case=%d)"
                  result.Sim.Storm.failures ctx.cfg.storm_trials max_steps b w;
            }
        else None
  end

(* The adversary bound (Tol.Adversary: exact worst-case recovery steps
   over the span under a worst-case scheduler) is validated three ways on
   models with a positive certificate:

   1. eager and lazy engines produce the identical result;
   2. the verdict coincides with the exact unfair convergence check over
      the same span — [Bounded w] iff the fault-free region is acyclic
      with longest path [w - 1], and then the bounds are equal;
   3. when bounded, the theorem-implied composite bound dominates every
      storm trial: at most [budget] injections split a trial into
      fault-free segments of at most [w] program steps each, so a trial
      that fails to converge within [(b+1)*(w+1) + b + 4] steps is a real
      soundness contradiction, not bad luck. *)
let o_adversary_sound ctx =
  let fail detail = Some { oracle = "adversary-sound"; detail } in
  let e = lazy_e ctx in
  if not (Certify.ok (certificate ctx e ctx.m.Spec.program)) then None
  else begin
    let budget = Some ctx.cfg.cert_budget in
    let from = Engine.Seeds [ ctx.m.Spec.legit ] in
    let adv_of e =
      let sp = span ctx e ~budget ~from in
      ( sp,
        Tol.Adversary.worst_case e ~program:ctx.cp ~span:sp
          ~invariant:ctx.m.Spec.invariant () )
    in
    let adv_sig (r : Tol.Adversary.result) =
      ( (match r.Tol.Adversary.verdict with
        | Tol.Adversary.Bounded w -> Some w
        | Tol.Adversary.Unbounded _ -> None),
        r.Tol.Adversary.span_states,
        r.Tol.Adversary.outside )
    in
    let adv_str (b, states, outside) =
      Printf.sprintf "bound=%s span=%d outside=%d"
        (match b with Some w -> string_of_int w | None -> "unbounded")
        states outside
    in
    let sp, adv = adv_of e in
    let _, adv_eager = adv_of (eager ctx) in
    if adv_sig adv <> adv_sig adv_eager then
      fail
        (Printf.sprintf "lazy (%s) disagrees with eager (%s)"
           (adv_str (adv_sig adv))
           (adv_str (adv_sig adv_eager)))
    else
      let conv_worst =
        match
          Convergence.check_unfair e ctx.cp
            ~from:(Engine.Seeds (Faultspan.states sp))
            ~target:ctx.m.Spec.invariant
        with
        | Ok { Convergence.worst_case_steps; _ } -> worst_case_steps
        | Error _ -> None
      in
      match (adv.Tol.Adversary.verdict, conv_worst) with
      | Tol.Adversary.Bounded w, Some w' when w <> w' ->
          fail
            (Printf.sprintf
               "adversary bound %d but exact convergence worst case %d" w w')
      | Tol.Adversary.Bounded w, None ->
          fail
            (Printf.sprintf
               "adversary bound %d but the unfair convergence check found no \
                finite worst case"
               w)
      | Tol.Adversary.Unbounded _, Some w' ->
          fail
            (Printf.sprintf
               "adversary says unbounded but the unfair convergence check \
                bounds recovery at %d steps"
               w')
      | Tol.Adversary.Unbounded _, None -> None
      | Tol.Adversary.Bounded w, Some _ ->
          let b = ctx.cfg.cert_budget in
          let max_steps = ((b + 1) * (w + 1)) + b + 4 in
          let result =
            Sim.Storm.trials ~max_steps ~fault_budget:b ~jobs:1
              ~rng:(Prng.create ctx.storm_seed) ~trials:ctx.cfg.storm_trials
              ~daemon:(fun r -> Sim.Daemon.random r)
              ~prepare:(fun _ -> State.copy ctx.m.Spec.legit)
              ~stop:ctx.m.Spec.invariant ~fault:ctx.m.Spec.fault
              ~rate:ctx.cfg.storm_rate ctx.cp
          in
          if result.Sim.Storm.failures > 0 then
            fail
              (Printf.sprintf
                 "%d/%d storm trials exceeded the adversary-implied bound of \
                  %d steps (budget=%d, adversary bound=%d)"
                 result.Sim.Storm.failures ctx.cfg.storm_trials max_steps b w)
          else None
  end

(* Fuzz models are small, so the engines above resolve their visited-set
   storage to direct-mapped arrays. This oracle re-runs the region query
   on engines with {e forced} open-addressing storage, so the probed
   tables face the same random models as everything else. *)
let o_storage_agree ctx =
  let mk backend =
    Engine.create ~backend ~max_states:engine_budget ~jobs:1
      ~storage:Engine.Probed ~guard:ctx.guard ctx.m.Spec.env
  in
  let legs =
    [ ("lazy/probed", mk Engine.Lazy); ("parallel/probed", mk Engine.Parallel) ]
  in
  let sig_of e from =
    region_sig ~bump:0
      (Engine.region e ctx.cp ~from ~target:ctx.m.Spec.invariant)
  in
  List.fold_left
    (fun acc (rname, from) ->
      match acc with
      | Some _ -> acc
      | None ->
          let reference = sig_of (eager ctx) from in
          List.fold_left
            (fun acc (lname, e) ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match diff_region reference (sig_of e from) with
                  | None -> None
                  | Some why ->
                      Some
                        {
                          oracle = "storage-agree";
                          detail =
                            Printf.sprintf
                              "roots=%s: %s disagrees with eager: %s" rname
                              lname why;
                        }))
            None legs)
    None (root_sets ctx)

(* The .nm surface form round-trips: emitting the materialized model as
   model-language text and compiling it back through the full
   lexer/parser/elaborator pipeline yields a model with the same
   reachable regions (from both root sets), the same convergence
   verdict, and the same fault span — checked on the eager and lazy
   backends. Fault action *names* differ by construction (Emit renames
   "fault:<j>" to "f<j>"), so the comparison sticks to the
   name-independent signatures. *)
let o_emit_roundtrip ctx =
  let fail detail = Some { oracle = "emit-roundtrip"; detail } in
  let text = Emit.model_to_nm ctx.m in
  match Lang.Driver.compile_string ~file:"<emitted>" text with
  | exception Lang.Err.Error e ->
      fail ("emitted model rejected: " ^ Lang.Err.to_string e)
  | em -> (
      let open Lang.Elab in
      let ecp = Compile.program em.program in
      let efaults =
        Compile.program (Program.make ~name:"faults" em.env em.fault_actions)
      in
      let einv st = em.invariant st in
      let pairs b =
        (* fresh emitted-side engine per backend; the direct side reuses
           the ctx engine. No defect bump on either side: both sides run
           the same backend, so a simulated defect cancels out and this
           oracle stays quiet during harness self-tests. *)
        let e = List.assoc b ctx.engines in
        let ee =
          Engine.create ~backend:b ~max_states:engine_budget ~jobs:1
            ~guard:ctx.guard em.env
        in
        (e, ee)
      in
      let check b =
        let e, ee = pairs b in
        let roots =
          [
            ( "legit",
              Engine.Seeds [ ctx.m.Spec.legit ],
              Engine.Seeds [ em.init ] );
            ("all", Engine.All, Engine.All);
          ]
        in
        List.fold_left
          (fun acc (rname, from, efrom) ->
            match acc with
            | Some _ -> acc
            | None -> (
                let where what =
                  Printf.sprintf "%s roots=%s %s" (backend_name b) rname what
                in
                let dr =
                  region_sig ~bump:0
                    (Engine.region e ctx.cp ~from ~target:ctx.m.Spec.invariant)
                in
                let er =
                  region_sig ~bump:0
                    (Engine.region ee ecp ~from:efrom ~target:einv)
                in
                match diff_region dr er with
                | Some why -> fail (where ("region: " ^ why))
                | None -> (
                    let dv =
                      verdict_sig ctx.m.Spec.env
                        (Convergence.check_unfair e ctx.cp ~from
                           ~target:ctx.m.Spec.invariant)
                    in
                    let ev =
                      verdict_sig em.env
                        (Convergence.check_unfair ee ecp ~from:efrom
                           ~target:einv)
                    in
                    if dv <> ev then
                      fail
                        (where
                           (Printf.sprintf "verdict: %s vs %s"
                              (verdict_str dv) (verdict_str ev)))
                    else
                      let budget = Some ctx.cfg.cert_budget in
                      let ds =
                        span_sig ~bump:0 (span ctx e ~budget ~from)
                      in
                      let es =
                        span_sig ~bump:0
                          (Faultspan.compute ee ~program:ecp ?budget
                             ~faults:efaults ~from:efrom ())
                      in
                      if ds <> es then
                        fail
                          (where
                             (Printf.sprintf "span: %s vs %s" (span_str ds)
                                (span_str es)))
                      else None)))
          None roots
      in
      match check Engine.Eager with
      | Some f -> Some f
      | None -> check Engine.Lazy)

let oracles =
  [
    ("region-agree", o_region_agree);
    ("verdict-agree", o_verdict_agree);
    ("span-agree", o_span_agree);
    ("span-monotone", o_span_monotone);
    ("cert-agree", o_cert_agree);
    ("reorder-stable", o_reorder_stable);
    ("storm-consistent", o_storm_consistent);
    ("adversary-sound", o_adversary_sound);
    ("storage-agree", o_storage_agree);
    ("emit-roundtrip", o_emit_roundtrip);
  ]

let make_ctx cfg ~guard ~rng (m : Spec.model) =
  (* Draw the oracle-local seeds up front so every oracle is a pure
     function of the model regardless of evaluation order. *)
  let storm_seed = Prng.int rng (1 lsl 30) in
  let reorder_seed = Prng.int rng (1 lsl 30) in
  let faults_prog =
    Program.make ~name:"faults" m.Spec.env m.Spec.fault_actions
  in
  {
    cfg;
    m;
    cp = Compile.program m.Spec.program;
    faults_cp = Compile.program faults_prog;
    engines =
      List.map
        (fun b ->
          ( b,
            Engine.create ~backend:b ~max_states:engine_budget ~jobs:1 ~guard
              m.Spec.env ))
        backends;
    guard;
    storm_seed;
    reorder_seed;
  }

let run ?(config = default) ?(guard = Rt.Guard.inert) ~rng m =
  let ctx = make_ctx config ~guard ~rng m in
  List.fold_left
    (fun acc (_, o) -> match acc with Some _ -> acc | None -> o ctx)
    None oracles
