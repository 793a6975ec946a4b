(* One serve job: a validated request, its compiled model, its cache
   key, and the analysis runners both front ends share.

   [prepare] runs on the reader thread — it is the cheap, allocation-
   bounded part (option validation, one compile of a size-capped model
   text, a SHA-256) whose results let the reader answer cache hits and
   rejections without ever touching the executor. [run] is the
   expensive part, executed one job at a time on the executor over the
   server's shared Par.Pool: the op's runner, then its JSON.

   The runners ([check], [certify], [tolerance], [storm], [fuzz]) are
   the one place an analysis is set up and its stops are sorted: the
   CLI calls the same functions with its flags and renders the same
   [answer] as text, and [exit_code] is the exit-code contract of both.

   Cache-key policy: the key covers exactly the inputs that determine
   the result bytes — the op, the canonical model digest (params
   folded), and the per-op semantic options. It excludes [jobs] (every
   backend is bit-identical at any job count — the repo's equivalence
   contract) and the resource knobs deadline/budget_states/budget_bytes
   (a completed verdict is valid however much budget it was given; runs
   the budget stops are exit-5 and never cached). *)

type options = {
  engine : Explore.Engine.backend;  (* default Lazy: serves arbitrary
                                       models without an eager-size cap *)
  max_states : int;
  ball : int;
  seed : int;
  trials : int;
  rate : float;
  max_steps : int;
  faults : string option;
  fault_budget : int option;
  budget_max : int;  (* tolerance sweep range: budgets 0..budget_max *)
  adversary : bool;  (* tolerance: also run the adversary bound *)
  count : int;
  max_vars : int;
  params : (string * int) list;
  (* resource knobs — never part of the cache key *)
  deadline : float option;
  budget_states : int option;
  budget_bytes : int option;
}

let defaults =
  {
    engine = Explore.Engine.Lazy;
    max_states = 2_000_000;
    ball = -1;
    seed = 42;
    trials = 500;
    rate = 0.05;
    max_steps = 100_000;
    faults = None;
    fault_budget = None;
    budget_max = 3;
    adversary = false;
    count = 200;
    max_vars = 4;
    params = [];
    deadline = None;
    budget_states = None;
    budget_bytes = None;
  }

let backends =
  Explore.Engine.[ ("eager", Eager); ("lazy", Lazy); ("parallel", Parallel) ]

let backend_name b = fst (List.find (fun (_, b') -> b' = b) backends)

let ( let* ) = Result.bind

let as_int name v =
  match Obs.Json.to_int v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "option %s: expected an integer" name)

let as_float name = function
  | Obs.Json.Float f -> Ok f
  | Obs.Json.Int n -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "option %s: expected a number" name)

let as_string name = function
  | Obs.Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "option %s: expected a string" name)

(* A value checked by a shared range rule, its reason prefixed with the
   option's name. *)
let in_range name check v =
  Result.map_error (Printf.sprintf "option %s: %s" name) (check v)

let check_positive n = if n > 0 then Ok n else Error "must be positive"
let positive name n = in_range name check_positive n
let check_max_states = check_positive
let check_non_negative n = if n >= 0 then Ok n else Error "must be non-negative"
let check_budget_max = check_non_negative
let check_count = check_non_negative
let check_max_vars n = if n >= 2 then Ok n else Error "must be at least 2"

let parse_params v =
  match v with
  | Obs.Json.Obj fields ->
      List.fold_left
        (fun acc (name, value) ->
          let* acc = acc in
          let* n = as_int (Printf.sprintf "params.%s" name) value in
          Ok ((name, n) :: acc))
        (Ok []) fields
      |> Result.map List.rev
  | _ -> Error "option params: expected an object of NAME: INT"

let options_of_json fields =
  List.fold_left
    (fun acc (name, value) ->
      let* o = acc in
      match name with
      | "engine" -> (
          let* s = as_string name value in
          match List.assoc_opt s backends with
          | Some engine -> Ok { o with engine }
          | None ->
              Error
                (Printf.sprintf
                   "option engine: unknown engine %S (eager|lazy|parallel)" s))
      | "max_states" ->
          let* n = as_int name value in
          let* n = in_range name check_max_states n in
          Ok { o with max_states = n }
      | "ball" ->
          let* n = as_int name value in
          Ok { o with ball = n }
      | "seed" ->
          let* n = as_int name value in
          Ok { o with seed = n }
      | "trials" ->
          let* n = as_int name value in
          let* n = in_range name Sim.Storm.check_trials n in
          Ok { o with trials = n }
      | "rate" ->
          let* f = as_float name value in
          let* f = in_range name Sim.Storm.check_rate f in
          Ok { o with rate = f }
      | "max_steps" ->
          let* n = as_int name value in
          let* n = in_range name Sim.Storm.check_max_steps n in
          Ok { o with max_steps = n }
      | "faults" ->
          let* s = as_string name value in
          Ok { o with faults = Some s }
      | "fault_budget" ->
          let* n = as_int name value in
          Ok { o with fault_budget = Some n }
      | "budget_max" ->
          let* n = as_int name value in
          let* n = in_range name check_budget_max n in
          Ok { o with budget_max = n }
      | "adversary" -> (
          match value with
          | Obs.Json.Bool b -> Ok { o with adversary = b }
          | _ -> Error "option adversary: expected a boolean")
      | "count" ->
          let* n = as_int name value in
          let* n = in_range name check_count n in
          Ok { o with count = n }
      | "max_vars" ->
          let* n = as_int name value in
          let* n = in_range name check_max_vars n in
          Ok { o with max_vars = n }
      | "params" ->
          let* ps = parse_params value in
          Ok { o with params = ps }
      | "deadline" ->
          let* f = as_float name value in
          if f <= 0. then Error "option deadline: must be positive"
          else Ok { o with deadline = Some f }
      | "budget_states" ->
          let* n = as_int name value in
          let* n = positive name n in
          Ok { o with budget_states = Some n }
      | "budget_bytes" ->
          let* n = as_int name value in
          let* n = positive name n in
          Ok { o with budget_bytes = Some n }
      | name -> Error (Printf.sprintf "unknown option %S" name))
    (Ok defaults) fields

(* A model as the runners see it, built from a compiled .nm model here
   and from a built-in instance or a .nm model by the CLI. *)
type model = {
  name : string;
  env : Guarded.Env.t;
  program : Guarded.Program.t;
  invariant : Guarded.State.t -> bool;
  init : unit -> Guarded.State.t;  (* fresh per call: storms inject into it *)
  faults : Guarded.Action.t list;  (* declared: the default fault class *)
  envs : Guarded.Action.t list;  (* declared environment actions *)
}

let model_of_elab (em : Lang.Elab.t) =
  {
    name = em.name;
    env = em.env;
    program = em.program;
    invariant = em.invariant;
    init = (fun () -> Guarded.State.copy em.init);
    faults = em.fault_actions;
    envs = em.env_actions;
  }

type prepared = {
  op : Proto.op;
  opts : options;
  model : model option;  (* [None] only for fuzz *)
  fault : Sim.Fault.t option;  (* resolved fault class (certify/storm) *)
  model_digest : string;  (* ["-"] for fuzz *)
  key : string;
}

let key_of ~op ~digest o =
  let i name v = Printf.sprintf "%s=%d" name v in
  let engine_parts =
    [
      "engine=" ^ backend_name o.engine;
      i "max_states" o.max_states;
      i "ball" o.ball;
    ]
  in
  let faults_part =
    "faults=" ^ Option.value o.faults ~default:"declared"
  in
  let fault_budget_part =
    "fault_budget="
    ^ (match o.fault_budget with None -> "default" | Some b -> string_of_int b)
  in
  let parts =
    match op with
    | Proto.Check -> engine_parts
    | Proto.Certify -> engine_parts @ [ faults_part; fault_budget_part ]
    | Proto.Tolerance ->
        engine_parts
        @ [
            faults_part;
            i "budget_max" o.budget_max;
            Printf.sprintf "adversary=%b" o.adversary;
          ]
    | Proto.Storm ->
        [
          i "seed" o.seed;
          i "trials" o.trials;
          Printf.sprintf "rate=%.17g" o.rate;
          i "max_steps" o.max_steps;
          faults_part;
          fault_budget_part;
        ]
    | Proto.Fuzz -> [ i "seed" o.seed; i "count" o.count; i "max_vars" o.max_vars ]
    | Proto.Ping | Proto.Metrics -> []
  in
  Lang.Sha256.hex
    (String.concat "|"
       (("op=" ^ Proto.op_name op) :: ("model=" ^ digest) :: parts))

let bad msg = Error (Proto.Bad_request, msg)

let compile_model ~params text =
  try
    let src = Lang.Source.of_string ~file:"<request>" text in
    let ast = Lang.Driver.parse_string ~file:"<request>" text in
    let em = Lang.Driver.compile ~params src ast in
    Ok (ast, em)
  with
  | Lang.Err.Error e -> bad (Lang.Err.to_string e)
  | Failure msg -> bad msg

let prepare (req : Proto.request) =
  match req.op with
  | Proto.Ping | Proto.Metrics ->
      bad (Printf.sprintf "op %S is not a job" (Proto.op_name req.op))
  | op -> (
      match options_of_json req.options with
      | Error msg -> bad msg
      | Ok opts -> (
          match (op, req.model) with
          | Proto.Fuzz, Some _ -> bad "fuzz takes no model"
          | Proto.Fuzz, None ->
              let digest = "-" in
              Ok
                {
                  op;
                  opts;
                  model = None;
                  fault = None;
                  model_digest = digest;
                  key = key_of ~op ~digest opts;
                }
          | _, None ->
              bad
                (Printf.sprintf "op %S requires a model" (Proto.op_name op))
          | _, Some text -> (
              match compile_model ~params:opts.params text with
              | Error e -> Error e
              | Ok (ast, em) -> (
                  let digest =
                    Lang.Canon.with_params ~params:em.Lang.Elab.params
                      (Lang.Canon.model_digest ast)
                  in
                  (* Resolve the fault class up front so a bad spec (or a
                     certify job with no fault class at all) is rejected
                     inline, before it ever occupies the executor. *)
                  let env = em.Lang.Elab.env
                  and spec = opts.faults
                  and declared = em.Lang.Elab.fault_actions in
                  let bad_spec s =
                    Printf.sprintf "option faults: bad spec %S (%s)" s
                      Sim.Fault.spec_syntax
                  in
                  let fault_result =
                    match op with
                    | Proto.Certify -> (
                        match Sim.Fault.resolve env ~spec ~declared with
                        | Ok None ->
                            Error
                              "certify: the model declares no faults; pass \
                               options.faults"
                        | r -> Result.map_error bad_spec r)
                    | Proto.Tolerance | Proto.Storm ->
                        Sim.Fault.resolve_or_corrupt env ~spec ~declared
                        |> Result.map Option.some
                        |> Result.map_error bad_spec
                    | _ -> Ok None
                  in
                  match fault_result with
                  | Error msg -> bad msg
                  | Ok fault ->
                      Ok
                        {
                          op;
                          opts;
                          model = Some (model_of_elab em);
                          fault;
                          model_digest = digest;
                          key = key_of ~op ~digest opts;
                        }))))

(* --- the runners --- *)

type 'a answer =
  | Holds of 'a
  | Fails of 'a
  | Counterexamples of 'a
  | Partial of 'a * Explore.Engine.interrupt
  | Error of string
  | Too_large of float
  | Unaddressable of { layout : string; bits : int; states : float }
  | Region_overflow of int
  | Interrupted of Explore.Engine.interrupt

let exit_code = function
  | Holds _ -> 0
  | Error _ -> 1
  | Fails _ -> 2
  | Too_large _ | Unaddressable _ | Counterexamples _ -> 3
  | Region_overflow _ -> 4
  | Partial _ | Interrupted _ -> 5

let catch f =
  try f () with
  | Explore.Space.Too_large total -> Too_large total
  | Explore.Codec.Overflow { layout; bits; states } ->
      Unaddressable { layout; bits; states }
  | Explore.Engine.Region_overflow n -> Region_overflow n
  | Explore.Engine.Interrupted it -> Interrupted it
  | Rt.Snapshot.Corrupt msg -> Error ("cannot resume: " ^ msg)
  | Failure msg | Invalid_argument msg -> Error msg

type 'a runner =
  ?pool:Par.Pool.t -> ?jobs:int -> obs:Obs.Ctx.t -> guard:Rt.Guard.t -> 'a

type checked =
  string * (Explore.Convergence.stats, Explore.Convergence.failure) result

let engine ?pool ?jobs ~obs ~guard ?snapshots ?salt m o =
  Explore.Engine.create ~backend:o.engine ~max_states:o.max_states ?jobs
    ?pool ~obs ~guard ?snapshots ?salt m.env

(* [None] (each analysis's own default roots) unless [ball] asks for the
   states within [ball] faults of the model's initial state. *)
let roots m o =
  if o.ball < 0 then None
  else
    Some
      (Explore.Engine.Seeds
         (Explore.Engine.ball m.env ~center:(m.init ()) ~radius:o.ball))

let title m (fault : Sim.Fault.t) =
  Printf.sprintf "%s under %s" m.name fault.name

let verdict ok v = if ok then Holds v else Fails v

let check ?pool ?jobs ~obs ~guard ?snapshots ?salt ?resume m o =
  catch @@ fun () ->
  let engine = engine ?pool ?jobs ~obs ~guard ?snapshots ?salt m o in
  let from = Option.value (roots m o) ~default:Explore.Engine.All in
  let result =
    Explore.Convergence.check_unfair ?resume engine
      (Guarded.Compile.program m.program)
      ~from ~target:m.invariant
  in
  verdict (Result.is_ok result) (Explore.Engine.backend_name engine, result)

let certify ?pool ?jobs ~obs ~guard ?snapshots ?salt ?resume m fault o =
  catch @@ fun () ->
  let engine = engine ?pool ?jobs ~obs ~guard ?snapshots ?salt m o in
  let from = roots m o in
  (* a negative budget asks for the unbounded, recurring-fault span *)
  let budget =
    match o.fault_budget with
    | Some b when b < 0 -> None
    | Some b -> Some b
    | None -> Some (Sim.Fault.burst fault)
  in
  let cert =
    Nonmask.Certify.tolerance ~engine ~program:m.program
      ~faults:(Sim.Fault.actions fault) ~envs:m.envs ~invariant:m.invariant
      ?from ?budget ?resume ~name:(title m fault) ()
  in
  verdict (Nonmask.Certify.ok cert) cert

let tolerance ?pool ?jobs ~obs ~guard ?budgets ?on_point m fault o =
  catch @@ fun () ->
  let engine = engine ?pool ?jobs ~obs ~guard m o in
  let from = roots m o in
  let budgets =
    match budgets with Some b -> b | None -> Tol.Sweep.range ~max:o.budget_max
  in
  let frontier =
    Tol.Sweep.run ~engine ~program:m.program
      ~faults:(Sim.Fault.actions fault) ~envs:m.envs ~invariant:m.invariant
      ?from ~budgets ~adversary:o.adversary ?on_point ~name:(title m fault) ()
  in
  (* a completed sweep holds whatever its points' verdicts: the curve is
     the result *)
  Holds (Explore.Engine.backend_name engine, frontier)

(* The reason a guard-governed trial sweep went partial: the cancel
   token records what tripped first. *)
let guard_reason guard =
  match Option.bind (Rt.Guard.cancel guard) Rt.Cancel.get with
  | Some r -> r
  | None -> Rt.Cancel.Deadline

(* A trial sweep's progress: [done_] trials ran, [skipped] never did. *)
let partial reason ~done_ ~skipped =
  {
    Explore.Engine.reason;
    states_seen = done_;
    frontier_size = skipped;
    snapshot = None;
  }

let storm ?pool ?jobs ~obs ~guard ?watchdog m fault o =
  catch @@ fun () ->
  let fault_budget =
    match o.fault_budget with Some b when b >= 0 -> Some b | _ -> None
  in
  let r =
    Sim.Storm.trials ~max_steps:o.max_steps ?fault_budget ?jobs ?pool ~obs
      ~guard ?watchdog ~rng:(Prng.create o.seed) ~trials:o.trials
      ~daemon:(fun r -> Sim.Daemon.random r)
      ~prepare:(fun r ->
        let s = m.init () in
        fault.Sim.Fault.inject r s;
        s)
      ~stop:m.invariant ~fault ~rate:o.rate
      (Guarded.Compile.program m.program)
  in
  let skipped = r.Sim.Storm.skipped in
  if skipped = 0 then Holds r
  else
    Partial
      (r, partial (guard_reason guard) ~done_:(o.trials - skipped) ~skipped)

let fuzz ?pool ?jobs ~obs ~guard ?shrink ?watchdog ?corpus_out ?corpus_all o
    =
  catch @@ fun () ->
  let r =
    Gen.Fuzz.run
      ~gen_config:(Gen.Generate.with_max_vars o.max_vars)
      ?shrink ?jobs ?pool ~obs ~guard ?watchdog ?corpus_out ?corpus_all
      ~seed:o.seed ~count:o.count ()
  in
  let skipped = r.Gen.Fuzz.skipped and timeouts = r.Gen.Fuzz.timeouts in
  (* a counterexample outranks a partial sweep; watchdog-abandoned trials
     also leave the sample partial, but only a skip means the guard
     tripped *)
  if r.Gen.Fuzz.counterexamples <> [] then Counterexamples r
  else if skipped = 0 && timeouts = [] then Holds r
  else
    Partial
      ( r,
        partial
          (if skipped > 0 then guard_reason guard
           else Rt.Cancel.Requested "trial-timeout")
          ~done_:(o.count - skipped - List.length timeouts)
          ~skipped )

(* --- the JSON renderer --- *)

type outcome = {
  exit_code : int;  (* [exit_code] of the runner's answer *)
  cacheable : bool;
  result : Obs.Json.t;  (* the reply's [result] object *)
  states_explored : int;  (* work accounting for the server metrics *)
}

let render pp v = Format.asprintf "%a" pp v

(* A runner's answer as a reply. [fields v] gives a finished analysis's
   work count and fields; [holds] and [fails] name its two verdicts. A
   stop renders here, once; only complete outcomes (exit 0/2/3/4) are
   cacheable, and [complete v] can withhold a finished one. *)
let reply ?(holds = "done") ?(fails = "failed") ?(complete = fun _ -> true)
    fields answer =
  let exit_code = exit_code answer in
  let obj status fields =
    Obs.Json.Obj
      (("status", Obs.Json.Str status)
      :: ("exit", Obs.Json.Int exit_code)
      :: fields)
  in
  let finished status v =
    let states, fs = fields v in
    {
      exit_code;
      cacheable = exit_code <> 5 && complete v;
      result = obj status fs;
      states_explored = states;
    }
  in
  let stopped ?(cacheable = false) ?states status msg =
    let seen =
      match states with
      | Some n -> [ ("states_seen", Obs.Json.Int n) ]
      | None -> []
    in
    {
      exit_code;
      cacheable;
      result = obj status (("message", Obs.Json.Str msg) :: seen);
      states_explored = Option.value states ~default:0;
    }
  in
  match answer with
  | Holds v -> finished holds v
  | Fails v -> finished fails v
  | Counterexamples v -> finished "counterexamples" v
  | Partial (v, _) -> finished "incomplete" v
  | Error msg -> stopped "error" msg
  | Too_large total ->
      stopped ~cacheable:true "too-large"
        (Printf.sprintf
           "~%.3g states, over the eager budget; use engine=lazy or raise \
            max_states"
           total)
  | Unaddressable { layout; bits; states } ->
      stopped ~cacheable:true "too-large"
        (Printf.sprintf
           "~%.3g states, more than the %s encoding can address (%d bits \
            needed)%s"
           states layout bits
           (if layout = "dense" then "" else "; use engine=lazy"))
  | Region_overflow n ->
      stopped ~cacheable:true ~states:n "region-overflow"
        (Printf.sprintf "lazy exploration exceeded the budget after %d states"
           n)
  | Interrupted it ->
      stopped ~states:it.Explore.Engine.states_seen "incomplete"
        (Rt.Cancel.reason_label it.Explore.Engine.reason)

let check_fields env (engine, result) =
  let engine = ("engine", Obs.Json.Str engine) in
  match result with
  | Ok { Explore.Convergence.region_states; explored; worst_case_steps } ->
      ( explored,
        [
          ("explored", Obs.Json.Int explored);
          ("region_states", Obs.Json.Int region_states);
          ( "worst_case_steps",
            match worst_case_steps with
            | Some w -> Obs.Json.Int w
            | None -> Obs.Json.Null );
          engine;
        ] )
  | Error f ->
      ( 0,
        [
          engine;
          ( "failure",
            Obs.Json.Str (render (Explore.Convergence.pp_failure env) f) );
        ] )

let certify_fields cert =
  let failures =
    List.map
      (fun (c : Nonmask.Certify.check) ->
        Obs.Json.Obj
          [
            ("label", Obs.Json.Str c.label);
            ( "detail",
              match c.detail with
              | Some d -> Obs.Json.Str d
              | None -> Obs.Json.Null );
          ])
      (Nonmask.Certify.failures cert)
  in
  ( 0,
    [
      ("theorem", Obs.Json.Str cert.Nonmask.Certify.theorem);
      ("checks", Obs.Json.Int (List.length cert.Nonmask.Certify.checks));
      ("failures", Obs.Json.List failures);
      ("certificate", Obs.Json.Str (render Nonmask.Certify.pp_full cert));
    ] )

let tolerance_fields (engine, frontier) =
  let points = frontier.Tol.Sweep.points in
  ( List.fold_left
      (fun acc (p : Tol.Sweep.point) ->
        if p.reused then acc else acc + p.span_states)
      0 points,
    [
      ("points", Obs.Json.List (List.map Tol.Sweep.point_json points));
      ( "cliff",
        match frontier.Tol.Sweep.cliff with
        | Some c -> Obs.Json.Int c
        | None -> Obs.Json.Null );
      ("table", Obs.Json.Str (render Tol.Sweep.pp_frontier frontier));
      ("engine", Obs.Json.Str engine);
    ] )

let storm_fields trials (r : Sim.Storm.result) =
  let steps_total = Array.fold_left ( + ) 0 r.steps in
  ( steps_total,
    [
      ("trials", Obs.Json.Int trials);
      ("converged", Obs.Json.Int (Array.length r.steps));
      ("failures", Obs.Json.Int r.failures);
      ("skipped", Obs.Json.Int r.skipped);
      ("steps_total", Obs.Json.Int steps_total);
      ("summary", Obs.Json.Str (render Sim.Storm.pp_result r));
    ] )

let fuzz_fields count (r : Gen.Fuzz.report) =
  ( count - r.skipped,
    [
      ("trials", Obs.Json.Int r.trials);
      ("skipped", Obs.Json.Int r.skipped);
      ( "counterexamples",
        Obs.Json.List
          (List.map
             (fun (c : Gen.Fuzz.counterexample) ->
               Obs.Json.Obj
                 [
                   ("trial", Obs.Json.Int c.trial);
                   ("seed", Obs.Json.Int c.seed);
                 ])
             r.counterexamples) );
      ("report", Obs.Json.Str (render Gen.Fuzz.pp_report r));
    ] )

let run ~pool ~obs ~guard p =
  let o = p.opts in
  match (p.op, p.model, p.fault) with
  | Proto.Check, Some m, _ ->
      reply ~holds:"converges" ~fails:"fails" (check_fields m.env)
        (check ~pool ~obs ~guard m o)
  | Proto.Certify, Some m, Some fault ->
      reply ~holds:"certified" certify_fields
        (certify ~pool ~obs ~guard m fault o)
  | Proto.Tolerance, Some m, Some fault ->
      reply tolerance_fields (tolerance ~pool ~obs ~guard m fault o)
  | Proto.Storm, Some m, Some fault ->
      reply (storm_fields o.trials) (storm ~pool ~obs ~guard m fault o)
  | Proto.Fuzz, None, _ ->
      reply
        ~complete:(fun (r : Gen.Fuzz.report) -> r.skipped = 0)
        (fuzz_fields o.count)
        (fuzz ~pool ~obs ~guard o)
  | _ -> reply (fun () -> (0, [])) (Error "malformed prepared job")
