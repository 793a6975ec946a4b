(* One serve job: a validated request, its compiled model, its cache
   key, and the execution mapping onto the engine/certify/storm/fuzz
   pipelines.

   [prepare] runs on the reader thread — it is the cheap, allocation-
   bounded part (option validation, one compile of a size-capped model
   text, a SHA-256) whose results let the reader answer cache hits and
   rejections without ever touching the executor. [run] is the
   expensive part, executed one job at a time on the executor over the
   server's shared Par.Pool.

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

let backend_name = function
  | Explore.Engine.Eager -> "eager"
  | Explore.Engine.Lazy -> "lazy"
  | Explore.Engine.Parallel -> "parallel"

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

let positive name n =
  if n > 0 then Ok n
  else Error (Printf.sprintf "option %s: must be positive" name)

(* A value checked by a shared range rule, its reason prefixed with the
   option's name. *)
let in_range name check v =
  Result.map_error (Printf.sprintf "option %s: %s" name) (check v)

let non_negative name n =
  if n >= 0 then Ok n
  else Error (Printf.sprintf "option %s: must be non-negative" name)

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
          match s with
          | "eager" -> Ok { o with engine = Explore.Engine.Eager }
          | "lazy" -> Ok { o with engine = Explore.Engine.Lazy }
          | "parallel" -> Ok { o with engine = Explore.Engine.Parallel }
          | s ->
              Error
                (Printf.sprintf
                   "option engine: unknown engine %S (eager|lazy|parallel)" s))
      | "max_states" ->
          let* n = as_int name value in
          let* n = positive name n in
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
          let* n = non_negative name n in
          Ok { o with budget_max = n }
      | "adversary" -> (
          match value with
          | Obs.Json.Bool b -> Ok { o with adversary = b }
          | _ -> Error "option adversary: expected a boolean")
      | "count" ->
          let* n = as_int name value in
          let* n = non_negative name n in
          Ok { o with count = n }
      | "max_vars" ->
          let* n = as_int name value in
          if n < 2 then Error "option max_vars: must be at least 2"
          else Ok { o with max_vars = n }
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

type prepared = {
  op : Proto.op;
  opts : options;
  elab : Lang.Elab.t option;  (* [None] only for fuzz *)
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
                  elab = None;
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
                          elab = Some em;
                          fault;
                          model_digest = digest;
                          key = key_of ~op ~digest opts;
                        }))))

(* --- execution --- *)

type outcome = {
  exit_code : int;  (* the CLI's exit-code contract, in-protocol *)
  cacheable : bool;
  result : Obs.Json.t;  (* the reply's [result] object *)
  states_explored : int;  (* work accounting for the server metrics *)
}

let render pp v = Format.asprintf "%a" pp v

let result_obj ~status ~exit_code fields =
  Obs.Json.Obj
    (("status", Obs.Json.Str status)
    :: ("exit", Obs.Json.Int exit_code)
    :: fields)

let ok_outcome ?(cacheable = true) ~exit_code ~states ~status fields =
  {
    exit_code;
    cacheable;
    result = result_obj ~status ~exit_code fields;
    states_explored = states;
  }

let run_check ~pool ~obs ~guard (em : Lang.Elab.t) o =
  let engine =
    Explore.Engine.create ~backend:o.engine ~max_states:o.max_states ~pool
      ~obs ~guard em.env
  in
  let from =
    if o.ball < 0 then Explore.Engine.All
    else
      Explore.Engine.Seeds
        (Explore.Engine.ball em.env ~center:em.init ~radius:o.ball)
  in
  match
    Explore.Convergence.check_unfair engine
      (Guarded.Compile.program em.program)
      ~from ~target:em.invariant
  with
  | Ok { region_states; explored; worst_case_steps } ->
      ok_outcome ~exit_code:0 ~states:explored ~status:"converges"
        [
          ("explored", Obs.Json.Int explored);
          ("region_states", Obs.Json.Int region_states);
          ( "worst_case_steps",
            match worst_case_steps with
            | Some w -> Obs.Json.Int w
            | None -> Obs.Json.Null );
          ("engine", Obs.Json.Str (Explore.Engine.backend_name engine));
        ]
  | Error f ->
      ok_outcome ~exit_code:2 ~states:0 ~status:"fails"
        [
          ("engine", Obs.Json.Str (Explore.Engine.backend_name engine));
          ( "failure",
            Obs.Json.Str (render (Explore.Convergence.pp_failure em.env) f) );
        ]

let run_certify ~pool ~obs ~guard (em : Lang.Elab.t) fault o =
  let engine =
    Explore.Engine.create ~backend:o.engine ~max_states:o.max_states ~pool
      ~obs ~guard em.env
  in
  let from =
    if o.ball < 0 then None
    else
      Some
        (Explore.Engine.Seeds
           (Explore.Engine.ball em.env ~center:em.init ~radius:o.ball))
  in
  let budget =
    match o.fault_budget with
    | Some b when b < 0 -> None
    | Some b -> Some b
    | None -> Some (Sim.Fault.burst fault)
  in
  let cert =
    Nonmask.Certify.tolerance ~engine ~program:em.program
      ~faults:(Sim.Fault.actions fault) ~invariant:em.invariant ?from ?budget
      ~name:(Printf.sprintf "%s under %s" em.name fault.Sim.Fault.name)
      ()
  in
  let ok = Nonmask.Certify.ok cert in
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
  ok_outcome
    ~exit_code:(if ok then 0 else 2)
    ~states:0
    ~status:(if ok then "certified" else "failed")
    [
      ("theorem", Obs.Json.Str cert.Nonmask.Certify.theorem);
      ("checks", Obs.Json.Int (List.length cert.Nonmask.Certify.checks));
      ("failures", Obs.Json.List failures);
      ("certificate", Obs.Json.Str (render Nonmask.Certify.pp_full cert));
    ]

let run_tolerance ~pool ~obs ~guard (em : Lang.Elab.t) fault o =
  let engine =
    Explore.Engine.create ~backend:o.engine ~max_states:o.max_states ~pool
      ~obs ~guard em.env
  in
  let from =
    if o.ball < 0 then None
    else
      Some
        (Explore.Engine.Seeds
           (Explore.Engine.ball em.env ~center:em.init ~radius:o.ball))
  in
  let frontier =
    Tol.Sweep.run ~engine ~program:em.program
      ~faults:(Sim.Fault.actions fault) ~envs:em.env_actions
      ~invariant:em.invariant ?from
      ~budgets:(Tol.Sweep.range ~max:o.budget_max)
      ~adversary:o.adversary
      ~name:(Printf.sprintf "%s under %s" em.name fault.Sim.Fault.name)
      ()
  in
  let span_total =
    List.fold_left
      (fun acc (p : Tol.Sweep.point) ->
        if p.Tol.Sweep.reused then acc else acc + p.Tol.Sweep.span_states)
      0 frontier.Tol.Sweep.points
  in
  (* the sweep either completes or raises (Interrupted/overflow), so a
     returned frontier is always a complete, cacheable curve *)
  ok_outcome ~exit_code:0 ~states:span_total ~status:"done"
    [
      ( "points",
        Obs.Json.List (List.map Tol.Sweep.point_json frontier.Tol.Sweep.points)
      );
      ( "cliff",
        match frontier.Tol.Sweep.cliff with
        | Some c -> Obs.Json.Int c
        | None -> Obs.Json.Null );
      ("table", Obs.Json.Str (render Tol.Sweep.pp_frontier frontier));
      ("engine", Obs.Json.Str (Explore.Engine.backend_name engine));
    ]

let run_storm ~pool ~obs ~guard (em : Lang.Elab.t) fault o =
  let cp = Guarded.Compile.program em.program in
  let fault_budget =
    match o.fault_budget with Some b when b >= 0 -> Some b | _ -> None
  in
  let result =
    Sim.Storm.trials ~max_steps:o.max_steps ?fault_budget ~pool ~obs ~guard
      ~rng:(Prng.create o.seed) ~trials:o.trials
      ~daemon:(fun r -> Sim.Daemon.random r)
      ~prepare:(fun r ->
        (* copy: em.init is shared across trials and [inject] mutates *)
        let s = Guarded.State.copy em.init in
        fault.Sim.Fault.inject r s;
        s)
      ~stop:em.invariant ~fault ~rate:o.rate cp
  in
  let steps_total = Array.fold_left ( + ) 0 result.Sim.Storm.steps in
  let incomplete = result.Sim.Storm.skipped > 0 in
  ok_outcome
    ~exit_code:(if incomplete then 5 else 0)
    ~cacheable:(not incomplete) ~states:steps_total
    ~status:(if incomplete then "incomplete" else "done")
    [
      ("trials", Obs.Json.Int o.trials);
      ("converged", Obs.Json.Int (Array.length result.Sim.Storm.steps));
      ("failures", Obs.Json.Int result.Sim.Storm.failures);
      ("skipped", Obs.Json.Int result.Sim.Storm.skipped);
      ("steps_total", Obs.Json.Int steps_total);
      ("summary", Obs.Json.Str (render Sim.Storm.pp_result result));
    ]

let run_fuzz ~pool ~obs ~guard o =
  let report =
    Gen.Fuzz.run
      ~gen_config:(Gen.Generate.with_max_vars o.max_vars)
      ~pool ~obs ~guard ~seed:o.seed ~count:o.count ()
  in
  let n_cex = List.length report.Gen.Fuzz.counterexamples in
  let incomplete = report.Gen.Fuzz.skipped > 0 in
  let exit_code = if n_cex > 0 then 3 else if incomplete then 5 else 0 in
  let status =
    if n_cex > 0 then "counterexamples"
    else if incomplete then "incomplete"
    else "done"
  in
  ok_outcome ~exit_code ~cacheable:(not incomplete)
    ~states:(o.count - report.Gen.Fuzz.skipped)
    ~status
    [
      ("trials", Obs.Json.Int report.Gen.Fuzz.trials);
      ("skipped", Obs.Json.Int report.Gen.Fuzz.skipped);
      ( "counterexamples",
        Obs.Json.List
          (List.map
             (fun (c : Gen.Fuzz.counterexample) ->
               Obs.Json.Obj
                 [
                   ("trial", Obs.Json.Int c.trial);
                   ("seed", Obs.Json.Int c.seed);
                 ])
             report.Gen.Fuzz.counterexamples) );
      ("report", Obs.Json.Str (render Gen.Fuzz.pp_report report));
    ]

let error_outcome ~exit_code ?(cacheable = false) ~status msg states =
  {
    exit_code;
    cacheable;
    result =
      result_obj ~status ~exit_code [ ("message", Obs.Json.Str msg) ]
      |> (fun r ->
           match (r, states) with
           | Obs.Json.Obj fields, Some n ->
               Obs.Json.Obj (fields @ [ ("states_seen", Obs.Json.Int n) ])
           | r, _ -> r);
    states_explored = (match states with Some n -> n | None -> 0);
  }

let run ~pool ~obs ~guard p =
  try
    match (p.op, p.elab, p.fault) with
    | Proto.Check, Some em, _ -> run_check ~pool ~obs ~guard em p.opts
    | Proto.Certify, Some em, Some fault ->
        run_certify ~pool ~obs ~guard em fault p.opts
    | Proto.Tolerance, Some em, Some fault ->
        run_tolerance ~pool ~obs ~guard em fault p.opts
    | Proto.Storm, Some em, Some fault ->
        run_storm ~pool ~obs ~guard em fault p.opts
    | Proto.Fuzz, None, _ -> run_fuzz ~pool ~obs ~guard p.opts
    | _ ->
        error_outcome ~exit_code:1 ~status:"error" "malformed prepared job"
          None
  with
  | Explore.Space.Too_large total ->
      error_outcome ~exit_code:3 ~cacheable:true ~status:"too-large"
        (Printf.sprintf
           "~%.3g states, over the eager budget; use engine=lazy or raise \
            max_states"
           total)
        None
  | Explore.Codec.Overflow { layout; bits; states } ->
      error_outcome ~exit_code:3 ~cacheable:true ~status:"too-large"
        (Printf.sprintf
           "~%.3g states, more than the %s encoding can address (%d bits \
            needed)"
           states layout bits)
        None
  | Explore.Engine.Region_overflow n ->
      error_outcome ~exit_code:4 ~cacheable:true ~status:"region-overflow"
        (Printf.sprintf
           "lazy exploration exceeded the budget after %d states" n)
        (Some n)
  | Explore.Engine.Interrupted it ->
      error_outcome ~exit_code:5 ~status:"incomplete"
        (Rt.Cancel.reason_label it.Explore.Engine.reason)
        (Some it.Explore.Engine.states_seen)
  | Rt.Cancel.Cancelled reason ->
      error_outcome ~exit_code:5 ~status:"incomplete"
        (Rt.Cancel.reason_label reason) None
  | Failure msg -> error_outcome ~exit_code:1 ~status:"error" msg None
  | Invalid_argument msg ->
      error_outcome ~exit_code:1 ~status:"error" msg None
