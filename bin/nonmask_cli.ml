(* nonmask — command-line front end.

   Subcommands:
     list                         protocols and instances
     show     PROTO [opts]        print the program and constraint graph
     certify  PROTO [opts]        run the theorem validator; with
                                  --faults SPEC, certify nonmasking
                                  tolerance with a computed fault span
     tolerance PROTO [opts]       sweep fault budgets and report the
                                  tolerance frontier (span growth,
                                  verdicts, worst-case recovery, cliff),
                                  optionally with the adversarial bound
     check    PROTO [opts]        exhaustive convergence check
     simulate PROTO [opts]        fault-injection runs with statistics
     storm    PROTO [opts]        recovery under recurring faults
     fuzz     [opts]              differential fuzzing over generated models
     dot      PROTO [opts]        constraint graph in Graphviz DOT
     fmt      MODEL.nm [opts]     canonically format a model file
     export   MODEL.nm --tla|--dot   TLA+ module / dependency graph

   Protocols: diffusing, lowatomic, token-ring, dijkstra, xyz-good-tree,
   xyz-good-ordered, xyz-bad, atomic, naive-ring. Tree-based protocols take
   --tree SHAPE and --size N; ring-based take --nodes and -k. Every PROTO
   position also accepts a path to a .nm model-language file (shaped by
   repeatable --param NAME=INT overrides); see README "Model language".

   check, certify, tolerance, storm and fuzz run the analysis runners of
   Serve.Job, the ones `nonmask serve` runs, and print their answers as
   text. Exit codes are Serve.Job.exit_code (README "Exit codes",
   asserted by test/smoke_exit_codes.sh): 0 success, 1 usage error,
   2 failed verdict, 3 too large or a fuzz counterexample, 4 region
   overflow, 5 incomplete. *)

open Cmdliner

module Tree = Topology.Tree
module State = Guarded.State
module Compile = Guarded.Compile

(* A protocol instance: the model the analysis runners take, plus what
   only a built-in protocol has — its theorem certificate and constraint
   graphs. Both built-in protocols and compiled .nm model files resolve
   to this. *)
type instance = {
  model : Serve.Job.model;
  certify : (engine:Explore.Engine.t -> Nonmask.Certify.t) option;
  cgraphs : Nonmask.Cgraph.t list;
}

(* A built-in protocol declares no fault or environment actions. *)
let builtin ?certify ?(cgraphs = []) name ~env ~program ~invariant ~init =
  {
    model =
      { Serve.Job.name; env; program; invariant; init; faults = []; envs = [] };
    certify;
    cgraphs;
  }

let protocols =
  [
    "diffusing";
    "lowatomic";
    "token-ring";
    "dijkstra";
    "xyz-good-tree";
    "xyz-good-ordered";
    "xyz-bad";
    "atomic";
    "naive-ring";
    "reset";
    "spanning-tree";
  ]

let tree_of ~shape ~size ~seed =
  match shape with
  | "chain" -> Tree.chain size
  | "star" -> Tree.star size
  | "balanced" | "balanced-2" -> Tree.balanced ~arity:2 size
  | "balanced-3" -> Tree.balanced ~arity:3 size
  | "random" -> Tree.random (Prng.create seed) size
  | s -> failwith (Printf.sprintf "unknown tree shape %S" s)

(* The sizes each built-in family's constructor accepts, checked before
   it runs so an out-of-range flag is a usage error naming the flag. *)
let check_sizes proto ~shape ~size ~nodes ~k =
  let at_least flag min v =
    if v < min then
      failwith
        (Printf.sprintf "%s: %s must be at least %d (got %d)" proto flag min v)
  in
  match proto with
  | "token-ring" | "dijkstra" ->
      at_least "--nodes" 2 nodes;
      at_least "-k" 2 k
  | "naive-ring" -> at_least "--nodes" 2 nodes
  | "diffusing" | "lowatomic" | "atomic" | "reset" -> at_least "--size" 1 size
  | "spanning-tree" ->
      at_least "--size" (if shape = "cycle" then 3 else 1) size;
      let side = int_of_float (sqrt (float_of_int size)) in
      if shape = "grid" && (size < 4 || side * side <> size) then
        failwith
          (Printf.sprintf
             "%s: --size must be a square of at least 4 with --tree grid \
              (got %d; nearest: %s)"
             proto size
             (if side < 2 then "4"
              else
                Printf.sprintf "%d or %d" (side * side)
                  ((side + 1) * (side + 1))))
  | _ -> ()

let build_instance proto ~shape ~size ~nodes ~k ~seed =
  check_sizes proto ~shape ~size ~nodes ~k;
  match proto with
  | "diffusing" ->
      let d = Protocols.Diffusing.make (tree_of ~shape ~size ~seed) in
      builtin
        (Printf.sprintf "diffusing %s-%d" shape size)
        ~env:(Protocols.Diffusing.env d)
        ~program:(Protocols.Diffusing.combined d)
        ~invariant:(Protocols.Diffusing.invariant d)
        ~init:(fun () -> Protocols.Diffusing.all_green d)
        ~certify:(fun ~engine -> Protocols.Diffusing.certificate ~engine d)
        ~cgraphs:[ Protocols.Diffusing.cgraph d ]
  | "lowatomic" ->
      let d = Protocols.Diffusing_lowatomic.make (tree_of ~shape ~size ~seed) in
      builtin
        (Printf.sprintf "lowatomic %s-%d" shape size)
        ~env:(Protocols.Diffusing_lowatomic.env d)
        ~program:(Protocols.Diffusing_lowatomic.program d)
        ~invariant:(Protocols.Diffusing_lowatomic.invariant d)
        ~init:(fun () -> Protocols.Diffusing_lowatomic.all_green d)
  | "token-ring" ->
      let tr = Protocols.Token_ring.make ~nodes ~k in
      builtin
        (Printf.sprintf "token-ring %d (K=%d)" nodes k)
        ~env:(Protocols.Token_ring.env tr)
        ~program:(Protocols.Token_ring.combined tr)
        ~invariant:(Protocols.Token_ring.invariant tr)
        ~init:(fun () -> Protocols.Token_ring.all_zero tr)
        ~certify:(fun ~engine -> Protocols.Token_ring.certificate ~engine tr)
        ~cgraphs:(Protocols.Token_ring.layers tr)
  | "dijkstra" ->
      let dr = Protocols.Dijkstra_ring.make ~nodes ~k in
      builtin
        (Printf.sprintf "dijkstra %d (K=%d)" nodes k)
        ~env:(Protocols.Dijkstra_ring.env dr)
        ~program:(Protocols.Dijkstra_ring.program dr)
        ~invariant:(Protocols.Dijkstra_ring.invariant dr)
        ~init:(fun () -> Protocols.Dijkstra_ring.all_zero dr)
  | "xyz-good-tree" | "xyz-good-ordered" | "xyz-bad" ->
      let variant =
        match proto with
        | "xyz-good-tree" -> Protocols.Xyz_demo.Good_tree
        | "xyz-good-ordered" -> Protocols.Xyz_demo.Good_ordered
        | _ -> Protocols.Xyz_demo.Bad
      in
      let d = Protocols.Xyz_demo.make variant in
      builtin proto ~env:(Protocols.Xyz_demo.env d)
        ~program:(Protocols.Xyz_demo.program d)
        ~invariant:(Protocols.Xyz_demo.invariant d)
        ~init:(fun () ->
          State.of_list (Protocols.Xyz_demo.env d)
            [
              (Protocols.Xyz_demo.x d, 0);
              (Protocols.Xyz_demo.y d, 1);
              (Protocols.Xyz_demo.z d, 1);
            ])
        ~certify:(fun ~engine -> Protocols.Xyz_demo.certificate ~engine d)
        ~cgraphs:[ Protocols.Xyz_demo.cgraph d ]
  | "atomic" ->
      let a = Protocols.Atomic_action.make (tree_of ~shape ~size ~seed) in
      builtin
        (Printf.sprintf "atomic %s-%d" shape size)
        ~env:(Protocols.Atomic_action.env a)
        ~program:(Protocols.Atomic_action.program a)
        ~invariant:(Protocols.Atomic_action.invariant a)
        ~init:(fun () ->
          Protocols.Atomic_action.initial a
            ~decision:Protocols.Atomic_action.commit)
        ~certify:(fun ~engine -> Protocols.Atomic_action.certificate ~engine a)
        ~cgraphs:[ Protocols.Atomic_action.cgraph a ]
  | "naive-ring" ->
      let nr = Protocols.Naive_ring.make ~nodes in
      builtin
        (Printf.sprintf "naive-ring %d" nodes)
        ~env:(Protocols.Naive_ring.env nr)
        ~program:(Protocols.Naive_ring.program nr)
        ~invariant:(Protocols.Naive_ring.invariant nr)
        ~init:(fun () -> Protocols.Naive_ring.one_token nr)
  | "reset" ->
      let r = Protocols.Reset.make (tree_of ~shape ~size ~seed) in
      builtin
        (Printf.sprintf "reset %s-%d" shape size)
        ~env:(Protocols.Reset.env r)
        ~program:(Protocols.Reset.program r)
        ~invariant:(Protocols.Reset.invariant r)
        ~init:(fun () -> Protocols.Reset.all_green r)
  | "spanning-tree" ->
      let g =
        match shape with
        | "cycle" -> Topology.Ugraph.cycle size
        | "grid" ->
            (* [check_sizes] admits only squares *)
            let side = int_of_float (sqrt (float_of_int size)) in
            Topology.Ugraph.grid ~width:side ~height:side
        | "complete" -> Topology.Ugraph.complete size
        | "star" -> Topology.Ugraph.star size
        | "path" | "chain" -> Topology.Ugraph.path size
        | _ ->
            Topology.Ugraph.random_connected (Prng.create seed) size
              ~extra_edges:(size / 2)
      in
      let st = Protocols.Spanning_tree.make ~root:0 g in
      builtin
        (Printf.sprintf "spanning-tree %s-%d" shape size)
        ~env:(Protocols.Spanning_tree.env st)
        ~program:(Protocols.Spanning_tree.program st)
        ~invariant:(Protocols.Spanning_tree.invariant st)
        ~init:(fun () -> Protocols.Spanning_tree.bfs_state st)
  | p ->
      failwith
        (Printf.sprintf
           "unknown protocol %S; available: %s — or a path to a .nm model \
            file (see: nonmask list)"
           p
           (String.concat ", " protocols))

(* --- .nm model files --- *)

let is_model_path s = Filename.check_suffix s ".nm"

(* Every pipeline failure is a located Err.t; folding it into Failure
   routes it through the commands' shared error path (one message on
   stderr, exit 1) without an exception trace ever escaping. *)
let compile_model ~params path =
  try Lang.Driver.compile_file ~params path with
  | Lang.Err.Error e -> failwith (Lang.Err.to_string e)
  | Sys_error msg -> failwith msg

let parse_model_file path =
  try Lang.Driver.load_file path with
  | Lang.Err.Error e -> failwith (Lang.Err.to_string e)
  | Sys_error msg -> failwith msg

let nm_instance ~params path =
  let em = compile_model ~params path in
  { model = Serve.Job.model_of_elab em; certify = None; cgraphs = [] }

(* Model selection, shared by every verb: a PROTOCOL argument is either a
   built-in name (flags like --tree/--size/--nodes/-k shape it) or a path
   to a .nm model file (shaped by --param overrides instead). *)
let parse_param_overrides l =
  List.map
    (fun s ->
      match String.index_opt s '=' with
      | Some i -> (
          let name = String.sub s 0 i in
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt v with
          | Some n when name <> "" -> (name, n)
          | _ -> failwith (Printf.sprintf "bad --param %S (want NAME=INT)" s))
      | None -> failwith (Printf.sprintf "bad --param %S (want NAME=INT)" s))
    l

let load_instance proto ~shape ~size ~nodes ~k ~seed ~params =
  if is_model_path proto then
    nm_instance ~params:(parse_param_overrides params) proto
  else if params <> [] then
    failwith "--param only applies to .nm model files"
  else build_instance proto ~shape ~size ~nodes ~k ~seed

(* --- common options --- *)

let proto_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROTOCOL"
        ~doc:
          "A built-in protocol name (see $(b,nonmask list)), or a path to \
           a $(b,.nm) model file (anything ending in $(b,.nm)).")

let params_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "param" ] ~docv:"NAME=INT"
        ~doc:
          "Override a $(b,param) declared by a .nm model file (repeatable); \
           rejected for built-in protocols.")

let shape_arg =
  Arg.(value & opt string "balanced" & info [ "tree" ] ~docv:"SHAPE"
         ~doc:
           "Tree shape: chain, star, balanced, balanced-3, random. \
            $(b,spanning-tree) takes a graph shape instead: cycle, grid, \
            complete, star, path (or chain); any other value builds a \
            random connected graph.")

let size_arg =
  Arg.(value & opt int 7 & info [ "size" ] ~docv:"N"
         ~doc:
           "Tree size (number of nodes). With $(b,--tree grid) it must be \
            a square of at least 4, such as 4, 9 or 16: the default 7 is \
            not one.")

let nodes_arg =
  Arg.(value & opt int 5 & info [ "nodes" ] ~docv:"N" ~doc:"Ring size.")

let k_arg =
  Arg.(value & opt int 6 & info [ "k" ] ~docv:"K" ~doc:"Counter modulus.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let backend_conv =
  let parse s =
    match List.assoc_opt s Serve.Job.backends with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown engine %S; valid values are eager, lazy, parallel" s))
  in
  let print ppf b = Format.pp_print_string ppf (Serve.Job.backend_name b) in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(
    value
    & opt backend_conv Explore.Engine.Eager
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Exploration engine: $(b,eager) materializes the whole transition \
           system up front; $(b,lazy) generates successors on the fly and \
           only stores discovered states, at one worker (it ignores \
           $(b,--jobs)); $(b,parallel) runs the same search over \
           $(b,--jobs) worker domains, with bit-identical results.")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n ->
        Error
          (`Msg (Printf.sprintf "jobs must be a positive integer (got %d)" n))
    | None ->
        Error
          (`Msg (Printf.sprintf "jobs must be a positive integer (got %S)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv (Par.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the $(b,parallel) engine and for parallel \
           storm trials (default: the machine's recommended domain count). \
           Verdicts, spans, and statistics are bit-identical at any job \
           count.")

(* --max-states takes serve's max_states range rule. *)
let max_states_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer (got %S)" s))
    | Some n ->
        Result.map_error
          (fun why -> `Msg (Printf.sprintf "%s (got %d)" why n))
          (Serve.Job.check_max_states n)
  in
  Arg.conv (parse, Format.pp_print_int)

let max_states_arg =
  Arg.(
    value
    & opt max_states_conv 2_000_000
    & info [ "max-states" ] ~docv:"N"
        ~doc:
          "State budget, positive. The eager engine refuses spaces larger \
           than this; the lazy engine aborts once it has discovered this \
           many states.")

let ball_arg =
  Arg.(
    value
    & opt int (-1)
    & info [ "ball" ] ~docv:"R"
        ~doc:
          "Check convergence from the states within Hamming distance $(docv) \
           of the legitimate state (at most $(docv) corrupted variables) \
           instead of from every state. Lets the lazy engine give verdicts \
           on spaces far beyond $(b,--max-states).")

(* --- graceful degradation: budgets, signals, checkpoints --- *)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget for the whole run. When it expires the run \
           stops cooperatively at the next wave/chunk boundary with a \
           partial verdict (exit 5) instead of being killed — and, with \
           $(b,--checkpoint-out), a resumable snapshot.")

let budget_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-states" ] ~docv:"N"
        ~doc:
          "Stop gracefully (exit 5) once the search has visited $(docv) \
           states. Unlike $(b,--max-states) — a hard cap that aborts with \
           exit 4 — this yields a partial verdict and, with \
           $(b,--checkpoint-out), a resumable snapshot.")

let budget_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-bytes" ] ~docv:"BYTES"
        ~doc:
          "Stop gracefully (exit 5) once the search's flat storage \
           (visited tables plus frontiers) exceeds $(docv) bytes.")

let checkpoint_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-out" ] ~docv:"FILE"
        ~doc:
          "When the run is interrupted (budget exhausted, SIGINT/SIGTERM), \
           write a versioned, checksummed snapshot of the exploration \
           wavefront to $(docv); $(b,--resume) $(docv) continues to a \
           verdict bit-identical to an uninterrupted run, on the lazy or \
           parallel engine at any $(b,--jobs) count. Opened up front, so \
           an unwritable path fails immediately; removed again when the \
           run completes without interruption.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Continue from a $(b,--checkpoint-out) snapshot. The model and \
           engine configuration must match the interrupted run (the \
           snapshot's config hash is verified; engine and job count may \
           differ); corrupt or mismatched snapshots exit 1.")

let trial_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "trial-timeout" ] ~docv:"SECS"
        ~doc:
          "Watchdog: abandon any single trial that runs longer than \
           $(docv) seconds and retry it (up to $(b,--trial-retries) \
           times), so one pathological trial cannot hang the sweep.")

let trial_retries_arg =
  Arg.(
    value
    & opt int 1
    & info [ "trial-retries" ] ~docv:"N"
        ~doc:"Extra attempts after a trial times out (default 1).")

(* First signal: request cooperative cancellation; the run stops at the
   next polling point, saves its checkpoint, flushes --trace-out and
   --metrics-out, and exits 5. Second signal: stop waiting and exit 5
   directly — the at_exit finalizers still flush the observability
   files, which a default signal death would lose. *)
let install_signal_handlers cancel =
  let handle name =
    Sys.Signal_handle
      (fun _ ->
        let reason = Rt.Cancel.Signal name in
        if Rt.Cancel.get cancel <> None then
          exit (Serve.Job.exit_code (Serve.Job.Cancelled reason))
        else Rt.Cancel.request cancel reason)
  in
  List.iter
    (fun (s, name) ->
      try Sys.set_signal s (handle name) with Invalid_argument _ -> ())
    [ (Sys.sigint, "SIGINT"); (Sys.sigterm, "SIGTERM") ]

let make_guard ~deadline ~budget_states ~budget_bytes =
  let cancel = Rt.Cancel.create () in
  install_signal_handlers cancel;
  let budget =
    try
      Rt.Budget.make ?deadline_s:deadline ?max_states:budget_states
        ?max_bytes:budget_bytes ()
    with Invalid_argument msg -> failwith msg
  in
  Rt.Guard.create ~budget ~cancel ()

(* Probe --checkpoint-out for writability up front {e without}
   truncating: the file may already hold the snapshot being resumed, and
   Rt.Snapshot.save renames a complete temp file into place — so a prior
   snapshot survives until its replacement is durable, even if this run
   dies on a path that never saves one. An empty placeholder (the file
   did not exist) is removed again from at_exit, so on {e every} exit
   path a leftover --checkpoint-out file means "there is something to
   resume". *)
let prepare_checkpoint = function
  | None -> ()
  | Some file ->
      (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file)
       with Sys_error msg ->
         failwith (Printf.sprintf "cannot open --checkpoint-out: %s" msg));
      at_exit (fun () ->
          if
            Sys.file_exists file
            && (try (Unix.stat file).Unix.st_size = 0
                with Unix.Unix_error _ -> false)
          then try Sys.remove file with Sys_error _ -> ())

(* A clean completion removes the checkpoint file — the empty
   placeholder, or the now-stale snapshot of the interrupted run we just
   resumed to completion; the at_exit finalizer above covers every other
   exit path. *)
let cleanup_checkpoint = function
  | Some file when Sys.file_exists file -> (
      try Sys.remove file with Sys_error _ -> ())
  | _ -> ()

let load_snapshot file =
  try Rt.Snapshot.load ~file with
  | Rt.Snapshot.Corrupt msg ->
      failwith (Printf.sprintf "cannot resume from %s: %s" file msg)
  | Sys_error msg -> failwith (Printf.sprintf "cannot resume: %s" msg)

(* The exit-5 path: save the checkpoint if one was captured, emit a final
   run.incomplete trace event, and print one machine-readable line on
   stderr (stdout may be discarded by scripts; the at_exit finalizers
   flush --trace-out/--metrics-out). *)
let report_incomplete ~obs ?checkpoint_out (it : Explore.Engine.interrupt) =
  let saved =
    match (checkpoint_out, it.Explore.Engine.snapshot) with
    | Some file, Some snap ->
        Rt.Snapshot.save snap ~file;
        Some file
    | _ -> None
  in
  let reason = Rt.Cancel.reason_label it.Explore.Engine.reason in
  if Obs.Ctx.enabled obs then
    Obs.Ctx.emit obs "run.incomplete"
      ([
         ("reason", Obs.Sink.S reason);
         ("states_seen", Obs.Sink.I it.Explore.Engine.states_seen);
         ("frontier_size", Obs.Sink.I it.Explore.Engine.frontier_size);
       ]
      @
      match saved with
      | Some f -> [ ("checkpoint", Obs.Sink.S f) ]
      | None -> []);
  Printf.eprintf "error: incomplete: %s\n"
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("reason", Obs.Json.Str reason);
            ("states_seen", Obs.Json.Int it.Explore.Engine.states_seen);
            ("frontier_size", Obs.Json.Int it.Explore.Engine.frontier_size);
            ( "checkpoint",
              match saved with
              | Some f -> Obs.Json.Str f
              | None -> Obs.Json.Null );
          ]));
  exit (Serve.Job.exit_code (Serve.Job.Interrupted it))

(* --- observability flags (check / certify / storm) --- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL event trace to $(docv): one JSON object per line \
           (engine waves, fault-span layers, certificate phases, storm \
           trials; schema in the README). Event counts are identical at \
           any $(b,--jobs) count.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable metrics snapshot (counters, gauges, \
           histograms, elapsed wall-clock, peak RSS) as JSON to $(docv) \
           when the run finishes — including on a negative verdict.")

let progress_arg =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Report live progress on stderr (states/sec, frontier size, \
           depth, elapsed, peak RSS) roughly once per second, driven from \
           the exploration loop.")

(* The context plus a finalizer that writes [--metrics-out] and flushes
   the trace. The finalizer is registered [at_exit] so negative-verdict
   exits (code 2) and overflow exits (3/4) still produce their files;
   both output files are opened up front so an unwritable path fails
   fast with the documented usage exit code 1. *)
let obs_setup ~trace_out ~metrics_out ~progress ~command ~instance ~engine
    ~jobs =
  let meta =
    [
      ("command", Obs.Json.Str command);
      ("instance", Obs.Json.Str instance);
      ("engine", Obs.Json.Str engine);
      ("jobs", Obs.Json.Int jobs);
      ("version", Obs.Json.Str Version_info.version);
    ]
  in
  if trace_out = None && metrics_out = None && not progress then
    Obs.Ctx.disabled
  else begin
    let open_file flag file =
      try open_out file
      with Sys_error msg ->
        failwith (Printf.sprintf "cannot open %s %s: %s" flag file msg)
    in
    let trace_oc = Option.map (open_file "--trace-out") trace_out in
    let metrics_oc = Option.map (open_file "--metrics-out") metrics_out in
    let sink =
      match trace_oc with
      | None -> Obs.Sink.noop
      | Some oc -> Obs.Sink.jsonl oc
    in
    let progress =
      if progress then Some (Obs.Progress.create ()) else None
    in
    let obs = Obs.Ctx.create ~sink ?progress () in
    let finalized = ref false in
    at_exit (fun () ->
        if not !finalized then begin
          finalized := true;
          (match metrics_oc with
          | Some oc ->
              output_string oc
                (Obs.Json.to_string (Obs.Ctx.metrics_json obs ~extra:meta));
              output_char oc '\n';
              close_out oc
          | None -> ());
          Obs.Ctx.close obs
        end);
    obs
  end

(* The CLI's text for a runner's answer: [print] writes a finished
   analysis to stdout, [failed v] says on stderr why a failed verdict or a
   counterexample exits non-zero, and every stop writes one line to
   stderr; the exit code is Serve.Job.exit_code. Non-zero exits must say
   why on stderr, even though the verdict details go to stdout — scripts
   routinely discard stdout and keep stderr. *)
let conclude ~name ~obs ?checkpoint_out ?(failed = fun _ -> "") print answer
    =
  let stop msg =
    Printf.eprintf "error: %s\n" msg;
    exit (Serve.Job.exit_code answer)
  in
  let incomplete it = report_incomplete ~obs ?checkpoint_out it in
  match answer with
  | Serve.Job.Holds v -> print v
  | Fails v | Counterexamples v ->
      print v;
      stop (failed v)
  | Partial (v, it) ->
      print v;
      incomplete it
  | Error msg -> failwith msg
  | Too_large total ->
      stop
        (Printf.sprintf
           "%s has ~%.3g states, over the budget; retry with --engine lazy \
            (and --ball R for huge spaces) or raise --max-states"
           name total)
  | Unaddressable { layout; bits; states } ->
      stop
        (Printf.sprintf
           "%s has ~%.3g states, more than the %s state encoding can \
            address (%d bits needed); %s"
           name states layout bits
           (if layout = "dense" then "shrink the instance"
            else "retry with --engine lazy (and --ball R for huge spaces)"))
  | Region_overflow n ->
      stop
        (Printf.sprintf
           "%s: lazy exploration exceeded the budget after %d states; raise \
            --max-states or shrink --ball"
           name n)
  | Interrupted it -> incomplete it
  | Cancelled reason ->
      incomplete { reason; states_seen = 0; frontier_size = 0; snapshot = None }

(* A subcommand body: a Failure is a usage error, one line on stderr. *)
let usage f =
  try
    f ();
    0
  with Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    Serve.Job.exit_code (Serve.Job.Error msg)

(* A Sim.Fault.resolve result, or the CLI's error for a bad --faults SPEC. *)
let fault_or_bad_spec = function
  | Ok f -> f
  | Error spec ->
      failwith
        (Printf.sprintf "bad fault spec %S (%s)" spec Sim.Fault.spec_syntax)

(* A flag checked by the range rule serve applies to the same option
   (Sim.Storm's for storm flags, Serve.Job's for the others). *)
let range_flag flag check show v =
  match check v with
  | Ok v -> v
  | Error why -> failwith (Printf.sprintf "%s %s (got %s)" flag why (show v))

let trials_flag = range_flag "--trials" Sim.Storm.check_trials string_of_int

let with_instance f proto shape size nodes k seed params =
  usage @@ fun () ->
  f (load_instance proto ~shape ~size ~nodes ~k ~seed ~params) seed

let instance_term f =
  Term.(
    const (with_instance f)
    $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg $ seed_arg
    $ params_arg)

(* --- subcommands --- *)

let list_cmd =
  let run () =
    print_endline "protocols:";
    List.iter (fun p -> Printf.printf "  %s\n" p) protocols;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available protocols")
    Term.(const run $ const ())

let show_cmd =
  let run i _seed =
    Format.printf "%a@." Guarded.Program.pp i.model.program;
    List.iteri
      (fun l g ->
        if List.length i.cgraphs > 1 then Format.printf "layer %d:@." l;
        Format.printf "%a@." Nonmask.Cgraph.pp g)
      i.cgraphs
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the program and its constraint graph(s)")
    (instance_term run)

let fault_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault class in action form: $(b,corrupt) (one variable), \
           $(b,corrupt:k=N) (up to N variables), $(b,scramble) (every \
           variable). For $(b,certify) this switches from the theorem \
           validator to a nonmasking-tolerance certificate over the \
           computed fault span.")

let fault_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-budget" ] ~docv:"N"
        ~doc:
          "At most $(docv) fault steps per derivation when computing the \
           fault span (default: the fault's burst, e.g. N for \
           corrupt:k=N). Negative = unbounded — the recurring-fault span.")

let certify_cmd =
  let run proto shape size nodes k seed params backend max_states jobs
      fault_spec fault_budget ball trace_out metrics_out progress deadline
      budget_states budget_bytes checkpoint_out resume_file =
    usage @@ fun () ->
    let i = load_instance proto ~shape ~size ~nodes ~k ~seed ~params in
    let m = i.model in
    (* --faults wins; a .nm model's declared fault actions are the
       default fault class when the flag is absent. *)
    let fault_opt =
      fault_or_bad_spec
        (Sim.Fault.resolve m.env ~spec:fault_spec ~declared:m.faults)
    in
    if fault_opt = None then begin
      if checkpoint_out <> None || resume_file <> None then
        failwith
          "certify: --checkpoint-out/--resume require --faults (only the \
           computed fault span is checkpointable)";
      (* the theorem certificate has no fault span to seed or bound *)
      if ball >= 0 then
        failwith "certify: --ball requires --faults (it seeds the fault span)";
      if fault_budget <> None then
        failwith
          "certify: --fault-budget requires --faults (it bounds the fault \
           span)"
    end;
    let obs =
      obs_setup ~trace_out ~metrics_out ~progress ~command:"certify"
        ~instance:m.name ~engine:(Serve.Job.backend_name backend) ~jobs
    in
    let guard = make_guard ~deadline ~budget_states ~budget_bytes in
    let opts =
      { Serve.Job.defaults with engine = backend; max_states; ball; fault_budget }
    in
    let print cert = Format.printf "%a@." Nonmask.Certify.pp_full cert in
    match (fault_opt, i.certify) with
    | Some fault, _ ->
        let resume = Option.map load_snapshot resume_file in
        prepare_checkpoint checkpoint_out;
        let salt =
          Printf.sprintf "certify|%s|seed=%d|faults=%s|ball=%d" m.name seed
            fault.Sim.Fault.name ball
        in
        Serve.Job.certify ~jobs ~obs ~guard
          ~snapshots:(checkpoint_out <> None) ~salt ?resume m fault opts
        |> conclude ~name:m.name ~obs ?checkpoint_out
             ~failed:(fun _ ->
               Printf.sprintf "%s: tolerance certificate failed" m.name)
             (fun cert ->
               cleanup_checkpoint checkpoint_out;
               print cert)
    | None, None ->
        Printf.printf
          "%s has no theorem certificate (validated by direct model \
           checking; use `check`, or `certify --faults SPEC` for a \
           tolerance certificate).\n"
          m.name
    | None, Some certify ->
        Serve.Job.catch (fun () ->
            let cert =
              certify ~engine:(Serve.Job.engine ~jobs ~obs ~guard m opts)
            in
            if Nonmask.Certify.ok cert then Holds cert else Fails cert)
        |> conclude ~name:m.name ~obs
             ~failed:(fun _ -> Printf.sprintf "%s: certificate failed" m.name)
             print
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Validate the design with the applicable theorem, or — with \
          $(b,--faults) — certify nonmasking tolerance over the computed \
          fault span (exhaustive)")
    Term.(
      const run $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg
      $ seed_arg $ params_arg $ engine_arg $ max_states_arg $ jobs_arg
      $ fault_spec_arg $ fault_budget_arg $ ball_arg $ trace_out_arg
      $ metrics_out_arg $ progress_arg $ deadline_arg $ budget_states_arg
      $ budget_bytes_arg $ checkpoint_out_arg $ resume_arg)

(* tolerance: the quantified version of `certify --faults` — sweep the
   fault budget from 0 to --budget-max (or an explicit --budgets list),
   certify each point against its computed span, and report the
   tolerance frontier: span growth, verdicts, exact worst-case recovery,
   the first budget where certification flips (the cliff), and — with
   --adversary — the independent game-style upper bound. A completed
   sweep exits 0 whatever the verdicts are: the curve itself is the
   deliverable (points that fail certification are part of the
   frontier); an interrupted sweep exits 5 with every finished point
   already flushed to --report. *)
let budget_max_arg =
  Arg.(
    value
    & opt int 3
    & info [ "budget-max" ] ~docv:"B"
        ~doc:
          "Sweep fault budgets 0..$(docv) (rejected when negative). Each \
           budget bounds the fault steps per derivation when computing \
           that point's span.")

let budgets_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "budgets" ] ~docv:"LIST"
        ~doc:
          "Explicit comma-separated budget list (e.g. $(b,0,2,8)) instead \
           of 0..$(b,--budget-max).")

let adversary_arg =
  Arg.(
    value & flag
    & info [ "adversary" ]
        ~doc:
          "Also compute the adversarial-daemon bound per point: the exact \
           worst-case recovery steps over the span under a worst-case \
           scheduler, by a backward attractor — a sound upper bound that \
           dominates every storm-observed recovery time, validated \
           against the certificate's convergence bound.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the frontier as JSONL to $(docv), one point object per \
           line, flushed as each point completes — an interrupted sweep \
           (exit 5) leaves the partial curve behind.")

let tolerance_cmd =
  let run proto shape size nodes k seed params backend max_states jobs
      fault_spec budget_max budgets_csv adversary report ball trace_out
      metrics_out progress deadline budget_states budget_bytes =
    usage @@ fun () ->
    let i = load_instance proto ~shape ~size ~nodes ~k ~seed ~params in
    let m = i.model in
    let fault =
      fault_or_bad_spec
        (Sim.Fault.resolve_or_corrupt m.env ~spec:fault_spec ~declared:m.faults)
    in
    let budgets =
      match budgets_csv with
      | Some csv ->
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some b ->
                  range_flag "--budgets entry" Serve.Job.check_budget_max
                    string_of_int b
              | None ->
                  failwith
                    (Printf.sprintf "tolerance: bad --budgets entry %S" s))
            (String.split_on_char ',' csv)
      | None ->
          Tol.Sweep.range
            ~max:
              (range_flag "--budget-max" Serve.Job.check_budget_max
                 string_of_int budget_max)
    in
    let on_point =
      Option.map
        (fun file ->
          let oc =
            try open_out file
            with Sys_error msg ->
              failwith (Printf.sprintf "cannot open --report: %s" msg)
          in
          at_exit (fun () -> close_out_noerr oc);
          fun p ->
            output_string oc (Obs.Json.to_string (Tol.Sweep.point_json p));
            output_char oc '\n';
            flush oc)
        report
    in
    let obs =
      obs_setup ~trace_out ~metrics_out ~progress ~command:"tolerance"
        ~instance:m.name ~engine:(Serve.Job.backend_name backend) ~jobs
    in
    let guard = make_guard ~deadline ~budget_states ~budget_bytes in
    let opts =
      { Serve.Job.defaults with engine = backend; max_states; ball; adversary }
    in
    Serve.Job.tolerance ~jobs ~obs ~guard ~budgets ?on_point m fault opts
    |> conclude ~name:m.name ~obs (fun (engine, frontier) ->
           Format.printf "%s (%s engine):@.%a@." (Serve.Job.title m fault)
             engine Tol.Sweep.pp_frontier frontier)
  in
  Cmd.v
    (Cmd.info "tolerance"
       ~doc:
         "Quantified tolerance: sweep fault budgets, certifying each \
          point over its computed span, and report the tolerance \
          frontier with its cliff (optionally with the exact adversarial \
          worst-case recovery bound)")
    Term.(
      const run $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg
      $ seed_arg $ params_arg $ engine_arg $ max_states_arg $ jobs_arg
      $ fault_spec_arg $ budget_max_arg $ budgets_arg $ adversary_arg
      $ report_arg $ ball_arg $ trace_out_arg $ metrics_out_arg
      $ progress_arg $ deadline_arg $ budget_states_arg $ budget_bytes_arg)

let check_cmd =
  let run proto shape size nodes k seed params backend max_states jobs ball
      trace_out metrics_out progress deadline budget_states budget_bytes
      checkpoint_out resume_file =
    usage @@ fun () ->
    let i = load_instance proto ~shape ~size ~nodes ~k ~seed ~params in
    let m = i.model in
    let obs =
      obs_setup ~trace_out ~metrics_out ~progress ~command:"check"
        ~instance:m.name ~engine:(Serve.Job.backend_name backend) ~jobs
    in
    let guard = make_guard ~deadline ~budget_states ~budget_bytes in
    let resume = Option.map load_snapshot resume_file in
    prepare_checkpoint checkpoint_out;
    (* The salt excludes engine and jobs (checkpoints resume across
       both) but pins everything else that shapes the result. *)
    let salt = Printf.sprintf "check|%s|seed=%d|ball=%d" m.name seed ball in
    let from_desc =
      if ball < 0 then "every state"
      else Printf.sprintf "every state within %d faults of legitimacy" ball
    in
    let opts = { Serve.Job.defaults with engine = backend; max_states; ball } in
    Serve.Job.check ~jobs ~obs ~guard ~snapshots:(checkpoint_out <> None)
      ~salt ?resume m opts
    |> conclude ~name:m.name ~obs ?checkpoint_out
         ~failed:(fun _ ->
           Printf.sprintf "%s: convergence check failed" m.name)
         (fun (engine, result) ->
           cleanup_checkpoint checkpoint_out;
           match result with
           | Ok { Explore.Convergence.region_states; explored; worst_case_steps }
             ->
               Printf.printf
                 "%s (%s engine): converges from %s, even without fairness\n\
                 \  explored: %d  outside invariant: %d  worst-case steps: \
                  %s\n"
                 m.name engine from_desc explored region_states
                 (match worst_case_steps with
                 | Some w -> string_of_int w
                 | None -> "-")
           | Error f ->
               Format.printf "%s: FAILS@.%a@." m.name
                 (Explore.Convergence.pp_failure m.env)
                 f)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check convergence exhaustively (or from a fault ball with \
          $(b,--ball))")
    Term.(
      const run $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg
      $ seed_arg $ params_arg $ engine_arg $ max_states_arg $ jobs_arg
      $ ball_arg $ trace_out_arg $ metrics_out_arg $ progress_arg
      $ deadline_arg $ budget_states_arg $ budget_bytes_arg
      $ checkpoint_out_arg $ resume_arg)

let trials_arg =
  Arg.(value & opt int 500 & info [ "trials" ] ~docv:"T" ~doc:"Trial count.")

let faults_arg =
  Arg.(
    value
    & opt int 0
    & info [ "faults" ] ~docv:"K"
        ~doc:"Corrupt K variables per trial (0 = scramble everything).")

let simulate_cmd =
  let run i seed trials faults =
    let m = i.model in
    let trials = trials_flag trials in
    if faults < 0 then
      failwith (Printf.sprintf "--faults must be non-negative (got %d)" faults);
    let cp = Compile.program m.program in
    let fault =
      if faults = 0 then Sim.Fault.scramble m.env
      else Sim.Fault.corrupt m.env ~k:faults
    in
    (* one fault burst per trial, then fault-free recovery: a storm at
       rate 0 *)
    let r =
      Sim.Storm.trials ~rng:(Prng.create seed) ~trials
        ~daemon:(fun r -> Sim.Daemon.random r)
        ~prepare:(fun r ->
          let s = m.init () in
          fault.Sim.Fault.inject r s;
          s)
        ~stop:m.invariant ~fault ~rate:0. cp
    in
    let failures = r.Sim.Storm.failures in
    Format.printf "%s under %s, %d trials: " m.name fault.Sim.Fault.name trials;
    match r.Sim.Storm.summary with
    | None -> Format.printf "no trial converged (%d failures)@." failures
    | Some s ->
        Format.printf "%a%s@." Sim.Stats.pp_summary s
          (if failures > 0 then Printf.sprintf " (%d failures)" failures
           else "")
  in
  let wrapped proto shape size nodes k seed params trials faults =
    with_instance (fun i seed -> run i seed trials faults) proto shape size
      nodes k seed params
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Fault-injection trials under a random daemon, with statistics")
    Term.(
      const wrapped $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg
      $ seed_arg $ params_arg $ trials_arg $ faults_arg)

let rate_arg =
  Arg.(
    value
    & opt float 0.05
    & info [ "rate" ] ~docv:"P"
        ~doc:
          "Per-step probability that the fault injects again instead of a \
           program step executing.")

let max_steps_storm_arg =
  Arg.(
    value
    & opt int 100_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Step budget per trial.")

let make_watchdog ~trial_timeout ~trial_retries =
  match trial_timeout with
  | None -> None
  | Some t -> (
      try Some (Rt.Watchdog.make ~retries:trial_retries ~timeout_s:t ())
      with Invalid_argument msg -> failwith msg)

(* Storm and fuzz sweeps poll the guard between trials with no global
   state/byte counts to report, so --budget-states/--budget-bytes could
   never trip there: the flags are not accepted (cmdliner rejects them
   with a usage error); --deadline and the per-trial watchdog are the
   degradation knobs for trial sweeps. *)
let storm_cmd =
  let run proto shape size nodes k seed params trials fault_spec rate
      fault_budget max_steps jobs trace_out metrics_out progress deadline
      trial_timeout trial_retries =
    usage @@ fun () ->
    let trials = trials_flag trials in
    let rate =
      range_flag "--rate" Sim.Storm.check_rate (Printf.sprintf "%g") rate
    in
    let max_steps =
      range_flag "--max-steps" Sim.Storm.check_max_steps string_of_int
        max_steps
    in
    let i = load_instance proto ~shape ~size ~nodes ~k ~seed ~params in
    let m = i.model in
    let obs =
      obs_setup ~trace_out ~metrics_out ~progress ~command:"storm"
        ~instance:m.name ~engine:"-" ~jobs
    in
    let guard = make_guard ~deadline ~budget_states:None ~budget_bytes:None in
    let watchdog = make_watchdog ~trial_timeout ~trial_retries in
    let fault =
      fault_or_bad_spec
        (Sim.Fault.resolve_or_corrupt m.env ~spec:fault_spec ~declared:m.faults)
    in
    let opts =
      { Serve.Job.defaults with seed; trials; rate; max_steps; fault_budget }
    in
    Serve.Job.storm ~jobs ~obs ~guard ?watchdog m fault opts
    |> conclude ~name:m.name ~obs (fun r ->
           Format.printf "%s: storm %s rate=%g, %d trials: %a@." m.name
             fault.Sim.Fault.name rate trials Sim.Storm.pp_result r)
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Recovery under recurring faults: every step is either a fault \
          injection (probability $(b,--rate)) or a daemon-chosen program \
          step")
    Term.(
      const run $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg
      $ seed_arg $ params_arg $ trials_arg $ fault_spec_arg $ rate_arg
      $ fault_budget_arg $ max_steps_storm_arg $ jobs_arg $ trace_out_arg
      $ metrics_out_arg $ progress_arg $ deadline_arg $ trial_timeout_arg
      $ trial_retries_arg)

let count_arg =
  Arg.(
    value
    & opt int 200
    & info [ "count" ] ~docv:"N" ~doc:"Number of generated models to try.")

let max_vars_arg =
  Arg.(
    value
    & opt int 4
    & info [ "max-vars" ] ~docv:"N"
        ~doc:
          "Largest variable count of a generated model (state spaces are \
           capped accordingly). Reproduction requires the same value the \
           counterexample was found with.")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Report counterexamples as generated, without minimizing them.")

let corpus_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus-out" ] ~docv:"DIR"
        ~doc:
          "Write every failing trial's generated model to $(docv) as \
           replayable .nm source: trial-NNNN-seed-S.nm (original) and \
           trial-NNNN-seed-S-min.nm (shrunk minimum).")

let corpus_all_arg =
  Arg.(
    value & flag
    & info [ "corpus-all" ]
        ~doc:
          "With $(b,--corpus-out), also write the models of passing \
           trials.")

let fuzz_cmd =
  let run seed count max_vars jobs no_shrink corpus_out corpus_all trace_out
      metrics_out progress deadline trial_timeout trial_retries =
    usage @@ fun () ->
    let max_vars =
      range_flag "--max-vars" Serve.Job.check_max_vars string_of_int max_vars
    in
    let count = range_flag "--count" Serve.Job.check_count string_of_int count in
    let obs =
      obs_setup ~trace_out ~metrics_out ~progress ~command:"fuzz"
        ~instance:(Printf.sprintf "seed=%d count=%d" seed count)
        ~engine:"all" ~jobs
    in
    let guard = make_guard ~deadline ~budget_states:None ~budget_bytes:None in
    let watchdog = make_watchdog ~trial_timeout ~trial_retries in
    if corpus_all && corpus_out = None then
      failwith "fuzz: --corpus-all requires --corpus-out";
    Serve.Job.fuzz ~jobs ~obs ~guard ~shrink:(not no_shrink) ?watchdog
      ?corpus_out ~corpus_all
      { Serve.Job.defaults with seed; count; max_vars }
    |> conclude ~name:"fuzz" ~obs
         ~failed:(fun r ->
           Printf.sprintf
             "fuzz found %d counterexample(s); reproduce with the seeds above"
             (List.length r.Gen.Fuzz.counterexamples))
         (fun r -> Format.printf "%a@." Gen.Fuzz.pp_report r)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random guarded programs and check \
          that all exploration backends, fault spans, certificates, and \
          storm simulations agree (exit 3 on a surviving minimized \
          counterexample)")
    Term.(
      const run $ seed_arg $ count_arg $ max_vars_arg $ jobs_arg
      $ no_shrink_arg $ corpus_out_arg $ corpus_all_arg $ trace_out_arg
      $ metrics_out_arg $ progress_arg $ deadline_arg $ trial_timeout_arg
      $ trial_retries_arg)

let dot_cmd =
  let run proto shape size nodes k seed params =
    usage @@ fun () ->
    if is_model_path proto then
      let em = compile_model ~params:(parse_param_overrides params) proto in
      print_string (Lang.Dot.render em)
    else
      let i = load_instance proto ~shape ~size ~nodes ~k ~seed ~params in
      match i.cgraphs with
      | [] ->
          failwith (Printf.sprintf "%s has no constraint graph" i.model.name)
      | gs -> List.iter (fun g -> print_string (Nonmask.Cgraph.to_dot g)) gs
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the constraint graph(s) as Graphviz DOT")
    Term.(
      const run $ proto_arg $ shape_arg $ size_arg $ nodes_arg $ k_arg
      $ seed_arg $ params_arg)

(* --- model-language tooling: fmt and export --------------------------- *)

let model_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL.nm")

(* fmt --hash: the canonical content address the serve daemon keys its
   result cache on. A .nm file hashes its Pretty-canonical text with the
   final (default-filled) parameter values folded in — byte-for-byte the
   digest `nonmask serve` computes for the same model, so cache behavior
   is scriptable. A built-in protocol has no .nm text; it hashes a
   canonical instance rendering (the paper-style program listing plus
   the legitimate state), so two invocations agree iff the instance
   does. *)
let model_hash ~params ~shape ~size ~nodes ~k ~seed target =
  if is_model_path target then
    let em = compile_model ~params:(parse_param_overrides params) target in
    let ast = Lang.Driver.parse_string ~file:target (Lang.Source.read_file target).Lang.Source.text in
    Lang.Canon.with_params ~params:em.Lang.Elab.params
      (Lang.Canon.model_digest ast)
  else
    let m = (load_instance target ~shape ~size ~nodes ~k ~seed ~params).model in
    let text =
      Printf.sprintf "%s\n%s\nlegitimate: %s\n" m.name
        (Guarded.Program.to_string m.program)
        (State.to_string m.env (m.init ()))
    in
    Lang.Canon.digest_text text

let fmt_cmd =
  let run file write check hash shape size nodes k seed params =
    usage @@ fun () ->
    if hash then begin
      if write || check then
        failwith "fmt: --hash conflicts with --write/--check";
      print_endline (model_hash ~params ~shape ~size ~nodes ~k ~seed file)
    end
    else begin
      if write && check then failwith "fmt: --write and --check conflict";
      if not (is_model_path file) then
        failwith
          (Printf.sprintf
             "fmt: %S is not a .nm file (built-in protocols are accepted \
              only with --hash)"
             file);
      let _src, ast = parse_model_file file in
      let formatted = Lang.Pretty.print ast in
      if check then begin
        let original =
          let ic = open_in_bin file in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        if original <> formatted then
          failwith (Printf.sprintf "fmt: %s is not canonically formatted" file)
      end
      else if write then begin
        let oc = open_out file in
        output_string oc formatted;
        close_out oc
      end
      else print_string formatted
    end
  in
  let write_arg =
    Arg.(
      value & flag
      & info [ "write" ] ~doc:"Rewrite the file in place instead of printing.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit 1 if the file is not already in canonical form; print \
             nothing. The formatter is idempotent, so a formatted file \
             always passes.")
  in
  let hash_arg =
    Arg.(
      value & flag
      & info [ "hash" ]
          ~doc:
            "Print the canonical model digest (SHA-256 of the canonical \
             text, $(b,--param) overrides folded in) instead of the \
             formatted model — the content address $(b,nonmask serve) keys \
             its result cache on. Accepts a built-in protocol name as well \
             as a .nm file.")
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:
         "Canonically format a .nm model file (or print its canonical \
          digest with $(b,--hash))")
    Term.(
      const run $ model_file_arg $ write_arg $ check_arg $ hash_arg
      $ shape_arg $ size_arg $ nodes_arg $ k_arg $ seed_arg $ params_arg)

let export_cmd =
  let run file params tla dot out =
    usage @@ fun () ->
    let text =
      let em = compile_model ~params:(parse_param_overrides params) file in
      match (tla, dot) with
      | true, false -> Lang.Tla.render em
      | false, true -> Lang.Dot.render em
      | _ -> failwith "export: pass exactly one of --tla, --dot"
    in
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
  in
  let tla_arg =
    Arg.(
      value & flag
      & info [ "tla" ]
          ~doc:
            "Emit a TLA+ module (Init/Next/Faults/Invariant) for TLC model \
             checking.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the constraint/read-write dependency graph as Graphviz \
             DOT.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a .nm model as TLA+ or Graphviz DOT")
    Term.(
      const run $ model_file_arg $ params_arg $ tla_arg $ dot_arg $ out_arg)

(* --- the checking service: serve and submit --------------------------- *)

let listen_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Address to listen on: a Unix socket path, or $(b,HOST:PORT) / \
           $(b,:PORT) for TCP (port 0 binds an ephemeral port, printed on \
           startup).")

let serve_cmd =
  let run listen jobs queue_cap cache_entries max_request_bytes artifacts
      default_deadline =
    try
      let address =
        match Serve.Client.parse_address listen with
        | Ok a -> a
        | Error msg -> failwith (Printf.sprintf "serve: %s" msg)
      in
      let config =
        {
          (Serve.Server.default_config ~address) with
          Serve.Server.jobs;
          queue_cap;
          cache_entries;
          max_request_bytes;
          artifacts_dir = artifacts;
          default_deadline;
        }
      in
      let server = Serve.Server.create config in
      Rt.Drain.install_signals (Serve.Server.drain_handle server);
      (match Serve.Server.address server with
      | `Unix path -> Printf.printf "nonmask serve: listening on %s\n%!" path
      | `Tcp (host, port) ->
          Printf.printf "nonmask serve: listening on %s:%d\n%!" host port);
      Serve.Server.run server;
      Printf.printf "nonmask serve: drained\n%!";
      0
    with
    | Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "error: serve: %s%s\n" (Unix.error_message e)
          (if arg = "" then "" else Printf.sprintf " (%s)" arg);
        1
  in
  let serve_jobs_arg =
    Arg.(
      value
      & opt jobs_conv (Par.Pool.default_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains of the one shared pool every job runs over \
             (default: the machine's recommended domain count).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Pending-job bound per client; further submissions are answered \
             with an in-protocol queue-full error.")
  in
  let cache_entries_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Result-cache capacity (LRU-evicted).")
  in
  let max_request_arg =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Largest accepted request line; longer lines are rejected \
             in-protocol without buffering them.")
  in
  let artifacts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "Write each executed job's JSONL trace to \
             $(docv)/job-NNNNNN-<digest>.jsonl (created if missing).")
  in
  let default_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget applied to every job that sets no deadline \
             of its own; expiry degrades the job to an in-protocol \
             incomplete (exit-5) result.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent checking service: newline-delimited JSON \
          requests (check/certify/storm/fuzz/ping/metrics) over a Unix or \
          TCP socket, one shared worker pool, content-addressed result \
          cache. First SIGTERM/SIGINT drains gracefully; a second cancels \
          in-flight work cooperatively.")
    Term.(
      const run $ listen_arg $ serve_jobs_arg $ queue_cap_arg
      $ cache_entries_arg $ max_request_arg $ artifacts_arg
      $ default_deadline_arg)

(* submit: one request over the wire, the reply on stdout, and the reply's
   in-protocol exit code as the process exit code — so scripts get the
   same exit contract from a daemon they get from the direct verbs. *)
let submit_cmd =
  let parse_opt_value v =
    match int_of_string_opt v with
    | Some n -> Obs.Json.Int n
    | None -> (
        match float_of_string_opt v with
        | Some f -> Obs.Json.Float f
        | None -> (
            match v with
            | "true" -> Obs.Json.Bool true
            | "false" -> Obs.Json.Bool false
            | s -> Obs.Json.Str s))
  in
  let run addr op model opts params id =
    try
      let address =
        match Serve.Client.parse_address addr with
        | Ok a -> a
        | Error msg -> failwith (Printf.sprintf "submit: %s" msg)
      in
      if Serve.Proto.op_of_name op = None then
        failwith
          (Printf.sprintf
             "submit: unknown op %S \
              (check|certify|tolerance|storm|fuzz|ping|metrics)"
             op);
      let model_field =
        match model with
        | None -> []
        | Some path ->
            let src = try Lang.Source.read_file path with Failure m -> failwith m in
            [ ("model", Obs.Json.Str src.Lang.Source.text) ]
      in
      let options =
        List.map
          (fun s ->
            match String.index_opt s '=' with
            | Some i when i > 0 ->
                ( String.sub s 0 i,
                  parse_opt_value
                    (String.sub s (i + 1) (String.length s - i - 1)) )
            | _ -> failwith (Printf.sprintf "bad --opt %S (want KEY=VALUE)" s))
          opts
      in
      let options =
        match parse_param_overrides params with
        | [] -> options
        | ps ->
            options
            @ [
                ( "params",
                  Obs.Json.Obj
                    (List.map (fun (n, v) -> (n, Obs.Json.Int v)) ps) );
              ]
      in
      let request =
        Obs.Json.Obj
          (("id", Obs.Json.Str id) :: ("op", Obs.Json.Str op) :: model_field
          @
          match options with
          | [] -> []
          | o -> [ ("options", Obs.Json.Obj o) ])
      in
      let client =
        match Serve.Client.connect address with
        | Ok c -> c
        | Error msg -> failwith (Printf.sprintf "submit: %s" msg)
      in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          match Serve.Client.request client request with
          | Error msg -> failwith (Printf.sprintf "submit: %s" msg)
          | Ok reply -> (
              print_endline (Obs.Json.to_string reply);
              match Obs.Json.member "ok" reply with
              | Some (Obs.Json.Bool true) -> (
                  match
                    Option.bind
                      (Option.bind
                         (Obs.Json.member "result" reply)
                         (Obs.Json.member "exit"))
                      Obs.Json.to_int
                  with
                  | Some code -> code
                  | None -> 0)
              | _ -> 1))
    with Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  let addr_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "to" ] ~docv:"ADDR"
          ~doc:"The daemon's address (Unix socket path or HOST:PORT).")
  in
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:"check | certify | tolerance | storm | fuzz | ping | metrics")
  in
  let submit_model_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"MODEL.nm"
          ~doc:"Model file to submit (required for check/certify/storm).")
  in
  let opt_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "opt" ] ~docv:"KEY=VALUE"
          ~doc:
            "A job option, repeatable: engine, max_states, ball, seed, \
             trials, rate, max_steps, faults, fault_budget, budget_max, \
             adversary, count, max_vars, deadline, budget_states, \
             budget_bytes.")
  in
  let id_arg =
    Arg.(
      value & opt string "cli"
      & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the reply.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one job to a running $(b,nonmask serve) daemon and print \
          the JSON reply; the process exit code is the reply's in-protocol \
          exit code.")
    Term.(
      const run $ addr_arg $ op_arg $ submit_model_arg $ opt_arg $ params_arg
      $ id_arg)

let main =
  let doc =
    "design and validation of nonmasking fault-tolerant programs \
     (Arora-Gouda-Varghese 1994)"
  in
  (* The version string is generated at build time from dune-project's
     (version ...); see the rule in bin/dune. *)
  Cmd.group
    (Cmd.info "nonmask" ~version:Version_info.version ~doc)
    [
      list_cmd; show_cmd; certify_cmd; tolerance_cmd; check_cmd;
      simulate_cmd; storm_cmd; fuzz_cmd; dot_cmd; fmt_cmd; export_cmd;
      serve_cmd; submit_cmd;
    ]

(* Fold cmdliner's own flag-validation failures (unknown --engine value,
   non-positive --jobs, ...) into the documented usage exit code 1
   instead of cmdliner's default 124; keep 125 for genuine crashes. *)
let () =
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> 125)
