type counterexample = {
  trial : int;
  seed : int;
  failure : Oracle.failure;
  spec : Spec.t;
  original_failure : Oracle.failure;
  original_actions : int;
  shrink : Shrink.stats;
}

type timeout_record = { t_trial : int; t_seed : int; t_attempts : int }

type report = {
  trials : int;
  start_seed : int;
  counterexamples : counterexample list;
  skipped : int;
  timeouts : timeout_record list;
}

type outcome =
  | Done of Spec.t * counterexample option
  | Skipped
  | Timed_out of Spec.t * int  (* attempts made, all expired *)

(* The oracle stream must differ from the generator stream but be derived
   from the same scalar seed, so one printed number replays everything. *)
let oracle_seed tseed = tseed lxor 0x2545F4914F6CDD1D

let eval ~oracle_config ~guard tseed spec =
  try
    Oracle.run ~config:oracle_config ~guard
      ~rng:(Prng.create (oracle_seed tseed))
      (Spec.materialize spec)
  with
  | Explore.Engine.Interrupted _ as e ->
      (* watchdog/cancellation trips are control flow, not oracle
         verdicts — never fold them into an "exception" failure *)
      raise e
  | e -> Some { Oracle.oracle = "exception"; detail = Printexc.to_string e }

let run_trial ~gen_config ~oracle_config ~shrink ~guard ~watchdog i tseed =
  let spec = Generate.spec ~config:gen_config (Prng.create tseed) in
  let guard_on = Rt.Guard.active guard in
  let global_tripped () =
    guard_on && Rt.Guard.poll guard ~states:0 ~bytes:0 <> None
  in
  (* One attempt's guard: the global budget with the deadline tightened
     to the watchdog's per-attempt allowance, in a fresh scope — the
     global cancel token is only {e linked} (observed, never marked), so
     a watchdog expiry inside the oracle cannot poison the shared token
     and cancel the rest of the sweep. *)
  let attempt_guard () =
    match watchdog with
    | None -> guard
    | Some w ->
        let b = Rt.Guard.budget guard in
        let wd = Rt.Watchdog.deadline w in
        let deadline =
          match b.Rt.Budget.deadline with
          | None -> Some wd
          | Some d -> Some (Float.min d wd)
        in
        Rt.Guard.create
          ~budget:{ b with Rt.Budget.deadline }
          ?link:(Rt.Guard.cancel guard) ()
  in
  let max_retries =
    match watchdog with None -> 0 | Some w -> w.Rt.Watchdog.retries
  in
  (* A fuzz trial is a pure function of its seed, but a timeout is a
     wall-clock accident — so retries replay the {e same} seed (a loaded
     machine can expire a watchdog spuriously); a trial whose every
     attempt expires is reported with its seed for offline replay. *)
  let rec attempt k =
    match eval ~oracle_config ~guard:(attempt_guard ()) tseed spec with
    | r -> `Eval r
    | exception Explore.Engine.Interrupted _ ->
        if global_tripped () then `Stopped
        else if k < max_retries then attempt (k + 1)
        else `Expired (k + 1)
  in
  match attempt 0 with
  | `Stopped -> Skipped
  | `Expired attempts -> Timed_out (spec, attempts)
  | `Eval None -> Done (spec, None)
  | `Eval (Some failure) ->
      (* Shrink evals get fresh per-eval watchdog deadlines; an expired
         or cancelled eval rejects that reduction (returns None), so a
         global stop mid-shrink just freezes the current minimum — the
         counterexample is never lost to the clock. *)
      let shrink_oracle s =
        try eval ~oracle_config ~guard:(attempt_guard ()) tseed s
        with Explore.Engine.Interrupted _ -> None
      in
      let min_spec, min_failure, stats =
        if shrink then Shrink.minimize ~oracle:shrink_oracle spec failure
        else (spec, failure, { Shrink.evals = 0; accepted = 0 })
      in
      Done
        ( spec,
          Some
            {
              trial = i;
              seed = tseed;
              failure = min_failure;
              spec = min_spec;
              original_failure = failure;
              original_actions = Spec.action_count spec;
              shrink = stats;
            } )

(* Corpus files are best-effort artifacts: a spec whose materialization
   fails (it cannot, for specs the trial actually ran) or an unwritable
   directory must not turn a completed sweep into a crash. *)
let write_corpus ~dir ~all outcomes =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with _ -> ());
  let write name spec =
    match Emit.spec_to_nm spec with
    | text ->
        let oc = open_out (Filename.concat dir name) in
        output_string oc text;
        close_out oc
    | exception _ -> ()
  in
  List.iter
    (fun (i, tseed, outcome) ->
      let base = Printf.sprintf "trial-%04d-seed-%d" i tseed in
      match outcome with
      | Done (spec, Some c) ->
          write (base ^ ".nm") spec;
          write (base ^ "-min.nm") c.spec
      | Done (spec, None) -> if all then write (base ^ ".nm") spec
      | Skipped | Timed_out _ -> ())
    outcomes

let run ?(gen_config = Generate.default) ?(oracle_config = Oracle.default)
    ?(shrink = true) ?jobs ?pool ?(obs = Obs.Ctx.disabled)
    ?(guard = Rt.Guard.inert) ?watchdog ?corpus_out ?(corpus_all = false)
    ~seed ~count () =
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> j
    | None, Some p -> Par.Pool.jobs p
    | None, None -> 1
  in
  if count < 0 then invalid_arg "Fuzz.run: count must be non-negative";
  if jobs <= 0 then invalid_arg "Fuzz.run: jobs must be positive";
  let guard_on = Rt.Guard.active guard in
  let completed = Atomic.make 0 in
  let one i =
    let tseed = seed + i in
    (* Announce the seed {e before} the trial runs: if a trial hangs or
       the process dies, the last [fuzz.start] in the trace names the
       seed to replay. Emitted live (from whichever worker runs the
       trial), unlike the post-hoc per-trial records below. *)
    if Obs.Ctx.enabled obs then
      Obs.Ctx.emit obs "fuzz.start"
        [ ("trial", Obs.Sink.I i); ("seed", Obs.Sink.I tseed) ];
    let outcome =
      if guard_on && Rt.Guard.poll guard ~states:0 ~bytes:0 <> None then
        Skipped
      else
        run_trial ~gen_config ~oracle_config ~shrink ~guard ~watchdog i tseed
    in
    let done_ = Atomic.fetch_and_add completed 1 + 1 in
    Obs.Ctx.tick obs ~label:"fuzz" ~states:done_ ();
    (i, tseed, outcome)
  in
  let outcomes =
    Par.Pool.use ?pool ~jobs (fun pool ->
        Par.Pool.map_reduce pool ~n:count
          ~map:(fun ~worker:_ lo hi -> List.init (hi - lo) (fun k -> one (lo + k)))
          (fun acc chunk -> List.rev_append chunk acc)
          [])
    |> List.rev
  in
  (match corpus_out with
  | Some dir -> write_corpus ~dir ~all:corpus_all outcomes
  | None -> ());
  (* All recording is post-hoc and in trial order, so counters and the
     JSONL trace are identical at any job count (modulo the live
     [fuzz.start] lines, whose per-trial {e count} is stable). *)
  if Obs.Ctx.enabled obs then begin
    let trials_c = Obs.Ctx.counter obs "fuzz.trials" in
    let cex_c = Obs.Ctx.counter obs "fuzz.counterexamples" in
    let shrink_c = Obs.Ctx.counter obs "fuzz.shrink_evals" in
    List.iter
      (fun (i, tseed, outcome) ->
        Obs.Metrics.incr trials_c;
        let head = [ ("trial", Obs.Sink.I i); ("seed", Obs.Sink.I tseed) ] in
        let spec_fields spec =
          [
            ("vars", Obs.Sink.I (List.length (Spec.live_slots spec)));
            ("actions", Obs.Sink.I (Spec.action_count spec));
            ("states", Obs.Sink.F (Spec.space_size spec));
          ]
        in
        match outcome with
        | Skipped ->
            Obs.Metrics.incr (Obs.Ctx.counter obs "fuzz.skipped");
            Obs.Ctx.emit obs "fuzz.trial"
              (head @ [ ("skipped", Obs.Sink.B true) ])
        | Timed_out (spec, attempts) ->
            Obs.Metrics.incr (Obs.Ctx.counter obs "fuzz.timeouts");
            Obs.Ctx.emit obs "fuzz.trial"
              (head @ spec_fields spec
              @ [
                  ("timeout", Obs.Sink.B true);
                  ("attempts", Obs.Sink.I attempts);
                ])
        | Done (spec, None) ->
            Obs.Ctx.emit obs "fuzz.trial"
              (head @ spec_fields spec @ [ ("ok", Obs.Sink.B true) ])
        | Done (spec, Some c) ->
            Obs.Metrics.incr cex_c;
            Obs.Metrics.add shrink_c c.shrink.Shrink.evals;
            Obs.Metrics.incr
              (Obs.Ctx.counter obs ("fuzz.fail." ^ c.failure.Oracle.oracle));
            Obs.Ctx.emit obs "fuzz.trial"
              (head @ spec_fields spec
              @ [
                  ("ok", Obs.Sink.B false);
                  ("oracle", Obs.Sink.S c.failure.Oracle.oracle);
                  ("min_actions", Obs.Sink.I (Spec.action_count c.spec));
                  ("min_vars", Obs.Sink.I (List.length (Spec.live_slots c.spec)));
                  ("shrink_evals", Obs.Sink.I c.shrink.Shrink.evals);
                ]))
      outcomes;
    let cex_total =
      List.length
        (List.filter
           (fun (_, _, o) -> match o with Done (_, Some _) -> true | _ -> false)
           outcomes)
    in
    Obs.Ctx.emit obs "fuzz.done"
      [ ("trials", Obs.Sink.I count); ("counterexamples", Obs.Sink.I cex_total) ];
    Obs.Ctx.finish_progress obs ~label:"fuzz" ~states:count
  end;
  {
    trials = count;
    start_seed = seed;
    counterexamples =
      List.filter_map
        (fun (_, _, o) -> match o with Done (_, c) -> c | _ -> None)
        outcomes;
    skipped =
      List.length
        (List.filter (fun (_, _, o) -> o = Skipped) outcomes);
    timeouts =
      List.filter_map
        (fun (i, tseed, o) ->
          match o with
          | Timed_out (_, attempts) ->
              Some { t_trial = i; t_seed = tseed; t_attempts = attempts }
          | _ -> None)
        outcomes;
  }

let pp_report ppf r =
  let degraded ppf =
    if r.skipped > 0 then
      Format.fprintf ppf "@,  %d trial(s) skipped (budget exhausted)"
        r.skipped;
    List.iter
      (fun t ->
        Format.fprintf ppf
          "@,  [trial %d] watchdog expired on all %d attempt(s); replay: \
           nonmask fuzz --seed %d --count 1"
          t.t_trial t.t_attempts t.t_seed)
      r.timeouts
  in
  match r.counterexamples with
  | [] ->
      Format.fprintf ppf "@[<v>fuzz: %d trials from seed %d: %s%t@]" r.trials
        r.start_seed
        (if r.skipped > 0 || r.timeouts <> [] then
           "no counterexample among the completed trials"
         else "all oracles hold")
        degraded
  | cexs ->
      Format.fprintf ppf
        "@[<v>fuzz: %d trials from seed %d: %d counterexample(s)%t@,@,"
        r.trials r.start_seed (List.length cexs) degraded;
      List.iter
        (fun c ->
          Format.fprintf ppf
            "@[<v>[trial %d] oracle %s: %s@,\
            \  reproduce: nonmask fuzz --seed %d --count 1@,\
            \  shrunk %d -> %d actions (%d oracle evals, %d reductions)@,%a@,@]"
            c.trial c.failure.Oracle.oracle c.failure.Oracle.detail c.seed
            c.original_actions (Spec.action_count c.spec)
            c.shrink.Shrink.evals c.shrink.Shrink.accepted Spec.pp c.spec)
        cexs
