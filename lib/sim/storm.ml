module State = Guarded.State
module Compile = Guarded.Compile

type result = {
  steps : int array;
  failures : int;
  fault_counts : int array;
  summary : Stats.summary option;
  skipped : int;
  timeouts : int;
  retries : int;
}

exception Trial_timeout

(* One storm: per iteration, a coin decides between injecting the fault and
   executing one daemon-chosen program step ({!Runner.step_chosen}, the
   simultaneous multi-action execution of distributed daemons). Returns
   [(converged, iterations, faults_injected)]. [deadline] is an absolute
   wall-clock watchdog, polled every 256 iterations; expiry raises
   {!Trial_timeout}. *)
let run_storm ~max_steps ~fault_budget ~deadline ~rng ~daemon ~init ~stop
    ~fault ~rate (cp : Compile.program) =
  let state = State.copy init in
  let scratch = State.copy init in
  let timed = deadline < infinity in
  let rec loop steps faults =
    if timed && steps land 255 = 0 && Unix.gettimeofday () > deadline then
      raise Trial_timeout
    else if stop state then (true, steps, faults)
    else if steps >= max_steps then (false, steps, faults)
    else begin
      let may_fault =
        match fault_budget with None -> true | Some b -> faults < b
      in
      if may_fault && rate > 0. && Prng.float rng 1.0 < rate then begin
        fault.Fault.inject rng state;
        loop (steps + 1) (faults + 1)
      end
      else
        match Compile.enabled_indices cp state with
        | [] ->
            (* Program-terminal. Only a future fault can move the state, so
               keep ticking while faults remain possible; otherwise the trial
               is stuck for good. *)
            if may_fault && rate > 0. then loop (steps + 1) faults
            else (false, steps, faults)
        | enabled ->
            let ctx = { Daemon.program = cp; step = steps; state; enabled } in
            Runner.step_chosen cp ((daemon : Daemon.t).choose ctx) ~state
              ~scratch;
            loop (steps + 1) faults
    end
  in
  loop 0 0

let check_trials n = if n >= 0 then Ok n else Error "must be non-negative"

let check_rate r =
  if r >= 0. && r <= 1. then Ok r else Error "must be within [0, 1]"

let check_max_steps n = if n > 0 then Ok n else Error "must be positive"

let trials ?(max_steps = 100_000) ?fault_budget ?jobs ?pool
    ?(obs = Obs.Ctx.disabled) ?(guard = Rt.Guard.inert) ?watchdog ~rng ~trials
    ~daemon ~prepare ~stop ~fault ~rate cp =
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> j
    | None, Some p -> Par.Pool.jobs p
    | None, None -> 1
  in
  if jobs <= 0 then
    invalid_arg (Printf.sprintf "Storm.trials: jobs must be positive (got %d)" jobs);
  let guard_on = Rt.Guard.active guard in
  (* Pre-split every trial's stream sequentially: [Prng.split] only draws
     from the parent, and trials only ever touch their own stream, so
     these are exactly the streams the sequential loop would have used —
     the basis of the any-job-count determinism contract. *)
  let trial_rngs = Array.make trials None in
  for i = 0 to trials - 1 do
    trial_rngs.(i) <- Some (Prng.split rng)
  done;
  let ok_a = Array.make trials false in
  let steps_a = Array.make trials 0 in
  let fault_counts = Array.make trials 0 in
  let skipped_a = Array.make trials false in
  let abandoned_a = Array.make trials false in
  let timeout_attempts = Array.make trials 0 in
  let max_retries =
    match watchdog with None -> 0 | Some w -> w.Rt.Watchdog.retries
  in
  (* Per-trial order matches the sequential loop: prepare, then daemon,
     then the storm itself, all on the trial's own stream. Retry attempt
     [k] replays the trial on a derived stream — copy the trial's base
     stream, discard [k] splits — so attempt 0 is bit-identical to the
     watchdog-free run and every retry is reproducible from the same
     root seed. *)
  let completed = Atomic.make 0 in
  let run_trial cp i =
    (if guard_on && Rt.Guard.poll guard ~states:0 ~bytes:0 <> None then
       skipped_a.(i) <- true
     else
       let base = Option.get trial_rngs.(i) in
       let rec attempt k =
         let trial_rng = Prng.copy base in
         for _ = 1 to k do
           ignore (Prng.split trial_rng)
         done;
         let init = prepare trial_rng in
         let d = daemon trial_rng in
         let deadline =
           match watchdog with
           | None -> infinity
           | Some w -> Rt.Watchdog.deadline w
         in
         match
           run_storm ~max_steps ~fault_budget ~deadline ~rng:trial_rng
             ~daemon:d ~init ~stop ~fault ~rate cp
         with
         | ok, steps, faults ->
             ok_a.(i) <- ok;
             steps_a.(i) <- steps;
             fault_counts.(i) <- faults
         | exception Trial_timeout ->
             timeout_attempts.(i) <- timeout_attempts.(i) + 1;
             if k < max_retries then attempt (k + 1)
             else begin
               abandoned_a.(i) <- true;
               steps_a.(i) <- max_steps
             end
       in
       attempt 0);
    if Obs.Ctx.enabled obs then
      (* ticks may come from any worker domain; the reporter is
         try_lock-guarded, so contended ticks are dropped, not blocking *)
      Obs.Ctx.tick obs ~label:"storm"
        ~states:(Atomic.fetch_and_add completed 1 + 1)
        ()
  in
  (if jobs = 1 then
     for i = 0 to trials - 1 do
       run_trial cp i
     done
   else
     Par.Pool.use ?pool ~jobs @@ fun pool ->
     (* compiled actions are pure closures, shared by every worker *)
     Par.Pool.parallel_for pool ~n:trials (fun ~worker:_ lo hi ->
         for i = lo to hi - 1 do
           run_trial cp i
         done));
  let converged = ref [] in
  let failures = ref 0 in
  let skipped = ref 0 in
  let timeouts = ref 0 in
  let timeout_total = ref 0 in
  for i = trials - 1 downto 0 do
    timeout_total := !timeout_total + timeout_attempts.(i);
    if skipped_a.(i) then incr skipped
    else if abandoned_a.(i) then begin
      incr timeouts;
      incr failures
    end
    else if ok_a.(i) then converged := steps_a.(i) :: !converged
    else incr failures
  done;
  (* every timed-out attempt was either retried or the trial's last *)
  let retries = !timeout_total - !timeouts in
  let steps = Array.of_list !converged in
  let summary =
    if Array.length steps = 0 then None else Some (Stats.summarize_ints steps)
  in
  if Obs.Ctx.enabled obs then begin
    (* trial events are emitted post-hoc in trial-index order, so the
       trace is byte-stable at any job count even though workers finish
       trials in nondeterministic order; watchdog/guard annotations are
       appended only on affected trials, keeping undisturbed traces
       byte-identical to guard-free runs *)
    let steps_hist = Obs.Ctx.histogram obs "storm.steps" in
    for i = 0 to trials - 1 do
      Obs.Metrics.observe steps_hist steps_a.(i);
      Obs.Ctx.emit obs "storm.trial"
        ([
           ("trial", Obs.Sink.I i);
           ("converged", Obs.Sink.B ok_a.(i));
           ("steps", Obs.Sink.I steps_a.(i));
           ("faults", Obs.Sink.I fault_counts.(i));
         ]
        @ (if skipped_a.(i) then [ ("skipped", Obs.Sink.B true) ] else [])
        @
        if timeout_attempts.(i) > 0 then
          [
            ("timeout_attempts", Obs.Sink.I timeout_attempts.(i));
            ("abandoned", Obs.Sink.B abandoned_a.(i));
          ]
        else [])
    done;
    Obs.Metrics.add (Obs.Ctx.counter obs "storm.trials") trials;
    Obs.Metrics.add (Obs.Ctx.counter obs "storm.converged")
      (Array.length steps);
    Obs.Metrics.add (Obs.Ctx.counter obs "storm.failures") !failures;
    if !skipped > 0 then
      Obs.Metrics.add (Obs.Ctx.counter obs "storm.skipped") !skipped;
    if !timeouts > 0 then
      Obs.Metrics.add (Obs.Ctx.counter obs "storm.timeouts") !timeouts;
    if retries > 0 then
      Obs.Metrics.add (Obs.Ctx.counter obs "storm.retries") retries;
    Obs.Metrics.add
      (Obs.Ctx.counter obs "storm.steps_total")
      (Array.fold_left ( + ) 0 steps_a);
    Obs.Metrics.add
      (Obs.Ctx.counter obs "storm.faults_injected")
      (Array.fold_left ( + ) 0 fault_counts);
    Obs.Ctx.emit obs "storm.done"
      [ ("trials", Obs.Sink.I trials); ("failures", Obs.Sink.I !failures) ];
    Obs.Ctx.finish_progress obs ~label:"storm" ~states:trials
  end;
  {
    steps;
    failures = !failures;
    fault_counts;
    summary;
    skipped = !skipped;
    timeouts = !timeouts;
    retries;
  }

let pp_result ppf r =
  let mean_faults =
    if Array.length r.fault_counts = 0 then 0.
    else
      float_of_int (Array.fold_left ( + ) 0 r.fault_counts)
      /. float_of_int (Array.length r.fault_counts)
  in
  (match r.summary with
  | None -> Format.fprintf ppf "no trial converged (%d failures)" r.failures
  | Some s ->
      (* the quantile columns (p90, max, ...) are clamped at whatever
         the sampled trials happened to see — label them as observations
         so the rendering can never be read as a guarantee; the sound
         guarantee is the adversary bound (pp_result_with_bound) *)
      Format.fprintf ppf "observed %a%s" Stats.pp_summary s
        (if r.failures > 0 then Printf.sprintf " (%d failures)" r.failures
         else ""));
  Format.fprintf ppf " faults/trial=%.1f" mean_faults;
  if r.timeouts > 0 || r.retries > 0 then
    Format.fprintf ppf " timeouts=%d retries=%d" r.timeouts r.retries;
  if r.skipped > 0 then Format.fprintf ppf " skipped=%d" r.skipped

let pp_result_with_bound ~bound ppf r =
  pp_result ppf r;
  Format.fprintf ppf " bound=%s"
    (match bound with Some w -> string_of_int w | None -> "unbounded")
