(* Tests for the simulation engine: daemons, faults, traces, runner,
   statistics, and fault-free convergence trials (storms at rate 0). *)

module Domain = Guarded.Domain
module Env = Guarded.Env
module State = Guarded.State
module Expr = Guarded.Expr
module Action = Guarded.Action
module Program = Guarded.Program
module Compile = Guarded.Compile
module Daemon = Sim.Daemon
module Fault = Sim.Fault
module Runner = Sim.Runner
module Trace = Sim.Trace
module Stats = Sim.Stats
module Storm = Sim.Storm

(* countdown fixture: "down" decrements x to zero. *)
let countdown () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 10) in
  let open Expr in
  let down =
    Action.make ~name:"down" ~guard:(var x > int 0) [ (x, var x - int 1) ]
  in
  (env, x, Compile.program (Program.make ~name:"cd" env [ down ]))

(* two independent counters, for daemon choice tests *)
let two_counters () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 5) in
  let y = Env.fresh env "y" (Domain.range 0 5) in
  let open Expr in
  let dx = Action.make ~name:"dx" ~guard:(var x > int 0) [ (x, var x - int 1) ] in
  let dy = Action.make ~name:"dy" ~guard:(var y > int 0) [ (y, var y - int 1) ] in
  (env, x, y, Compile.program (Program.make ~name:"two" env [ dx; dy ]))

(* --- Runner --- *)

let test_runner_reaches_target () =
  let env, x, cp = countdown () in
  let init = State.of_list env [ (x, 7) ] in
  let outcome =
    Runner.run ~daemon:Daemon.first_enabled ~init
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check bool) "converged" true (Runner.converged outcome);
  Alcotest.(check int) "steps" 7 outcome.Runner.steps;
  Alcotest.(check int) "final" 0 (State.get outcome.Runner.final x);
  Alcotest.(check int) "init untouched" 7 (State.get init x)

let test_runner_zero_steps () =
  let env, x, cp = countdown () in
  let init = State.of_list env [ (x, 0) ] in
  let outcome =
    Runner.run ~daemon:Daemon.first_enabled ~init
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check int) "zero steps" 0 outcome.Runner.steps

let test_runner_terminal () =
  let env, x, cp = countdown () in
  let init = State.of_list env [ (x, 3) ] in
  let outcome =
    Runner.run ~daemon:Daemon.first_enabled ~init ~stop:(fun _ -> false) cp
  in
  Alcotest.(check bool) "terminal" true (outcome.Runner.reason = Runner.Terminal);
  Alcotest.(check int) "ran to zero" 0 (State.get outcome.Runner.final x)

let test_runner_budget () =
  let env, x, cp = countdown () in
  let init = State.of_list env [ (x, 10) ] in
  let outcome =
    Runner.run ~max_steps:3 ~daemon:Daemon.first_enabled ~init
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check bool) "budget" true
    (outcome.Runner.reason = Runner.Budget_exhausted);
  Alcotest.(check int) "3 steps" 3 outcome.Runner.steps

let test_runner_trace () =
  let env, x, cp = countdown () in
  let init = State.of_list env [ (x, 3) ] in
  let outcome =
    Runner.run ~record_trace:true ~daemon:Daemon.first_enabled ~init
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  match outcome.Runner.trace with
  | None -> Alcotest.fail "trace requested"
  | Some t ->
      Alcotest.(check int) "length" 3 (Trace.length t);
      Alcotest.(check int) "initial" 3 (State.get (Trace.initial t) x);
      let entries = Trace.entries t in
      Alcotest.(check (list (list string)))
        "action names"
        [ [ "down" ]; [ "down" ]; [ "down" ] ]
        (List.map (fun e -> e.Trace.actions) entries);
      Alcotest.(check (list int)) "state progression" [ 2; 1; 0 ]
        (List.map (fun e -> State.get e.Trace.state x) entries);
      Alcotest.(check int) "states incl initial" 4
        (List.length (Trace.states t))

(* --- Daemons --- *)

let test_daemon_first_enabled () =
  let env, x, y, cp = two_counters () in
  let init = State.of_list env [ (x, 2); (y, 2) ] in
  (* first-enabled always picks dx until x hits 0 *)
  let outcome =
    Runner.run ~daemon:Daemon.first_enabled ~init
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check int) "only dx ran" 2 outcome.Runner.steps;
  Alcotest.(check int) "y untouched" 2 (State.get outcome.Runner.final y)

let test_daemon_round_robin_fair () =
  let env, x, y, cp = two_counters () in
  let init = State.of_list env [ (x, 3); (y, 3) ] in
  let outcome =
    Runner.run
      ~daemon:(Daemon.round_robin ())
      ~init
      ~stop:(fun s -> State.get s x = 0 && State.get s y = 0)
      cp
  in
  Alcotest.(check bool) "converged" true (Runner.converged outcome);
  Alcotest.(check int) "six steps" 6 outcome.Runner.steps

let test_daemon_random_deterministic_per_seed () =
  let env, x, y, cp = two_counters () in
  let init = State.of_list env [ (x, 3); (y, 3) ] in
  let run seed =
    let outcome =
      Runner.run ~record_trace:true
        ~daemon:(Daemon.random (Prng.create seed))
        ~init
        ~stop:(fun s -> State.get s x = 0 && State.get s y = 0)
        cp
    in
    match outcome.Runner.trace with
    | Some t ->
        List.concat_map (fun e -> e.Trace.actions) (Trace.entries t)
    | None -> []
  in
  Alcotest.(check (list string)) "same seed same run" (run 5) (run 5)

let test_daemon_greedy () =
  (* greedy with score = value of x prefers the action that leaves x big *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 10) in
  let open Expr in
  let big = Action.make ~name:"big" ~guard:(var x < int 9) [ (x, int 9) ] in
  let small = Action.make ~name:"small" ~guard:(var x > int 0) [ (x, int 0) ] in
  let cp = Compile.program (Program.make ~name:"g" env [ small; big ]) in
  let d = Daemon.greedy ~name:"max-x" (fun s -> State.get s x) in
  let init = State.of_list env [ (x, 5) ] in
  let outcome = Runner.run ~max_steps:1 ~daemon:d ~init ~stop:(fun _ -> false) cp in
  Alcotest.(check int) "picked big" 9 (State.get outcome.Runner.final x)

let test_daemon_distributed_noninterfering () =
  let env, x, y, cp = two_counters () in
  let init = State.of_list env [ (x, 3); (y, 3) ] in
  let outcome =
    Runner.run
      ~daemon:(Daemon.distributed (Prng.create 3))
      ~init
      ~stop:(fun s -> State.get s x = 0 && State.get s y = 0)
      cp
  in
  (* dx and dy never interfere, so each step runs both: 3 rounds *)
  Alcotest.(check int) "parallel rounds" 3 outcome.Runner.steps

let test_daemon_distributed_conflicting () =
  (* two actions writing the same variable never run together *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 10) in
  let open Expr in
  let a = Action.make ~name:"a" ~guard:(var x < int 10) [ (x, var x + int 1) ] in
  let b = Action.make ~name:"b" ~guard:(var x < int 10) [ (x, var x + int 1) ] in
  let cp = Compile.program (Program.make ~name:"conf" env [ a; b ]) in
  let init = State.of_list env [ (x, 0) ] in
  let outcome =
    Runner.run ~max_steps:4
      ~daemon:(Daemon.distributed (Prng.create 1))
      ~init ~stop:(fun _ -> false) cp
  in
  (* each step executes exactly one of the conflicting actions *)
  Alcotest.(check int) "one increment per step" 4
    (State.get outcome.Runner.final x)

(* --- Faults --- *)

let test_fault_corrupt_stays_in_domain () =
  let env = Env.create () in
  let _ = Env.fresh_family env "x" 5 (Domain.range 2 7) in
  let f = Fault.corrupt env ~k:3 in
  let rng = Prng.create 9 in
  for _ = 1 to 50 do
    let s = State.make env in
    f.Fault.inject rng s;
    Alcotest.(check bool) "in domain" true (State.in_domain env s)
  done

let test_fault_corrupt_k_bound () =
  let env = Env.create () in
  let xs = Env.fresh_family env "x" 6 (Domain.range 0 9) in
  let f = Fault.corrupt env ~k:2 in
  let rng = Prng.create 10 in
  for _ = 1 to 30 do
    let s = State.make env in
    f.Fault.inject rng s;
    let changed =
      Array.fold_left
        (fun acc v -> if State.get s v <> 0 then acc + 1 else acc)
        0 xs
    in
    Alcotest.(check bool) "at most 2 changed" true (changed <= 2)
  done

let test_fault_scramble_covers () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let f = Fault.scramble env in
  let rng = Prng.create 11 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    let s = State.make env in
    f.Fault.inject rng s;
    seen.(State.get s x) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_fault_reset () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let y = Env.fresh env "y" (Domain.range 0 3) in
  let f = Fault.reset_vars [ (x, 2) ] in
  let s = State.of_list env [ (x, 1); (y, 3) ] in
  f.Fault.inject (Prng.create 0) s;
  Alcotest.(check int) "x reset" 2 (State.get s x);
  Alcotest.(check int) "y kept" 3 (State.get s y)

let test_fault_compose () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let y = Env.fresh env "y" (Domain.range 0 3) in
  let f = Fault.compose "both" [ Fault.reset_vars [ (x, 1) ]; Fault.reset_vars [ (y, 2) ] ] in
  let s = State.make env in
  f.Fault.inject (Prng.create 0) s;
  Alcotest.(check int) "x" 1 (State.get s x);
  Alcotest.(check int) "y" 2 (State.get s y)

(* --- Stats --- *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Stats.stddev

let test_stats_single () =
  let s = Stats.summarize [| 42.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "sd" 0.0 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "p90" 42.0 s.Stats.p90

let test_stats_percentile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "p50" 5.0 (Stats.percentile sorted 0.5);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile sorted 0.0);
  Alcotest.(check (float 1e-9)) "p100" 10.0 (Stats.percentile sorted 1.0)

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize [||]))

let test_percentile_edge_cases () =
  Alcotest.check_raises "empty array"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 0.5));
  Alcotest.check_raises "nan q" (Invalid_argument "Stats.percentile: q is nan")
    (fun () -> ignore (Stats.percentile [| 1.0; 2.0 |] nan));
  (* a single element answers every quantile *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single q=%g" q)
        7.0
        (Stats.percentile [| 7.0 |] q))
    [ 0.0; 0.5; 1.0; -3.0; 42.0 ];
  (* out-of-range q clamps to the extremes instead of indexing out *)
  let sorted = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "q<0 clamps" 1.0 (Stats.percentile sorted (-0.5));
  Alcotest.(check (float 1e-9)) "q>1 clamps" 3.0 (Stats.percentile sorted 1.5)

(* The interpolating percentile agrees with a naive sort-based
   nearest-rank reference to within one rank, on random inputs of random
   sizes, for the quantiles the summary actually reports. *)
let test_percentile_vs_nearest_rank () =
  let quantiles = [ 0.0; 0.5; 0.9; 0.99; 1.0 ] in
  for seed = 0 to 49 do
    let rng = Prng.create seed in
    let n = 1 + Prng.int rng 200 in
    let data =
      Array.init n (fun _ -> Prng.float rng 1000.0 -. 500.0)
    in
    let sorted = Array.copy data in
    Array.sort compare sorted;
    List.iter
      (fun q ->
        let got = Stats.percentile sorted q in
        (* nearest rank: smallest index r with (r+1)/n >= q *)
        let rank =
          min (n - 1)
            (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
        in
        let lo = sorted.(max 0 (rank - 1)) in
        let hi = sorted.(min (n - 1) (rank + 1)) in
        if not (got >= lo && got <= hi) then
          Alcotest.failf
            "seed %d n %d q %g: percentile %g outside one-rank bracket \
             [%g, %g] around rank %d"
            seed n q got lo hi rank)
      quantiles
  done

(* --- convergence trials: one prepared fault, then a storm at rate 0 --- *)

let convergence_trials ?max_steps env ~rng ~trials ~daemon ~prepare ~stop cp =
  Storm.trials ?max_steps ~rng ~trials ~daemon ~prepare ~stop
    ~fault:(Fault.scramble env) ~rate:0. cp

let test_experiment_trials () =
  let env, x, cp = countdown () in
  let rng = Prng.create 21 in
  let result =
    convergence_trials env ~rng ~trials:20
      ~daemon:(fun r -> Daemon.random r)
      ~prepare:(fun r ->
        State.of_list env [ (x, 1 + Prng.int r 9) ])
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check int) "all converged" 0 result.Storm.failures;
  Alcotest.(check int) "20 samples" 20 (Array.length result.Storm.steps);
  Alcotest.(check int) "no fault fires at rate 0" 0
    (Array.fold_left ( + ) 0 result.Storm.fault_counts);
  match result.Storm.summary with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
      Alcotest.(check bool) "mean within bounds" true
        (1.0 <= s.Stats.mean && s.Stats.mean <= 9.0)

(* The steps and summary line are pinned: a storm at rate 0 makes the
   same per-trial splits and draws as a loop of single recoveries. *)
let test_experiment_reproducible () =
  let env, x, cp = countdown () in
  let run seed =
    convergence_trials env ~rng:(Prng.create seed) ~trials:10
      ~daemon:(fun r -> Daemon.random r)
      ~prepare:(fun r -> State.of_list env [ (x, 1 + Prng.int r 9) ])
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check (array int)) "same seed same steps" (run 4).Storm.steps
    (run 4).Storm.steps;
  Alcotest.(check (array int)) "pinned steps"
    [| 3; 7; 8; 2; 1; 8; 4; 1; 2; 8 |]
    (run 4).Storm.steps;
  Alcotest.(check string) "pinned summary"
    "n=10 mean=4.40 sd=3.03 min=1 med=3.5 p90=8.0 max=8"
    (Format.asprintf "%a" Stats.pp_summary
       (Option.get (run 4).Storm.summary))

let test_experiment_failures_counted () =
  let env, x, cp = countdown () in
  let result =
    convergence_trials ~max_steps:2 env ~rng:(Prng.create 5) ~trials:10
      ~daemon:(fun _ -> Daemon.first_enabled)
      ~prepare:(fun _ -> State.of_list env [ (x, 10) ])
      ~stop:(fun s -> State.get s x = 0)
      cp
  in
  Alcotest.(check int) "all failed" 10 result.Storm.failures;
  Alcotest.(check bool) "no summary" true (result.Storm.summary = None)

let suite =
  [
    Alcotest.test_case "runner reaches target" `Quick test_runner_reaches_target;
    Alcotest.test_case "runner zero steps" `Quick test_runner_zero_steps;
    Alcotest.test_case "runner terminal" `Quick test_runner_terminal;
    Alcotest.test_case "runner budget" `Quick test_runner_budget;
    Alcotest.test_case "runner trace" `Quick test_runner_trace;
    Alcotest.test_case "daemon first-enabled" `Quick test_daemon_first_enabled;
    Alcotest.test_case "daemon round-robin" `Quick test_daemon_round_robin_fair;
    Alcotest.test_case "daemon random deterministic" `Quick
      test_daemon_random_deterministic_per_seed;
    Alcotest.test_case "daemon greedy" `Quick test_daemon_greedy;
    Alcotest.test_case "daemon distributed parallel" `Quick
      test_daemon_distributed_noninterfering;
    Alcotest.test_case "daemon distributed conflicts" `Quick
      test_daemon_distributed_conflicting;
    Alcotest.test_case "fault corrupt in domain" `Quick
      test_fault_corrupt_stays_in_domain;
    Alcotest.test_case "fault corrupt bound" `Quick test_fault_corrupt_k_bound;
    Alcotest.test_case "fault scramble coverage" `Quick test_fault_scramble_covers;
    Alcotest.test_case "fault reset" `Quick test_fault_reset;
    Alcotest.test_case "fault compose" `Quick test_fault_compose;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats single value" `Quick test_stats_single;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile_interpolation;
    Alcotest.test_case "stats percentile edge cases" `Quick
      test_percentile_edge_cases;
    Alcotest.test_case "stats percentile vs nearest-rank reference" `Quick
      test_percentile_vs_nearest_rank;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "experiment trials" `Quick test_experiment_trials;
    Alcotest.test_case "experiment reproducible" `Quick test_experiment_reproducible;
    Alcotest.test_case "experiment failures" `Quick test_experiment_failures_counted;
  ]
