(* The observability subsystem: JSON round-trips, the domain-safety of
   the metrics registry, JSONL trace shape, and the reconciliation
   contract — summed event fields must agree exactly with the final
   metrics snapshot, at any job count. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Engine = Explore.Engine
module Convergence = Explore.Convergence
module Token_ring = Protocols.Token_ring

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.Str "plain");
        ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [] ]) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let test_json_escapes () =
  let s = "quote\" backslash\\ newline\n tab\t ctrl\x01 unicode\xc3\xa9" in
  (match Json.of_string (Json.to_string (Json.Str s)) with
  | Ok (Json.Str s') -> Alcotest.(check string) "escaped string" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg));
  (* \u escapes decode to UTF-8 *)
  (match Json.of_string {|"café ✓"|} with
  | Ok (Json.Str s') -> Alcotest.(check string) "unicode" "caf\xc3\xa9 \xe2\x9c\x93" s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.fail ("unicode parse failed: " ^ msg));
  (* non-finite floats have no JSON representation; they render as null *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan))

(* Roundtrip fuzzing with lib/gen's JSON generators: hostile strings
   (every escape class, raw UTF-8, NUL), numeric edge cases (min_int,
   max_int, negative zero, exponent-rendered magnitudes), and deep
   nesting. Failures print the seed, which replays the exact value. *)
let test_json_roundtrip_fuzz () =
  for seed = 0 to 499 do
    let v = Gen.Jsongen.value (Prng.create seed) in
    let s = Json.to_string v in
    match Json.of_string s with
    | Ok v' ->
        if v <> v' then
          Alcotest.failf "seed %d: %s reparsed as %s" seed s (Json.to_string v')
    | Error msg -> Alcotest.failf "seed %d: %s failed to parse: %s" seed s msg
  done

(* Negative zero survives: it renders as "-0.0" (never bare "-0", which
   would reparse as Int) and compares equal structurally. *)
let test_json_negative_zero () =
  Alcotest.(check string) "renders with fraction" "-0.0"
    (Json.to_string (Json.Float (-0.)));
  match Json.of_string "-0.0" with
  | Ok (Json.Float f) ->
      Alcotest.(check bool) "sign bit kept" true (1. /. f = neg_infinity)
  | Ok _ -> Alcotest.fail "not a float"
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let test_json_errors () =
  let bad = [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\":1} trailing" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | Error _ -> ())
    bad

(* --- Metrics --- *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check int) "same handle" 5 (Metrics.value (Metrics.counter m "c"));
  let g = Metrics.gauge m "g" in
  Metrics.set g 7;
  Metrics.set_max g 3;
  Alcotest.(check int) "set_max keeps max" 7 (Metrics.gauge_value g);
  Metrics.set_max g 11;
  Alcotest.(check int) "set_max raises" 11 (Metrics.gauge_value g);
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 1000 ];
  Alcotest.(check int) "hist count" 4 (Metrics.hist_count h);
  Alcotest.(check int) "hist sum" 1006 (Metrics.hist_sum h);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"c\" already registered as another kind")
    (fun () -> ignore (Metrics.gauge m "c"))

let test_metrics_snapshot_deterministic () =
  let build () =
    let m = Metrics.create () in
    (* registration order must not leak into the snapshot *)
    let names = [ "zeta"; "alpha"; "mid" ] in
    List.iter (fun n -> Metrics.add (Metrics.counter m n) 2) names;
    Metrics.observe (Metrics.histogram m "h") 100;
    Json.to_string (Metrics.snapshot m)
  in
  let build_rev () =
    let m = Metrics.create () in
    let names = [ "mid"; "alpha"; "zeta" ] in
    List.iter (fun n -> Metrics.add (Metrics.counter m n) 2) names;
    Metrics.observe (Metrics.histogram m "h") 100;
    Json.to_string (Metrics.snapshot m)
  in
  Alcotest.(check string) "order-independent" (build ()) (build_rev ())

let test_metrics_multidomain () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hits" in
  let h = Metrics.histogram m "obs" in
  let per_domain = 20_000 and domains = 4 in
  let worker () =
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h (i land 255)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (domains * per_domain)
    (Metrics.value c);
  Alcotest.(check int) "no lost observations" (domains * per_domain)
    (Metrics.hist_count h)

(* --- JSONL sink + reconciliation --- *)

let read_trace file =
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev_map
    (fun line ->
      match Json.of_string line with
      | Ok j -> j
      | Error msg -> Alcotest.fail (Printf.sprintf "bad trace line %S: %s" line msg))
    !lines

let ev_name j =
  match Json.member "ev" j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail ("trace line without ev: " ^ Json.to_string j)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some n -> n
  | None ->
      Alcotest.fail
        (Printf.sprintf "missing int field %s in %s" name (Json.to_string j))

let with_trace f =
  let file = Filename.temp_file "nonmask-test-obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      let obs = Obs.Ctx.create ~sink:(Obs.Sink.jsonl oc) () in
      let r = f obs in
      Obs.Ctx.close obs;
      (r, read_trace file))

let test_sink_lines_ordered () =
  let (), trace =
    with_trace (fun obs ->
        for i = 0 to 9 do
          Obs.Ctx.emit obs "tick"
            [ ("i", Obs.Sink.I i); ("even", Obs.Sink.B (i mod 2 = 0)) ]
        done)
  in
  Alcotest.(check int) "10 lines" 10 (List.length trace);
  List.iteri
    (fun i j ->
      Alcotest.(check string) "ev" "tick" (ev_name j);
      Alcotest.(check int) "seq in order" i (int_field "seq" j);
      Alcotest.(check int) "payload" i (int_field "i" j))
    trace

(* The reconciliation contract: counters in the final snapshot equal the
   sums over the corresponding trace events — and the event profile is
   identical at any job count. *)
let engine_trace jobs =
  with_trace (fun obs ->
      let tr = Token_ring.make ~nodes:4 ~k:4 in
      let engine =
        Engine.create ~backend:Engine.Parallel ~jobs ~obs (Token_ring.env tr)
      in
      let result =
        Convergence.check_unfair engine
          (Guarded.Compile.program (Token_ring.combined tr))
          ~from:
            (Engine.Seeds
               (Engine.ball (Token_ring.env tr) ~center:(Token_ring.all_zero tr)
                  ~radius:2))
          ~target:(fun s -> Token_ring.invariant tr s)
      in
      let discovered =
        Metrics.value (Obs.Ctx.counter obs "engine.states_discovered")
      in
      let graph_bytes =
        Metrics.gauge_value (Obs.Ctx.gauge obs "engine.graph_bytes")
      and edges = Metrics.value (Obs.Ctx.counter obs "engine.region_edges") in
      (result, (discovered, graph_bytes, edges)))

let test_trace_reconciles_with_metrics () =
  let (result, (discovered, _, _)), trace = engine_trace 2 in
  (match result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "token-ring should converge");
  let by ev = List.filter (fun j -> ev_name j = ev) trace in
  let sum field evs = List.fold_left (fun a j -> a + int_field field j) 0 evs in
  let regions = by "engine.region" in
  Alcotest.(check bool) "has region events" true (regions <> []);
  Alcotest.(check int) "sum explored = states_discovered counter" discovered
    (sum "explored" regions);
  (* parallel backend: roots + wave discoveries account for every state *)
  let roots = sum "discovered" (by "engine.roots") in
  let waves = sum "discovered" (by "engine.wave") in
  Alcotest.(check int) "roots + waves = explored" (sum "explored" regions)
    (roots + waves)

let test_trace_stable_across_jobs () =
  let profile trace =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun j ->
        let ev = ev_name j in
        Hashtbl.replace tbl ev
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl ev)))
      trace;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let (_, (d1, g1, e1)), t1 = engine_trace 1 in
  let (_, (d4, g4, e4)), t4 = engine_trace 4 in
  Alcotest.(check int) "same discovery count" d1 d4;
  Alcotest.(check int) "same region edges" e1 e4;
  Alcotest.(check int) "same graph bytes" g1 g4;
  Alcotest.(check bool) "graph has edges" true (e1 > 0);
  Alcotest.(check bool) "at most 24 B per edge" true (g1 <= 24 * e1);
  Alcotest.(check (list (pair string int)))
    "identical event profile at jobs 1 and 4" (profile t1) (profile t4)

(* engine.graph_bytes: the region graph as handed back is source-free —
   16 bytes per edge (destination and label words) plus 8 per node (the
   offsets) — the same on every backend. *)
let test_graph_bytes_every_backend () =
  let tr = Token_ring.make ~nodes:4 ~k:4 in
  let gauge backend =
    let obs = Obs.Ctx.create () in
    let engine = Engine.create ~backend ~jobs:2 ~obs (Token_ring.env tr) in
    ignore
      (Convergence.check_unfair engine
         (Guarded.Compile.program (Token_ring.combined tr))
         ~from:Engine.All
         ~target:(fun s -> Token_ring.invariant tr s));
    Alcotest.(check int) "one region" 1
      (Metrics.value (Obs.Ctx.counter obs "engine.regions"));
    ( Metrics.gauge_value (Obs.Ctx.gauge obs "engine.graph_bytes"),
      ( Metrics.value (Obs.Ctx.counter obs "engine.region_edges"),
        Metrics.value (Obs.Ctx.counter obs "engine.region_nodes") ) )
  in
  let ((bytes, (edges, nodes)) as eager) = gauge Engine.Eager in
  Alcotest.(check bool) "region has edges" true (edges > 0);
  Alcotest.(check int) "16 B per edge plus 8 per node"
    ((16 * edges) + (8 * (nodes + 1)))
    bytes;
  List.iter
    (fun backend ->
      Alcotest.(check (pair int (pair int int)))
        "same as eager" eager (gauge backend))
    [ Engine.Lazy; Engine.Parallel ]

let test_storm_trial_events () =
  let trials = 40 in
  let (result, (total_steps, faults_injected)), trace =
    with_trace (fun obs ->
        let tr = Token_ring.make ~nodes:4 ~k:5 in
        let env = Token_ring.env tr in
        let fault = Sim.Fault.corrupt env ~k:1 in
        let result =
          Sim.Storm.trials ~max_steps:2_000 ~jobs:2 ~obs
            ~rng:(Prng.create 7) ~trials
            ~daemon:(fun r -> Sim.Daemon.random r)
            ~prepare:(fun r ->
              let s = Token_ring.all_zero tr in
              fault.Sim.Fault.inject r s;
              s)
            ~stop:(fun s -> Token_ring.invariant tr s)
            ~fault ~rate:0.05
            (Guarded.Compile.program (Token_ring.combined tr))
        in
        ( result,
          ( Metrics.value (Obs.Ctx.counter obs "storm.steps_total"),
            Metrics.value (Obs.Ctx.counter obs "storm.faults_injected") ) ))
  in
  let trial_evs = List.filter (fun j -> ev_name j = "storm.trial") trace in
  Alcotest.(check int) "one event per trial" trials (List.length trial_evs);
  (* events arrive in trial order regardless of which domain ran them *)
  List.iteri
    (fun i j -> Alcotest.(check int) "trial index" i (int_field "trial" j))
    trial_evs;
  let sum field = List.fold_left (fun a j -> a + int_field field j) 0 trial_evs in
  Alcotest.(check int) "sum steps = steps_total counter" total_steps
    (sum "steps");
  Alcotest.(check int) "sum faults = faults_injected counter" faults_injected
    (sum "faults");
  Alcotest.(check int) "steps match result array" total_steps
    (Array.fold_left ( + ) 0 result.Sim.Storm.steps)

let test_certify_span_events () =
  let (cert, ()), trace =
    with_trace (fun obs ->
        let tr = Token_ring.make ~nodes:4 ~k:5 in
        let env = Token_ring.env tr in
        let engine = Engine.create ~obs env in
        let fault = Sim.Fault.corrupt env ~k:1 in
        let cert =
          Nonmask.Certify.tolerance ~engine ~program:(Token_ring.combined tr)
            ~faults:(Sim.Fault.actions fault)
            ~invariant:(fun s -> Token_ring.invariant tr s)
            ~budget:1 ~name:"obs test" ()
        in
        (cert, ()))
  in
  Alcotest.(check bool) "certificate valid" true (Nonmask.Certify.ok cert);
  let span_names =
    List.filter_map
      (fun j ->
        if ev_name j = "span" then
          match Json.member "name" j with
          | Some (Json.Str s) -> Some s
          | _ -> None
        else None)
      trace
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true
        (List.mem phase span_names))
    [ "certify.span"; "certify.closure"; "certify.convergence" ];
  Alcotest.(check bool) "faultspan layers traced" true
    (List.exists (fun j -> ev_name j = "faultspan.layer") trace);
  match List.rev trace with
  | [] -> Alcotest.fail "empty trace"
  | last :: _ ->
      Alcotest.(check string) "certify.done is final" "certify.done"
        (ev_name last)

(* --- progress (interval <= 0 reports every tick) --- *)

let test_progress_every_tick () =
  let file = Filename.temp_file "nonmask-test-progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      let p = Obs.Progress.create ~interval:(-1.0) ~out:oc () in
      Obs.Progress.tick p ~label:"t" ~states:10 ~frontier:3 ~depth:1 ();
      Obs.Progress.tick p ~label:"t" ~states:20 ();
      Obs.Progress.final p ~label:"t" ~states:20;
      close_out oc;
      let ic = open_in file in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "three lines" 3 !n)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json roundtrip fuzz (500 seeds)" `Quick
      test_json_roundtrip_fuzz;
    Alcotest.test_case "json negative zero" `Quick test_json_negative_zero;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
    Alcotest.test_case "metrics snapshot deterministic" `Quick
      test_metrics_snapshot_deterministic;
    Alcotest.test_case "metrics multi-domain" `Quick test_metrics_multidomain;
    Alcotest.test_case "jsonl sink ordered" `Quick test_sink_lines_ordered;
    Alcotest.test_case "trace reconciles with metrics" `Quick
      test_trace_reconciles_with_metrics;
    Alcotest.test_case "trace stable across jobs" `Quick
      test_trace_stable_across_jobs;
    Alcotest.test_case
      "graph bytes: 16 B per edge on every backend, plus 8 per node" `Quick
      test_graph_bytes_every_backend;
    Alcotest.test_case "storm trial events" `Quick test_storm_trial_events;
    Alcotest.test_case "certify span events" `Quick test_certify_span_events;
    Alcotest.test_case "progress every tick" `Quick test_progress_every_tick;
  ]
