(* Tests for the multicore subsystem: the Par substrate (pool,
   chunk-ordered buffers, sharded map, int vectors) and the determinism
   contract of everything built on it — the parallel engine backend
   must be bit-identical to the lazy one, parallel fault spans to
   sequential ones, and parallel storm trials to the jobs=1 loop, all
   at any job count. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Engine = Explore.Engine
module Convergence = Explore.Convergence

(* --- Par.Ivec --- *)

let test_ivec () =
  let v = Par.Ivec.create () in
  for i = 0 to 199 do
    Alcotest.(check int) "push returns index" i (Par.Ivec.push v (i * 3))
  done;
  Alcotest.(check int) "len" 200 (Par.Ivec.len v);
  Alcotest.(check int) "get" 42 (Par.Ivec.get v 14);
  let a = Par.Ivec.to_array v in
  Alcotest.(check int) "to_array len" 200 (Array.length a);
  Alcotest.(check int) "to_array content" 597 a.(199);
  let w = Par.Ivec.create () in
  ignore (Par.Ivec.push w 7);
  Par.Ivec.swap v w;
  Alcotest.(check int) "swap moved len" 1 (Par.Ivec.len v);
  Alcotest.(check int) "swap moved content" 7 (Par.Ivec.get v 0);
  Alcotest.(check int) "swap other way" 200 (Par.Ivec.len w);
  Par.Ivec.clear w;
  Alcotest.(check int) "clear" 0 (Par.Ivec.len w)

(* --- Par.Pool --- *)

let test_pool_parallel_for_covers () =
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  let n = 10_000 in
  let hits = Array.make n 0 in
  (* chunks partition [0, n): every index is written exactly once, so no
     atomicity is needed for distinct cells *)
  Par.Pool.parallel_for pool ~n (fun ~worker:_ lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "every index exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_pool_map_reduce_ordered () =
  (* the fold must see chunk results in chunk order, whatever order the
     workers finished in — run a few times to shake scheduling *)
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  for _ = 1 to 5 do
    let ranges =
      Par.Pool.map_reduce pool ~n:1000 ~chunk:64
        ~map:(fun ~worker:_ lo hi -> [ (lo, hi) ])
        (fun acc r -> acc @ r)
        []
    in
    let rec contiguous at = function
      | [] -> at = 1000
      | (lo, hi) :: rest -> lo = at && hi > lo && contiguous hi rest
    in
    Alcotest.(check bool) "chunks folded in order" true (contiguous 0 ranges)
  done

let test_pool_inline_when_single () =
  (* jobs=1 must run the body inline on the caller — observable via a
     plain ref, no synchronization *)
  Par.Pool.with_pool ~jobs:1 @@ fun pool ->
  let sum = ref 0 in
  Par.Pool.parallel_for pool ~n:100 (fun ~worker lo hi ->
      Alcotest.(check int) "single worker id" 0 worker;
      for i = lo to hi - 1 do
        sum := !sum + i
      done);
  Alcotest.(check int) "inline sum" 4950 !sum

let test_pool_propagates_exception () =
  Par.Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check bool) "body exception re-raised" true
    (try
       Par.Pool.parallel_for pool ~n:100 ~chunk:1 (fun ~worker:_ lo _ ->
           if lo = 57 then failwith "boom");
       false
     with Failure m -> m = "boom");
  (* the pool survives a failed round *)
  let count = Atomic.make 0 in
  Par.Pool.parallel_for pool ~n:10 (fun ~worker:_ lo hi ->
      ignore (Atomic.fetch_and_add count (hi - lo)));
  Alcotest.(check int) "pool usable after failure" 10 (Atomic.get count)

let test_pool_validation () =
  Alcotest.(check bool) "jobs 0 rejected" true
    (try
       ignore (Par.Pool.create ~jobs:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "default_jobs positive" true
    (Par.Pool.default_jobs () >= 1);
  let pool = Par.Pool.create ~jobs:2 in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool (* idempotent *)

(* --- Par.Chunked --- *)

let test_chunked_index_order () =
  (* variable-length outputs over several blocks: the committed stream
     is every index's output in index order, at any job count, and the
     buffers stay bounded by a block, not by the range *)
  let n = 20_000 in
  let expected = Par.Ivec.create () in
  for i = 0 to n - 1 do
    for j = 0 to i mod 4 do
      ignore (Par.Ivec.push expected ((10 * i) + j))
    done
  done;
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs @@ fun pool ->
      let c = Par.Chunked.create () in
      let got = Par.Ivec.create () in
      (* the second round reuses the first round's buffers *)
      for round = 1 to 2 do
        Par.Ivec.clear got;
        Par.Chunked.round c pool ~n
          ~expand:(fun ~worker:_ out i ->
            for j = 0 to i mod 4 do
              ignore (Par.Ivec.push out ((10 * i) + j))
            done)
          ~commit:(fun out ->
            for k = 0 to Par.Ivec.len out - 1 do
              ignore (Par.Ivec.push got (Par.Ivec.get out k))
            done);
        Alcotest.(check (array int))
          (Printf.sprintf "jobs=%d round %d: index order" jobs round)
          (Par.Ivec.to_array expected) (Par.Ivec.to_array got)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: buffers smaller than the output" jobs)
        true
        (Par.Chunked.bytes c > 0
        && Par.Chunked.bytes c < Par.Ivec.bytes expected))
    [ 1; 2; 4 ]

(* --- Par.Shardmap --- *)

let test_shardmap_basics () =
  let m = Par.Shardmap.create ~shards:8 () in
  for k = 0 to 999 do
    Par.Shardmap.add m k (k * k)
  done;
  Alcotest.(check int) "length" 1000 (Par.Shardmap.length m);
  Alcotest.(check (option int)) "find" (Some 49) (Par.Shardmap.find_opt m 7);
  Alcotest.(check (option int)) "miss" None (Par.Shardmap.find_opt m 1000);
  Alcotest.(check bool) "mem" true (Par.Shardmap.mem m 999);
  Par.Shardmap.add m 7 (-1);
  Alcotest.(check (option int)) "replace" (Some (-1)) (Par.Shardmap.find_opt m 7);
  Alcotest.(check int) "replace keeps length" 1000 (Par.Shardmap.length m);
  let tbl = Par.Shardmap.to_hashtbl m in
  Alcotest.(check int) "snapshot size" 1000 (Hashtbl.length tbl);
  Alcotest.(check (option int)) "snapshot content" (Some 169)
    (Hashtbl.find_opt tbl 13)

let test_shardmap_concurrent_adds () =
  let m = Par.Shardmap.create () in
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  Par.Pool.parallel_for pool ~n:5000 (fun ~worker:_ lo hi ->
      for k = lo to hi - 1 do
        Par.Shardmap.add m k (2 * k)
      done);
  Alcotest.(check int) "all bindings present" 5000 (Par.Shardmap.length m);
  let ok = ref true in
  Par.Shardmap.iter m (fun k v -> if v <> 2 * k then ok := false);
  Alcotest.(check bool) "bindings intact" true !ok

(* --- three-way engine backend agreement --- *)

(* The strong contract: the parallel region record is bit-identical to
   the lazy one — same node numbering, edge list, terminals, explored
   count — at any job count. The eager backend numbers nodes differently
   (space-id order), so against it we compare order-insensitive views. *)
let region_of backend ?(jobs = 1) env program invariant =
  let engine = Engine.create ~backend ~jobs env in
  Engine.region engine (Compile.program program) ~from:Engine.All
    ~target:invariant

let check_identical name (a : Engine.region) (b : Engine.region) =
  Alcotest.(check (array int))
    (name ^ ": node keys in discovery order")
    a.Engine.node_key b.Engine.node_key;
  Alcotest.(check (array bool))
    (name ^ ": terminals")
    a.Engine.terminal b.Engine.terminal;
  Alcotest.(check int) (name ^ ": explored") a.Engine.explored b.Engine.explored;
  let edges g =
    List.map
      (fun (e : int Dgraph.Digraph.edge) -> (e.src, e.dst, e.label))
      (Dgraph.Digraph.edges g)
  in
  Alcotest.(check (list (triple int int int)))
    (name ^ ": edge lists")
    (edges a.Engine.graph) (edges b.Engine.graph)

let sorted_view (r : Engine.region) =
  ( List.sort compare (Array.to_list r.Engine.node_key),
    Array.fold_left (fun n t -> if t then n + 1 else n) 0 r.Engine.terminal,
    Dgraph.Digraph.edge_count r.Engine.graph,
    r.Engine.explored )

let test_three_way_xyz () =
  List.iter
    (fun variant ->
      let d = Protocols.Xyz_demo.make variant in
      let env = Protocols.Xyz_demo.env d in
      let program = Protocols.Xyz_demo.program d in
      let inv s = Protocols.Xyz_demo.invariant d s in
      let eager = region_of Engine.Eager env program inv in
      let lzy = region_of Engine.Lazy env program inv in
      List.iter
        (fun jobs ->
          check_identical
            (Printf.sprintf "xyz jobs=%d" jobs)
            lzy
            (region_of Engine.Parallel ~jobs env program inv))
        [ 1; 2; 4 ];
      Alcotest.(check bool) "xyz: eager agrees up to numbering" true
        (sorted_view eager = sorted_view lzy))
    [ Protocols.Xyz_demo.Good_tree; Protocols.Xyz_demo.Good_ordered;
      Protocols.Xyz_demo.Bad ]

let test_three_way_token_ring () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  let env = Protocols.Token_ring.env tr in
  let program = Protocols.Token_ring.combined tr in
  let inv s = Protocols.Token_ring.invariant tr s in
  let eager = region_of Engine.Eager env program inv in
  let lzy = region_of Engine.Lazy env program inv in
  List.iter
    (fun jobs ->
      check_identical
        (Printf.sprintf "token-ring jobs=%d" jobs)
        lzy
        (region_of Engine.Parallel ~jobs env program inv))
    [ 1; 2; 4 ];
  Alcotest.(check bool) "token-ring: eager agrees up to numbering" true
    (sorted_view eager = sorted_view lzy)

let test_parallel_verdicts () =
  (* convergence verdicts through the full checker, including a livelock *)
  let check backend jobs env program invariant =
    Convergence.check_unfair
      (Engine.create ~backend ~jobs env)
      (Compile.program program) ~from:Engine.All ~target:invariant
  in
  let agree name env program invariant =
    let sig_of = function
      | Ok { Convergence.region_states; explored; worst_case_steps } ->
          Printf.sprintf "ok/%d/%d/%s" region_states explored
            (match worst_case_steps with
            | Some w -> string_of_int w
            | None -> "-")
      | Error (Convergence.Deadlock _) -> "deadlock"
      | Error (Convergence.Livelock _) -> "livelock"
    in
    let expected = sig_of (check Engine.Lazy 1 env program invariant) in
    List.iter
      (fun jobs ->
        Alcotest.(check string)
          (Printf.sprintf "%s jobs=%d" name jobs)
          expected
          (sig_of (check Engine.Parallel jobs env program invariant)))
      [ 1; 3 ]
  in
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  agree "token-ring" (Protocols.Token_ring.env tr)
    (Protocols.Token_ring.combined tr)
    (fun s -> Protocols.Token_ring.invariant tr s);
  let bad = Protocols.Dijkstra_ring.make ~nodes:4 ~k:2 in
  agree "dijkstra livelock"
    (Protocols.Dijkstra_ring.env bad)
    (Protocols.Dijkstra_ring.program bad)
    (fun s -> Protocols.Dijkstra_ring.invariant bad s)

let test_parallel_overflow_point () =
  (* the budget must trip at exactly the same explored count: seed with a
     radius-2 fault ball (113 states of 5^4) under a 120-state budget so
     the overflow fires mid-BFS, after seeding *)
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  let env = Protocols.Token_ring.env tr in
  let seeds = Engine.ball env ~center:(Protocols.Token_ring.all_zero tr) ~radius:2 in
  let overflow backend jobs =
    let engine = Engine.create ~backend ~max_states:120 ~jobs env in
    try
      ignore
        (Engine.region engine
           (Compile.program (Protocols.Token_ring.combined tr))
           ~from:(Engine.Seeds seeds)
           ~target:(fun s -> Protocols.Token_ring.invariant tr s));
      Alcotest.fail "must overflow a 120-state budget"
    with Engine.Region_overflow n -> n
  in
  let expected = overflow Engine.Lazy 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "overflow count jobs=%d" jobs)
        expected
        (overflow Engine.Parallel jobs))
    [ 1; 2; 4 ]

let test_engine_jobs_validation () =
  let env =
    let env = Guarded.Env.create () in
    ignore (Guarded.Env.fresh env "v" (Guarded.Domain.range 0 3));
    env
  in
  Alcotest.(check bool) "jobs 0 rejected" true
    (try
       ignore (Engine.create ~backend:Engine.Parallel ~jobs:0 env);
       false
     with Invalid_argument _ -> true);
  let engine = Engine.create ~backend:Engine.Parallel ~jobs:2 env in
  Alcotest.(check int) "jobs recorded" 2 (Engine.jobs engine);
  Alcotest.(check string) "backend name" "parallel"
    (Engine.backend_name engine)

(* --- parallel fault spans --- *)

let test_faultspan_parallel_identical () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:4 in
  let env = Protocols.Token_ring.env tr in
  let cp = Compile.program (Protocols.Token_ring.combined tr) in
  let inv s = Protocols.Token_ring.invariant tr s in
  let span_of backend jobs budget =
    let engine = Engine.create ~backend ~jobs env in
    let fault = Sim.Fault.corrupt env ~k:1 in
    let fp =
      Compile.program
        (Guarded.Program.make ~name:"faults" env
           (Sim.Fault.actions fault))
    in
    Explore.Faultspan.compute engine ~program:cp ?budget ~faults:fp
      ~from:(Engine.Pred inv) ()
  in
  List.iter
    (fun budget ->
      let seq = span_of Engine.Lazy 1 budget in
      List.iter
        (fun jobs ->
          let par = span_of Engine.Parallel jobs budget in
          let tag =
            Printf.sprintf "budget=%s jobs=%d"
              (match budget with Some b -> string_of_int b | None -> "inf")
              jobs
          in
          Alcotest.(check int) (tag ^ ": count")
            (Explore.Faultspan.count seq)
            (Explore.Faultspan.count par);
          Alcotest.(check int) (tag ^ ": roots")
            (Explore.Faultspan.root_count seq)
            (Explore.Faultspan.root_count par);
          Alcotest.(check int) (tag ^ ": max depth")
            (Explore.Faultspan.max_depth seq)
            (Explore.Faultspan.max_depth par);
          Alcotest.(check (array int))
            (tag ^ ": histogram")
            (Explore.Faultspan.depth_histogram seq)
            (Explore.Faultspan.depth_histogram par);
          (* member order (hence Certify's scan order) is identical too *)
          let seq_states = Explore.Faultspan.states seq in
          let par_states = Explore.Faultspan.states par in
          Alcotest.(check bool) (tag ^ ": members in order") true
            (List.for_all2 State.equal seq_states par_states);
          List.iter
            (fun s ->
              Alcotest.(check (option int))
                (tag ^ ": depth agrees")
                (Explore.Faultspan.depth seq s)
                (Explore.Faultspan.depth par s))
            seq_states)
        [ 1; 2; 4 ])
    [ Some 1; Some 2; None ]

let test_certify_parallel_identical () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:4 in
  let cert backend jobs =
    let engine =
      Engine.create ~backend ~jobs (Protocols.Token_ring.env tr)
    in
    Nonmask.Certify.tolerance ~engine
      ~program:(Protocols.Token_ring.combined tr)
      ~faults:(Sim.Fault.actions
                 (Sim.Fault.corrupt (Protocols.Token_ring.env tr) ~k:2))
      ~invariant:(fun s -> Protocols.Token_ring.invariant tr s)
      ~budget:2 ~name:"token-ring par test" ()
  in
  let render c = Format.asprintf "%a" Nonmask.Certify.pp_full c in
  let expected = render (cert Engine.Lazy 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "certificate jobs=%d" jobs)
        expected
        (render (cert Engine.Parallel jobs)))
    [ 1; 2; 4 ]

(* The closure scan runs in slices of 2048 states per worker: a span
   computed without [flip] has 4096 states, indexed in reverse discovery
   order (x = 4095 first), and the full program's [flip] leaves it up to
   x = 1000, so the first violation (index 3095) sits past the first
   slice at one worker and inside it at two and four. Every job count
   must report the same one. *)
let test_certify_closure_violation_across_slices () =
  let em =
    Lang.Driver.compile_string ~file:"walk.nm"
      {|model walk
var x : 0..4095
var y : 0..1
action step: x < 4095 -> x := x + 1
action flip: x <= 1000 /\ y = 0 -> y := 1
invariant x = 0 /\ y = 0
|}
  in
  let env = em.Lang.Elab.env and program = em.Lang.Elab.program in
  let walk =
    Guarded.Program.restrict program (fun a -> Guarded.Action.name a = "step")
  in
  let closure backend jobs =
    let engine = Engine.create ~backend ~jobs env in
    let from = Engine.Seeds [ em.Lang.Elab.init ] in
    let span =
      Explore.Faultspan.compute engine ~program:(Compile.program walk)
        ~faults:(Compile.program (Guarded.Program.make ~name:"none" env []))
        ~from ~budget:0 ()
    in
    let cert =
      Nonmask.Certify.tolerance ~engine ~program ~faults:[]
        ~invariant:em.Lang.Elab.invariant ~from ~budget:0 ~span ~name:"walk"
        ()
    in
    match
      List.filter
        (fun (c : Nonmask.Certify.check) ->
          String.starts_with ~prefix:"closure" c.label)
        (Nonmask.Certify.failures cert)
    with
    | [ c ] -> Option.value c.detail ~default:""
    | _ -> Alcotest.fail "expected one failed closure check"
  in
  let expected = closure Engine.Lazy 1 in
  Alcotest.(check bool)
    "first violation at x = 1000" true
    (Astring_contains.contains expected "{x=1000, y=0}");
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "violation jobs=%d" jobs)
        expected
        (closure Engine.Parallel jobs))
    [ 1; 2; 4 ]

(* --- parallel storm trials --- *)

let test_storm_jobs_deterministic () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  let env = Protocols.Token_ring.env tr in
  let cp = Compile.program (Protocols.Token_ring.combined tr) in
  let fault = Sim.Fault.scramble env in
  let run jobs =
    Sim.Storm.trials ~max_steps:2_000 ~jobs ~rng:(Prng.create 11) ~trials:60
      ~daemon:(fun rng -> Sim.Daemon.random rng)
      ~prepare:(fun rng ->
        let s = Protocols.Token_ring.all_zero tr in
        fault.Sim.Fault.inject rng s;
        s)
      ~stop:(fun s -> Protocols.Token_ring.invariant tr s)
      ~fault ~rate:0.08 cp
  in
  let base = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      let tag = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check (array int))
        (tag ^ ": step counts")
        base.Sim.Storm.steps r.Sim.Storm.steps;
      Alcotest.(check (array int))
        (tag ^ ": fault counts")
        base.Sim.Storm.fault_counts r.Sim.Storm.fault_counts;
      Alcotest.(check int) (tag ^ ": failures") base.Sim.Storm.failures
        r.Sim.Storm.failures;
      match (base.Sim.Storm.summary, r.Sim.Storm.summary) with
      | None, None -> ()
      | Some a, Some b ->
          Alcotest.(check (float 0.0))
            (tag ^ ": median")
            a.Sim.Stats.median b.Sim.Stats.median;
          Alcotest.(check (float 0.0)) (tag ^ ": p90") a.Sim.Stats.p90
            b.Sim.Stats.p90;
          Alcotest.(check (float 0.0)) (tag ^ ": max") a.Sim.Stats.max
            b.Sim.Stats.max
      | _ -> Alcotest.fail (tag ^ ": summary presence differs"))
    [ 2; 4 ]

let test_storm_jobs_validation () =
  let tr = Protocols.Token_ring.make ~nodes:3 ~k:4 in
  let env = Protocols.Token_ring.env tr in
  let cp = Compile.program (Protocols.Token_ring.combined tr) in
  let fault = Sim.Fault.scramble env in
  Alcotest.(check bool) "jobs 0 rejected" true
    (try
       ignore
         (Sim.Storm.trials ~jobs:0 ~rng:(Prng.create 1) ~trials:1
            ~daemon:(fun rng -> Sim.Daemon.random rng)
            ~prepare:(fun _ -> Protocols.Token_ring.all_zero tr)
            ~stop:(fun s -> Protocols.Token_ring.invariant tr s)
            ~fault ~rate:0.0 cp);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "ivec basics" `Quick test_ivec;
    Alcotest.test_case "pool: parallel_for covers range" `Quick
      test_pool_parallel_for_covers;
    Alcotest.test_case "pool: map_reduce chunk order" `Quick
      test_pool_map_reduce_ordered;
    Alcotest.test_case "pool: jobs=1 runs inline" `Quick
      test_pool_inline_when_single;
    Alcotest.test_case "pool: exceptions propagate" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool: validation and shutdown" `Quick
      test_pool_validation;
    Alcotest.test_case "chunked: commit in index order" `Quick
      test_chunked_index_order;
    Alcotest.test_case "shardmap basics" `Quick test_shardmap_basics;
    Alcotest.test_case "shardmap concurrent adds" `Quick
      test_shardmap_concurrent_adds;
    Alcotest.test_case "three-way agreement: xyz" `Quick test_three_way_xyz;
    Alcotest.test_case "three-way agreement: token ring" `Quick
      test_three_way_token_ring;
    Alcotest.test_case "parallel verdicts match lazy" `Quick
      test_parallel_verdicts;
    Alcotest.test_case "parallel overflow at same count" `Quick
      test_parallel_overflow_point;
    Alcotest.test_case "engine jobs validation" `Quick
      test_engine_jobs_validation;
    Alcotest.test_case "faultspan: parallel identical" `Quick
      test_faultspan_parallel_identical;
    Alcotest.test_case "certify: closure violation past one slice" `Quick
      test_certify_closure_violation_across_slices;
    Alcotest.test_case "certify: parallel identical" `Quick
      test_certify_parallel_identical;
    Alcotest.test_case "storm: deterministic across jobs" `Quick
      test_storm_jobs_deterministic;
    Alcotest.test_case "storm: jobs validation" `Quick
      test_storm_jobs_validation;
  ]
