(* The serve subsystem: scheduler fairness and bounds, cache LRU
   behavior, wire-protocol parsing, cache-key semantics, and a live
   in-process daemon driven over TCP — concurrent clients, byte-stable
   hot/cold replies, cache hits that never re-explore, hostile inputs
   that degrade in-protocol instead of killing the daemon, and drain. *)

module Json = Obs.Json
module Sched = Serve.Sched
module Cache = Serve.Cache
module Proto = Serve.Proto
module Job = Serve.Job
module Server = Serve.Server
module Client = Serve.Client

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- scheduler ------------------------------------------------------- *)

let test_sched_round_robin () =
  let s = Sched.create ~cap:16 in
  (* client 1 floods; clients 2 and 3 each submit one job *)
  List.iter
    (fun (c, j) -> checkb "submitted" true (Sched.submit s ~client:c j = `Ok))
    [ (1, "1a"); (1, "1b"); (1, "1c"); (2, "2a"); (3, "3a") ];
  let order = List.init 5 (fun _ -> Option.get (Sched.take s)) in
  (* round-robin: the flooder gets exactly one slot per turn *)
  check
    Alcotest.(list string)
    "fair interleaving"
    [ "1a"; "2a"; "3a"; "1b"; "1c" ]
    order;
  checki "drained" 0 (Sched.pending s)

let test_sched_bounds_and_close () =
  let s = Sched.create ~cap:2 in
  checkb "ok 1" true (Sched.submit s ~client:7 "a" = `Ok);
  checkb "ok 2" true (Sched.submit s ~client:7 "b" = `Ok);
  checkb "full" true (Sched.submit s ~client:7 "c" = `Full);
  (* other clients are not affected by client 7's full queue *)
  checkb "other client ok" true (Sched.submit s ~client:8 "d" = `Ok);
  Sched.close s;
  checkb "closed" true (Sched.submit s ~client:9 "e" = `Closed);
  (* close drains: queued jobs still come out, then None *)
  let drained = List.init 3 (fun _ -> Sched.take s) in
  checkb "drained all" true
    (List.for_all Option.is_some drained);
  checkb "then empty" true (Sched.take s = None)

let test_sched_blocking_take () =
  let s = Sched.create ~cap:4 in
  let got = ref None in
  let th =
    Thread.create
      (fun () ->
        got := Sched.take s)
      ()
  in
  Thread.delay 0.05;
  checkb "taker still blocked" true (!got = None);
  checkb "submit wakes" true (Sched.submit s ~client:1 "x" = `Ok);
  Thread.join th;
  check Alcotest.(option string) "woken with job" (Some "x") !got

(* --- cache ----------------------------------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~entries:2 in
  checkb "miss" true (Cache.find c "a" = None);
  Cache.store c "a" (Json.Int 1);
  Cache.store c "b" (Json.Int 2);
  checkb "hit a" true (Cache.find c "a" = Some (Json.Int 1));
  (* a is now most recent; storing c evicts b *)
  Cache.store c "c" (Json.Int 3);
  checkb "b evicted" true (Cache.find c "b" = None);
  checkb "a survives" true (Cache.find c "a" = Some (Json.Int 1));
  checkb "c present" true (Cache.find c "c" = Some (Json.Int 3));
  checki "size" 2 (Cache.size c);
  checki "hits" 3 (Cache.hits c);
  checki "misses" 2 (Cache.misses c)

(* --- protocol -------------------------------------------------------- *)

let test_proto_parse () =
  (match Proto.parse_request {|{"id": 7, "op": "ping"}|} with
  | Ok r ->
      checkb "id echoed" true (r.Proto.id = Json.Int 7);
      checkb "op" true (r.Proto.op = Proto.Ping)
  | Error _ -> Alcotest.fail "ping request rejected");
  let code line =
    match Proto.parse_request line with
    | Ok _ -> "ok"
    | Error (c, _) -> Proto.error_code_name c
  in
  checks "malformed json" "bad-json" (code "{nope");
  checks "non-object" "bad-json" (code "[1,2]");
  checks "unknown field" "bad-request" (code {|{"op":"ping","zap":1}|});
  checks "missing op" "bad-request" (code {|{"id":1}|});
  checks "unknown op" "bad-request" (code {|{"op":"explode"}|});
  checks "non-string model" "bad-request" (code {|{"op":"check","model":3}|});
  checks "non-object options" "bad-request"
    (code {|{"op":"check","options":7}|})

(* --- job: cache-key semantics ---------------------------------------- *)

let model_text =
  {|model demo

var x : 0..3
var y : 0..3

action dx: x > 0 -> x := x - 1
action dy: y > 0 -> y := y - 1

invariant x = 0 /\ y = 0
|}

(* The same model, spelled differently: comments, whitespace — the
   canonical digest must not see the difference. *)
let model_text_noisy =
  {|(* a comment *)
model demo

var x : 0..3

var y : 0..3

action dx: x > 0 -> x := x - 1
action dy: y > 0 -> y := y - 1
invariant x = 0 /\ y = 0
|}

let prepare_exn ?(op = "check") ?(model = Some model_text) options =
  let fields =
    [ ("id", Json.Int 1); ("op", Json.Str op) ]
    @ (match model with Some m -> [ ("model", Json.Str m) ] | None -> [])
    @ match options with [] -> [] | o -> [ ("options", Json.Obj o) ]
  in
  match Proto.parse_request (Json.to_string (Json.Obj fields)) with
  | Error (_, msg) -> Alcotest.fail ("request rejected: " ^ msg)
  | Ok req -> (
      match Job.prepare req with
      | Ok p -> p
      | Error (_, msg) -> Alcotest.fail ("prepare rejected: " ^ msg))

let prepare_err ?(op = "check") ?(model = Some model_text) options =
  let fields =
    [ ("id", Json.Int 1); ("op", Json.Str op) ]
    @ (match model with Some m -> [ ("model", Json.Str m) ] | None -> [])
    @ match options with [] -> [] | o -> [ ("options", Json.Obj o) ]
  in
  match Proto.parse_request (Json.to_string (Json.Obj fields)) with
  | Error (_, msg) -> Alcotest.fail ("request rejected: " ^ msg)
  | Ok req -> (
      match Job.prepare req with
      | Ok _ -> Alcotest.fail "prepare accepted, want rejection"
      | Error (code, msg) -> (Proto.error_code_name code, msg))

let test_key_canonicalization () =
  let a = prepare_exn [] in
  let b = prepare_exn ~model:(Some model_text_noisy) [] in
  checks "formatting-invariant digest" a.Job.model_digest b.Job.model_digest;
  checks "formatting-invariant key" a.Job.key b.Job.key

let test_key_excludes_resource_knobs () =
  let base = prepare_exn [] in
  let with_budget =
    prepare_exn
      [
        ("deadline", Json.Float 5.0);
        ("budget_states", Json.Int 100);
        ("budget_bytes", Json.Int 1_000_000);
      ]
  in
  checks "resource knobs keyless" base.Job.key with_budget.Job.key;
  (* storm keys ignore the check-only knobs and vice versa *)
  let storm_a = prepare_exn ~op:"storm" [] in
  let storm_b = prepare_exn ~op:"storm" [ ("ball", Json.Int 2) ] in
  checks "storm ignores ball" storm_a.Job.key storm_b.Job.key

let test_key_includes_semantics () =
  let base = prepare_exn [] in
  let distinct name options =
    let p = prepare_exn options in
    checkb name true (p.Job.key <> base.Job.key)
  in
  distinct "engine keyed" [ ("engine", Json.Str "eager") ];
  distinct "max_states keyed" [ ("max_states", Json.Int 12345) ];
  distinct "ball keyed" [ ("ball", Json.Int 1) ];
  (* seed shapes storm results but not check results *)
  let seeded = prepare_exn [ ("seed", Json.Int 7) ] in
  checks "check ignores seed" base.Job.key seeded.Job.key;
  let storm_a = prepare_exn ~op:"storm" [] in
  let storm_b = prepare_exn ~op:"storm" [ ("seed", Json.Int 7) ] in
  checkb "storm keyed by seed" true (storm_a.Job.key <> storm_b.Job.key);
  (* different ops never share a key *)
  checkb "ops disjoint" true (base.Job.key <> storm_a.Job.key)

let test_prepare_rejections () =
  let c1, _ = prepare_err [ ("bogus", Json.Int 1) ] in
  checks "unknown option" "bad-request" c1;
  let c2, _ = prepare_err [ ("engine", Json.Str "warp") ] in
  checks "unknown engine" "bad-request" c2;
  let c3, _ = prepare_err ~model:None [] in
  checks "check without model" "bad-request" c3;
  let c4, _ = prepare_err ~op:"fuzz" [] in
  checks "fuzz with model" "bad-request" c4;
  let c5, msg = prepare_err ~model:(Some "model broken\n") [] in
  checks "compile error" "bad-request" c5;
  checkb "compile error located" true (String.length msg > 0);
  (* the demo model declares no faults: certify must name a class *)
  let c6, _ = prepare_err ~op:"certify" [] in
  checks "certify without faults" "bad-request" c6;
  let c7, _ = prepare_err [ ("rate", Json.Float 1.5) ] in
  checks "rate out of range" "bad-request" c7

(* --- live server over TCP -------------------------------------------- *)

let with_server ?(tweak = fun c -> c) f =
  let config =
    tweak
      {
        (Server.default_config ~address:(`Tcp ("127.0.0.1", 0))) with
        Server.jobs = 2;
      }
  in
  let server = Server.create config in
  let runner = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.drain ~hard:true server;
      Thread.join runner)
    (fun () ->
      let port = Option.get (Server.port server) in
      f server (`Tcp ("127.0.0.1", port)))

let connect_exn address =
  match Client.connect address with
  | Ok c -> c
  | Error msg -> Alcotest.fail ("connect: " ^ msg)

let request_exn ?timeout client json =
  match Client.request ?timeout client json with
  | Ok v -> v
  | Error msg -> Alcotest.fail ("request: " ^ msg)

let job_request ?(id = Json.Int 1) ~op ?model ?(options = []) () =
  Json.Obj
    ([ ("id", id); ("op", Json.Str op) ]
    @ (match model with Some m -> [ ("model", Json.Str m) ] | None -> [])
    @ match options with [] -> [] | o -> [ ("options", Json.Obj o) ])

let field name reply =
  match Json.member name reply with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "reply lacks %S" name)

let is_ok reply = field "ok" reply = Json.Bool true
let is_cached reply = field "cached" reply = Json.Bool true

let exit_of reply =
  match Json.to_int (field "exit" (field "result" reply)) with
  | Some n -> n
  | None -> Alcotest.fail "result lacks exit"

let states_explored server =
  Obs.Metrics.value
    (Obs.Metrics.counter (Server.metrics_registry server) "serve.states_explored")

let test_server_ping_and_hostile_lines () =
  with_server @@ fun _server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let pong = request_exn c (job_request ~op:"ping" ()) in
  checkb "pong ok" true (is_ok pong);
  (* malformed JSON: in-protocol error, connection stays usable *)
  (match Client.send_line c "{this is not json" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Client.read_line c with
  | Ok line -> (
      match Json.of_string line with
      | Ok reply ->
          checkb "bad json flagged" true (not (is_ok reply));
          checkb "code" true (field "code" reply = Json.Str "bad-json")
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m);
  let r = request_exn c (job_request ~op:"ping" ()) in
  checkb "daemon alive after garbage" true (is_ok r)

(* A model nested past the parser's limit (10,000 parentheses in one
   guard, a 20 KB request) is compiled on the reader thread: it must come
   back as a located bad-request reply at once, and the daemon must keep
   answering. *)
let test_server_deep_nesting_rejected () =
  with_server @@ fun _server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let depth = 10_000 in
  let model =
    Printf.sprintf
      "model deep\nvar x : 0..3\nvar y : 0..3\naction a:\n\
      \  %sx = y%s -> x := y\n\
       invariant x >= 0\n"
      (String.make depth '(') (String.make depth ')')
  in
  let reply = request_exn ~timeout:30. c (job_request ~op:"check" ~model ()) in
  checkb "rejected" true (not (is_ok reply));
  checkb "code bad-request" true (field "code" reply = Json.Str "bad-request");
  (match field "error" reply with
  | Json.Str msg ->
      checkb "located nesting message" true
        (Astring_contains.contains msg
           ":5:515: expression nested more than 512 levels deep")
  | _ -> Alcotest.fail "error is not a string");
  let pong = request_exn c (job_request ~op:"ping" ()) in
  checkb "daemon alive after deep model" true (is_ok pong)

let test_server_cache_roundtrip () =
  with_server @@ fun server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req = job_request ~op:"check" ~model:model_text () in
  let cold = request_exn c req in
  checkb "cold ok" true (is_ok cold);
  checkb "cold not cached" true (not (is_cached cold));
  checki "cold exit 0" 0 (exit_of cold);
  let after_cold = states_explored server in
  checkb "cold explored states" true (after_cold > 0);
  (* hot: byte-identical result, cached, and ZERO new states explored *)
  let hot = request_exn c req in
  checkb "hot cached" true (is_cached hot);
  checks "byte-identical result"
    (Json.to_string (field "result" cold))
    (Json.to_string (field "result" hot));
  checki "cache hit re-explored nothing" after_cold (states_explored server);
  (* the noisy spelling of the same model is the same cache entry *)
  let noisy = request_exn c (job_request ~op:"check" ~model:model_text_noisy ()) in
  checkb "canonicalized spelling hits" true (is_cached noisy);
  checki "still nothing re-explored" after_cold (states_explored server)

let test_server_concurrent_clients () =
  with_server @@ fun _server address ->
  let n_clients = 4 and per_client = 5 in
  let results = Array.make n_clients None in
  let worker i =
    let c = connect_exn address in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let replies =
      List.init per_client (fun j ->
          let op = if (i + j) mod 2 = 0 then "check" else "storm" in
          let options =
            if op = "storm" then [ ("trials", Json.Int 20) ] else []
          in
          request_exn c
            (job_request
               ~id:(Json.Str (Printf.sprintf "c%d-%d" i j))
               ~op ~model:model_text ~options ()))
    in
    results.(i) <- Some replies
  in
  let threads =
    List.init n_clients (fun i -> Thread.create (fun () -> worker i) ())
  in
  List.iter Thread.join threads;
  let all =
    Array.to_list results
    |> List.concat_map (function
         | Some rs -> rs
         | None -> Alcotest.fail "worker died")
  in
  checki "all replies arrived" (n_clients * per_client) (List.length all);
  List.iter
    (fun r ->
      checkb "reply ok" true (is_ok r);
      checki "verdict exit 0" 0 (exit_of r))
    all;
  (* all clients asked the same two questions: results must agree *)
  let by_result =
    List.sort_uniq compare
      (List.map (fun r -> Json.to_string (field "result" r)) all)
  in
  (* exactly two distinct result bodies: one per op *)
  checki "deterministic across clients" 2 (List.length by_result)

(* A model whose exhaustive check is real work (4^8 = 65536 states) but
   still completes — budgets can trip it, full runs finish. *)
let big_model =
  {|model big

param W = 8

var x[W] : 0..3

action dec[i in 0..W-1]: x[i] > 0 -> x[i] := x[i] - 1

invariant (forall i in 0..W-1: x[i] = 0)
|}

(* A model that pins the executor for seconds (4^10 = 1048576 states,
   just under the max_states cap so it genuinely explores — a larger
   domain product would trip Space.Too_large up-front and return
   instantly). The drain and queue-full tests always pair it with a
   deadline or a drain; it is never left to finish. *)
let huge_model =
  {|model huge

param W = 10

var x[W] : 0..3

action dec[i in 0..W-1]: x[i] > 0 -> x[i] := x[i] - 1

invariant (forall i in 0..W-1: x[i] = 0)
|}

let test_server_budget_and_no_incomplete_caching () =
  with_server @@ fun _server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* a state budget trips the job into in-protocol exit-5 *)
  let tripped =
    request_exn c
      (job_request ~op:"check" ~model:big_model
         ~options:[ ("budget_states", Json.Int 1000) ]
         ())
  in
  checkb "budget reply ok-envelope" true (is_ok tripped);
  checki "budget exit 5" 5 (exit_of tripped);
  checkb "incomplete not cached" true (not (is_cached tripped));
  (* same cache key, full budget: runs fresh (the incomplete result was
     not cached) and completes *)
  let full =
    request_exn c ~timeout:600.
      (job_request ~op:"check" ~model:big_model ())
  in
  checkb "full run fresh" true (not (is_cached full));
  checki "full run completes" 0 (exit_of full);
  (* and only the complete result is cached *)
  let hot =
    request_exn c
      (job_request ~op:"check" ~model:big_model
         ~options:[ ("budget_states", Json.Int 1000) ]
         ())
  in
  checkb "complete result now serves the key" true (is_cached hot);
  checki "cached exit 0" 0 (exit_of hot)

let test_server_oversized_and_queue_full () =
  with_server
    ~tweak:(fun c -> { c with Server.max_request_bytes = 2048; queue_cap = 1 })
  @@ fun _server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* oversized line: rejected in-protocol, stream stays in sync *)
  (match Client.send_line c (String.make 5000 'x') with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Client.read_line c with
  | Ok line -> (
      match Json.of_string line with
      | Ok reply ->
          checkb "too large flagged" true (not (is_ok reply));
          checkb "code too-large" true
            (field "code" reply = Json.Str "too-large")
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m);
  let pong = request_exn c (job_request ~op:"ping" ()) in
  checkb "alive after oversize" true (is_ok pong);
  (* flood past the queue cap without reading replies; each job carries
     a deadline so the pinned executor frees itself in-protocol *)
  let send_job i =
    match
      Client.send_line c
        (Json.to_string
           (job_request ~id:(Json.Int i) ~op:"check" ~model:huge_model
              ~options:[ ("deadline", Json.Float 1.0) ]
              ()))
    with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  send_job 0;
  send_job 1;
  send_job 2;
  let replies =
    List.init 3 (fun _ ->
        match Client.read_line ~timeout:600. c with
        | Ok line -> (
            match Json.of_string line with
            | Ok r -> r
            | Error m -> Alcotest.fail m)
        | Error m -> Alcotest.fail m)
  in
  let full_errors =
    List.filter
      (fun r ->
        (not (is_ok r))
        && Json.member "code" r = Some (Json.Str "queue-full"))
      replies
  in
  let answered =
    List.filter (fun r -> is_ok r && exit_of r = 5) replies
  in
  checkb "at least one queue-full" true (List.length full_errors >= 1);
  checkb "at least one deadline-tripped job served" true
    (List.length answered >= 1);
  checki "every submission answered" 3 (List.length replies)

let test_server_disconnect_mid_job () =
  with_server @@ fun _server address ->
  (* client 1 submits expensive work and vanishes *)
  let c1 = connect_exn address in
  (match
     Client.send_line c1
       (Json.to_string (job_request ~op:"check" ~model:big_model ()))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Thread.delay 0.1;
  Client.close c1;
  (* the daemon survives, and the orphaned job's result lands in the
     cache — poll for the hit *)
  let c2 = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  let pong = request_exn c2 (job_request ~op:"ping" ()) in
  checkb "alive after disconnect" true (is_ok pong);
  let rec poll tries =
    if tries = 0 then Alcotest.fail "orphaned job never reached the cache"
    else
      let r =
        request_exn c2 ~timeout:600.
          (job_request ~op:"check" ~model:big_model ())
      in
      if is_cached r then r
      else begin
        Thread.delay 0.2;
        poll (tries - 1)
      end
  in
  let r = poll 50 in
  checki "orphaned result correct" 0 (exit_of r)

let test_server_hard_drain_cancels () =
  with_server @@ fun server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match
     Client.send_line c
       (Json.to_string (job_request ~op:"check" ~model:huge_model ()))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Thread.delay 0.2;
  Server.drain ~hard:true server;
  match Client.read_line ~timeout:60. c with
  | Ok line -> (
      match Json.of_string line with
      | Ok reply ->
          checkb "drained job replied" true (is_ok reply);
          checki "cancelled to exit 5" 5 (exit_of reply)
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m

let test_server_soft_drain_finishes_queued () =
  with_server @@ fun server address ->
  let c = connect_exn address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let send i =
    match
      Client.send_line c
        (Json.to_string
           (job_request ~id:(Json.Int i) ~op:"check" ~model:model_text ()))
    with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  send 1;
  send 2;
  (* let the reader enqueue both before the drain latch flips *)
  Thread.delay 0.2;
  Server.drain server;
  (* soft drain: both queued jobs still complete with verdicts *)
  let r1 =
    match Client.read_line ~timeout:60. c with
    | Ok l -> Result.get_ok (Json.of_string l)
    | Error m -> Alcotest.fail m
  in
  let r2 =
    match Client.read_line ~timeout:60. c with
    | Ok l -> Result.get_ok (Json.of_string l)
    | Error m -> Alcotest.fail m
  in
  checkb "first finished" true (is_ok r1 && exit_of r1 = 0);
  checkb "second finished" true (is_ok r2 && exit_of r2 = 0);
  (* new jobs are refused while draining *)
  match Client.send_line c (Json.to_string (job_request ~op:"check" ~model:model_text ~id:(Json.Int 3) ())) with
  | Error _ -> ()  (* connection may already be torn down: also a refusal *)
  | Ok () -> (
      match Client.read_line ~timeout:10. c with
      | Error _ -> ()
      | Ok l -> (
          match Json.of_string l with
          | Ok r ->
              if is_ok r then
                (* raced ahead of the drain latch: served from cache is
                   acceptable — the verdict job never re-runs *)
                checkb "post-drain reply cached" true (is_cached r)
              else
                checkb "post-drain refused" true
                  (field "code" r = Json.Str "draining")
          | Error m -> Alcotest.fail m))

(* --- one golden for both front ends ----------------------------------- *)

(* Run a job in-process on examples/models/token_ring.nm with N and K
   set. *)
let run_token_ring_job ~op ~n ~k options =
  let model = Test_lang.read_file (Test_lang.model_path "token_ring.nm") in
  let p =
    prepare_exn ~op ~model:(Some model)
      (("params", Json.Obj [ ("N", Json.Int n); ("K", Json.Int k) ])
      :: options)
  in
  let outcome =
    Par.Pool.with_pool ~jobs:1 @@ fun pool ->
    Job.run ~pool ~obs:Obs.Ctx.disabled ~guard:Rt.Guard.inert p
  in
  checki (op ^ " exit") 0 outcome.Job.exit_code;
  outcome

(* A serve tolerance job on the .nm twin of the built-in token ring
   renders each point exactly as the CLI's --report line for
   `tolerance token-ring --nodes 4 -k 5` (the witness golden). *)
let test_tolerance_points_match_cli_golden () =
  let outcome =
    run_token_ring_job ~op:"tolerance" ~n:4 ~k:5
      [
        ("budget_max", Json.Int 2);
        ("adversary", Json.Bool true);
        ("faults", Json.Str "corrupt:k=1");
      ]
  in
  let points =
    match field "points" outcome.Job.result with
    | Json.List l -> List.map Json.to_string l
    | _ -> Alcotest.fail "points is not a list"
  in
  let golden =
    Test_lang.read_file (Test_lang.golden_path "witness_tolerance.jsonl")
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.(list string) "points = CLI report lines" golden points

(* A storm on a .nm model starts every trial from its own copy of the
   initial state on both front ends, so the CLI (here at --jobs 2)
   prints the serve storm job's summary. *)
let test_storm_summary_matches_cli () =
  let outcome =
    run_token_ring_job ~op:"storm" ~n:3 ~k:4 [ ("trials", Json.Int 30) ]
  in
  let summary =
    match field "summary" outcome.Job.result with
    | Json.Str s -> s
    | _ -> Alcotest.fail "summary is not a string"
  in
  let code, out =
    Test_witness.run
      [ "storm"; Test_lang.model_path "token_ring.nm"; "--param"; "N=3";
        "--param"; "K=4"; "--trials"; "30"; "--jobs"; "2" ]
  in
  checki "CLI exit" 0 code;
  checks "CLI summary"
    (Printf.sprintf "token-ring: storm corrupt-1 rate=0.05, 30 trials: %s\n"
       summary)
    out

(* CLI ≡ serve, as one table: each row runs a job in-process through
   Job.run and the same job as a CLI subcommand. The CLI's exit code
   must be serve's [exit], and its stdout the text serve renders into
   the op's field (failure, certificate, table, summary or report) under
   the CLI's heading; a run that stops prints nothing on stdout. The
   first row of each op pins its cache key: a key that moves orphans
   every cached result. *)
type row = {
  label : string;
  op : string;
  file : string option;
  options : (string * Json.t) list;  (* serve's options *)
  flags : string list;  (* the CLI's spelling of the same options *)
  status : string;
  exit : int;
  stdout : Json.t -> string;  (* the CLI's stdout, from serve's result *)
  key : string option;
}

let str name result =
  match field name result with
  | Json.Str s -> s
  | _ -> Alcotest.failf "result field %S is not a string" name

let cli_serve_rows =
  let tr = Some (Test_lang.model_path "token_ring.nm")
  and chase = Some (Test_lang.golden_path "chase.nm")
  and hostile = Some (Test_lang.golden_path "ring_hostile.nm") in
  let small = ("params", Json.Obj [ ("N", Json.Int 3); ("K", Json.Int 4) ])
  and small_flags = [ "--param"; "N=3"; "--param"; "K=4" ] in
  let lazy_ = [ "--engine"; "lazy" ] and corrupt = [ "--faults"; "corrupt:k=1" ] in
  let faults = ("faults", Json.Str "corrupt:k=1") in
  let text name r = str name r ^ "\n" in
  let under heading name r = heading ^ text name r in
  let row ?key ?(file = tr) label op options flags status exit stdout =
    { label; op; file; options; flags; status; exit; stdout; key }
  in
  [
    row "check converges" "check" [ small ] (small_flags @ lazy_) "converges"
      0
      ~key:"b640f8ed75a0aa4af0d9a208d7a116cbc2c81559095046bfcb22a2be51a586c9"
      (fun r ->
        let int name = Option.get (Json.to_int (field name r)) in
        Printf.sprintf
          "token-ring (%s engine): converges from every state, even without \
           fairness\n\
          \  explored: %d  outside invariant: %d  worst-case steps: %d\n"
          (str "engine" r) (int "explored") (int "region_states")
          (int "worst_case_steps"));
    row "check fails" "check" ~file:chase [] lazy_ "fails" 2
      (under "chase: FAILS\n" "failure");
    row "certify holds" "certify" [ small; faults ] (small_flags @ lazy_ @ corrupt)
      "certified" 0
      ~key:"0fbc7ef95eaf9bafb6489f6c423765ca2fbdfccc8b422437fba69bf969a9a520"
      (text "certificate");
    row "certify fails" "certify" ~file:chase [ faults ] (lazy_ @ corrupt)
      "failed" 2 (text "certificate");
    row "certify under a hostile environment" "certify" ~file:hostile
      [ faults ] (lazy_ @ corrupt) "failed" 2 (text "certificate");
    row "tolerance" "tolerance"
      [ small; ("budget_max", Json.Int 1) ]
      (small_flags @ lazy_ @ [ "--budget-max"; "1" ])
      "done" 0
      ~key:"c75b28dfa3c2c44d41d67a85dac85227ebd7280ac5f126b57e55f30898e6089c"
      (under "token-ring under corrupt-1 (lazy engine):\n" "table");
    row "tolerance on a livelock" "tolerance" ~file:chase
      [ ("budget_max", Json.Int 1) ]
      (lazy_ @ [ "--budget-max"; "1" ])
      "done" 0
      (under "chase under corrupt-1 (lazy engine):\n" "table");
    row "storm" "storm"
      [ small; ("trials", Json.Int 30) ]
      (small_flags @ [ "--trials"; "30" ])
      "done" 0
      ~key:"6bd1ba2da79b15cdc9c7309cbe04f9d95f52122a0963a05a4b65d88c13c74a7d"
      (under "token-ring: storm corrupt-1 rate=0.05, 30 trials: " "summary");
    row "storm on a livelock" "storm" ~file:chase
      [ ("trials", Json.Int 30); ("max_steps", Json.Int 2000) ]
      [ "--trials"; "30"; "--max-steps"; "2000" ]
      "done" 0
      (under "chase: storm corrupt-1 rate=0.05, 30 trials: " "summary");
    row "fuzz" "fuzz" ~file:None
      [ ("seed", Json.Int 42); ("count", Json.Int 3) ]
      [ "--seed"; "42"; "--count"; "3" ]
      "done" 0
      ~key:"2ac0eda18f194ebe8e8d59948e9596e909ab83cee281297a030359105b03a58c"
      (text "report");
    row "too large" "check"
      [ small; ("engine", Json.Str "eager"); ("max_states", Json.Int 10) ]
      (small_flags @ [ "--engine"; "eager"; "--max-states"; "10" ])
      "too-large" 3 (fun _ -> "");
    (* 1000^300 states: over the dense code, and past the float range *)
    row "dense overflow" "check"
      [ ("params", Json.Obj [ ("N", Json.Int 300); ("K", Json.Int 1000) ]) ]
      ([ "--param"; "N=300"; "--param"; "K=1000" ] @ lazy_)
      "too-large" 3 (fun _ -> "");
    row "dense overflow (eager)" "check"
      [
        ("params", Json.Obj [ ("N", Json.Int 300); ("K", Json.Int 1000) ]);
        ("engine", Json.Str "eager");
      ]
      [ "--param"; "N=300"; "--param"; "K=1000"; "--engine"; "eager" ]
      "too-large" 3 (fun _ -> "");
    (* 10^10 states: within any budget given, past the eager int32 ids *)
    row "eager int32 limit" "check"
      [
        ("params", Json.Obj [ ("N", Json.Int 10); ("K", Json.Int 10) ]);
        ("engine", Json.Str "eager");
        ("max_states", Json.Int 100_000_000_000);
      ]
      [
        "--param"; "N=10"; "--param"; "K=10"; "--engine"; "eager";
        "--max-states"; "100000000000";
      ]
      "too-large" 3 (fun _ -> "");
    row "region overflow" "check"
      [ small; ("max_states", Json.Int 10) ]
      (small_flags @ lazy_ @ [ "--max-states"; "10" ])
      "region-overflow" 4 (fun _ -> "");
    row "budget incomplete" "check"
      [ small; ("budget_states", Json.Int 10) ]
      (small_flags @ lazy_ @ [ "--budget-states"; "10" ])
      "incomplete" 5 (fun _ -> "");
  ]

let test_cli_equals_serve () =
  List.iter
    (fun r ->
      let p =
        prepare_exn ~op:r.op ~model:(Option.map Test_lang.read_file r.file)
          r.options
      in
      Option.iter (fun k -> checks (r.label ^ ": cache key") k p.Job.key) r.key;
      let guard =
        Rt.Guard.create
          ~budget:(Rt.Budget.make ?max_states:p.Job.opts.Job.budget_states ())
          ~cancel:(Rt.Cancel.create ()) ()
      in
      let outcome =
        Par.Pool.with_pool ~jobs:1 @@ fun pool ->
        Job.run ~pool ~obs:Obs.Ctx.disabled ~guard p
      in
      let result = outcome.Job.result in
      checks (r.label ^ ": serve status") r.status (str "status" result);
      checki (r.label ^ ": serve exit") r.exit outcome.Job.exit_code;
      check
        Alcotest.(option int)
        (r.label ^ ": result exit") (Some r.exit)
        (Json.to_int (field "exit" result));
      let code, out =
        Test_witness.run ((r.op :: Option.to_list r.file) @ r.flags)
      in
      checki (r.label ^ ": CLI exit") r.exit code;
      checks (r.label ^ ": CLI stdout") (r.stdout result) out)
    cli_serve_rows

let suite =
  [
    Alcotest.test_case "sched: round-robin fairness" `Quick
      test_sched_round_robin;
    Alcotest.test_case "sched: bounds and close" `Quick
      test_sched_bounds_and_close;
    Alcotest.test_case "sched: blocking take" `Quick test_sched_blocking_take;
    Alcotest.test_case "cache: LRU eviction and counters" `Quick
      test_cache_lru;
    Alcotest.test_case "proto: parse and reject" `Quick test_proto_parse;
    Alcotest.test_case "key: canonicalization" `Quick
      test_key_canonicalization;
    Alcotest.test_case "key: resource knobs excluded" `Quick
      test_key_excludes_resource_knobs;
    Alcotest.test_case "key: semantic options included" `Quick
      test_key_includes_semantics;
    Alcotest.test_case "job: prepare rejections" `Quick
      test_prepare_rejections;
    Alcotest.test_case "server: ping and hostile lines" `Quick
      test_server_ping_and_hostile_lines;
    Alcotest.test_case "server: cache hit is byte-identical, no re-explore"
      `Quick test_server_cache_roundtrip;
    Alcotest.test_case "server: concurrent clients agree" `Slow
      test_server_concurrent_clients;
    Alcotest.test_case "server: budgets trip in-protocol, exit-5 never cached"
      `Slow test_server_budget_and_no_incomplete_caching;
    Alcotest.test_case "server: oversized and queue-full degrade in-protocol"
      `Slow test_server_oversized_and_queue_full;
    Alcotest.test_case "server: mid-job disconnect leaves daemon healthy"
      `Slow test_server_disconnect_mid_job;
    Alcotest.test_case "server: hard drain cancels cooperatively" `Slow
      test_server_hard_drain_cancels;
    Alcotest.test_case "server: soft drain finishes queued jobs" `Quick
      test_server_soft_drain_finishes_queued;
    Alcotest.test_case "server: over-nested model rejected in-protocol" `Quick
      test_server_deep_nesting_rejected;
    Alcotest.test_case "job: tolerance points match the CLI report golden"
      `Quick test_tolerance_points_match_cli_golden;
    Alcotest.test_case "job: storm summary matches the CLI" `Quick
      test_storm_summary_matches_cli;
    Alcotest.test_case "job: the CLI and serve agree on every op" `Quick
      test_cli_equals_serve;
  ]
