(* Tests for the model checker: state spaces, transition systems,
   closure and convergence checking. *)

module Domain = Guarded.Domain
module Env = Guarded.Env
module State = Guarded.State
module Expr = Guarded.Expr
module Action = Guarded.Action
module Program = Guarded.Program
module Compile = Guarded.Compile
module Space = Explore.Space
module Tsys = Explore.Tsys
module Engine = Explore.Engine
module Closure = Explore.Closure
module Convergence = Explore.Convergence

(* --- Space --- *)

let mk_two_vars () =
  let env = Env.create () in
  let a = Env.fresh env "a" (Domain.range 1 3) in
  let b = Env.fresh env "b" Domain.bool in
  (env, a, b)

let test_space_size_and_roundtrip () =
  let env, a, b = mk_two_vars () in
  let space = Space.create env in
  Alcotest.(check int) "3 * 2" 6 (Space.size space);
  for id = 0 to 5 do
    let s = Space.decode space id in
    Alcotest.(check int) "roundtrip" id (Space.encode space s);
    Alcotest.(check bool) "in domain" true (State.in_domain env s)
  done;
  (* distinct ids decode to distinct states *)
  let s0 = Space.decode space 0 and s5 = Space.decode space 5 in
  Alcotest.(check bool) "distinct" false (State.equal s0 s5);
  ignore a;
  ignore b

let test_space_encode_rejects_corrupt () =
  let env, a, _ = mk_two_vars () in
  let space = Space.create env in
  let s = State.make env in
  State.set_corrupt s a 9;
  Alcotest.(check bool) "rejects" true
    (try
       ignore (Space.encode space s);
       false
     with Invalid_argument _ -> true)

let test_space_too_large () =
  let env = Env.create () in
  ignore (Env.fresh_family env "x" 10 (Domain.range 0 99));
  Alcotest.(check bool) "raises Too_large" true
    (try
       ignore (Space.create env);
       false
     with Space.Too_large _ -> true)

let test_space_iter_and_count () =
  let env, a, b = mk_two_vars () in
  let space = Space.create env in
  let n = ref 0 in
  Space.iter space (fun _ _ -> incr n);
  Alcotest.(check int) "visits all" 6 !n;
  let even = Space.count_satisfying space (fun s -> State.get s a = 2) in
  Alcotest.(check int) "a=2 count" 2 even;
  let ones = Space.count_satisfying space (fun s -> State.get s b = 1) in
  Alcotest.(check int) "b=1 count" 3 ones

(* --- A tiny up/down counter fixture ---

   x in 0..3; "up" increments below 3, "reset" jumps to 0 from 3.
   Every state reaches x = 0 eventually, but the loop never stops. *)
let counter () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let open Expr in
  let up = Action.make ~name:"up" ~guard:(var x < int 3) [ (x, var x + int 1) ] in
  let reset = Action.make ~name:"reset" ~guard:(var x = int 3) [ (x, int 0) ] in
  let p = Program.make ~name:"counter" env [ up; reset ] in
  (env, x, p)

let test_tsys_build () =
  let env, _, p = counter () in
  let space = Space.create env in
  let tsys = Tsys.build (Compile.program p) space in
  Alcotest.(check int) "states" 4 (Tsys.state_count tsys);
  Alcotest.(check int) "one transition per state" 4 (Tsys.transition_count tsys);
  (* successors of x=0 is x=1 via action 0 *)
  Alcotest.(check (list (pair int int))) "succ of 0" [ (0, 1) ] (Tsys.succ tsys 0);
  Alcotest.(check (list (pair int int))) "succ of 3 wraps" [ (1, 0) ]
    (Tsys.succ tsys 3);
  Alcotest.(check bool) "no terminal" false (Tsys.is_terminal tsys 2)

(* The walk seeded at id 2 discovers 2, 3, 0, 1 in FIFO order. *)
let test_tsys_reachable () =
  let env, _, p = counter () in
  let space = Space.create env in
  let tsys = Tsys.build (Compile.program p) space in
  let members = ref [] in
  let _, node_key, explored, _ =
    Tsys.region tsys
      ~roots:(fun ~seen:_ add -> add 2 true)
      ~member:(fun id ->
        members := id :: !members;
        true)
  in
  Alcotest.(check int) "all reachable from 2" 4 explored;
  Alcotest.(check (list int)) "member test once per discovered state"
    [ 3; 0; 1 ] (List.rev !members);
  Alcotest.(check (array int)) "nodes in discovery order" [| 2; 3; 0; 1 |]
    node_key

(* --- the lean relation: int32 destinations, byte or word labels --- *)

(* token_ring.nm with the given parameters, and its program ∪ corrupt:k=1 *)
let ring_with_faults ~n ~k =
  let em = Test_lang.compile ~params:[ ("N", n); ("K", k) ] "token_ring.nm" in
  let env = em.Lang.Elab.env in
  let faults = Sim.Fault.actions (Sim.Fault.corrupt env ~k:1) in
  (env, Compile.program (Program.add_actions em.Lang.Elab.program faults))

(* 2 ring actions and 260 corruptions: labels no longer fit a byte *)
let test_tsys_wide_labels () =
  let env, cp = ring_with_faults ~n:2 ~k:130 in
  Alcotest.(check int) "actions" 262 (Array.length cp.Compile.actions);
  let space = Space.create env in
  let ts = Tsys.build cp space in
  let pre = State.make env and post = State.make env in
  let edges = ref 0 in
  for id = 0 to Space.size space - 1 do
    Space.decode_into space id pre;
    let reference =
      List.filter_map
        (fun (ca : Compile.action) ->
          if ca.enabled pre then begin
            ca.apply_into pre post;
            Some (ca.index, Space.encode space post)
          end
          else None)
        (Array.to_list cp.Compile.actions)
    in
    edges := !edges + List.length reference;
    if Tsys.succ ts id <> reference then
      Alcotest.failf "state %d: successors differ from apply_into" id
  done;
  Alcotest.(check int) "transitions" !edges (Tsys.transition_count ts);
  Alcotest.(check int) "12 B per transition when wide"
    ((8 * (Space.size space + 1)) + (12 * !edges))
    (Tsys.bytes ts)

let test_tsys_transition_count () =
  let env, cp = ring_with_faults ~n:5 ~k:5 in
  let ts = Tsys.build cp (Space.create env) in
  Alcotest.(check int) "transitions" 73_000 (Tsys.transition_count ts);
  Alcotest.(check int) "5 B per transition"
    ((8 * (3125 + 1)) + (5 * 73_000))
    (Tsys.bytes ts)

(* One variable over [states] values. *)
let space_of states =
  let env = Env.create () in
  ignore (Env.fresh env "x" (Domain.range 0 (states - 1)));
  env

(* Past 2^31 - 1 states the eager backend refuses on the count alone,
   whatever the budget, before a byte of the relation is allocated; at
   the limit it is only the budget that decides. *)
let test_tsys_int32_limit () =
  let small f =
    let before = Gc.allocated_bytes () in
    let r = f () in
    if Gc.allocated_bytes () -. before > 65536. then
      Alcotest.fail "allocated the relation";
    r
  in
  let refused f =
    match small f with
    | _ -> Alcotest.fail "2^31 states accepted"
    | exception Explore.Codec.Overflow { layout; bits; _ } ->
        Alcotest.(check string) "layout" "eager int32" layout;
        Alcotest.(check int) "bits" 31 bits
  in
  let over = space_of (Tsys.max_states + 1) in
  refused (fun () ->
      Engine.create ~backend:Engine.Eager ~max_states:max_int over);
  let none = Program.make ~name:"none" over [] in
  refused (fun () ->
      Tsys.build (Compile.program none) (Space.create_unbounded over));
  let at = space_of Tsys.max_states in
  let e =
    small (fun () -> Engine.create ~backend:Engine.Eager ~max_states:max_int at)
  in
  Alcotest.(check int) "2^31 - 1 states accepted" Tsys.max_states
    (Space.size (Engine.space e));
  match small (fun () -> Engine.create ~backend:Engine.Eager at) with
  | _ -> Alcotest.fail "over the default budget accepted"
  | exception Space.Too_large _ -> ()

(* The eager engine keeps the two most recently used relations, matched
   by action sources: a recompiled program reuses its relation, another
   program with as many actions does not, and a third program evicts the
   least recently used. *)
let test_eager_relation_cache () =
  let env, x, counter = counter () in
  let hold =
    Expr.(Action.make ~name:"hold" ~guard:(var x = int 3) [ (x, int 3) ])
  in
  let up = Program.action_at counter 0 in
  let holding = Program.make ~name:"holding" env [ up; hold ] in
  let climbing = Program.make ~name:"climbing" env [ up ] in
  let obs = Obs.Ctx.create () in
  let engine = Engine.create ~obs env in
  let builds () =
    Obs.Metrics.value
      (Obs.Metrics.counter (Obs.Ctx.metrics obs) "engine.csr_builds")
  in
  let edges p =
    let r =
      Engine.region engine (Compile.program p) ~from:Engine.All
        ~target:(fun s -> State.get s x = 0)
    in
    Dgraph.Digraph.edge_count r.Engine.graph
  in
  List.iter
    (fun (label, p, want_edges, want_builds) ->
      Alcotest.(check int) (label ^ ": edges") want_edges (edges p);
      Alcotest.(check int) (label ^ ": builds") want_builds (builds ()))
    [
      ("counter", counter, 2, 1);
      ("holding (same length, other sources)", holding, 3, 2);
      ("counter recompiled", counter, 2, 2);
      ("climbing evicts holding", climbing, 2, 3);
      ("counter still kept", counter, 2, 3);
      ("holding rebuilt", holding, 3, 4);
    ]

let test_tsys_region_graph () =
  let env, _, p = counter () in
  let space = Space.create env in
  let tsys = Tsys.build (Compile.program p) space in
  (* region = states with x >= 2 -> nodes 2,3; edges 2->3 only (3->0 exits);
     seeded at 3, so 3 is node 0 and 2 (reached via 0 and 1) node 1 *)
  let g, node_to_state, explored, state_to_node =
    Tsys.region tsys
      ~roots:(fun ~seen:_ add -> add 3 true)
      ~member:(fun id -> id >= 2)
  in
  Alcotest.(check int) "two nodes" 2 (Dgraph.Digraph.node_count g);
  Alcotest.(check int) "every state seen" 4 explored;
  Alcotest.(check int) "one internal edge" 1 (Dgraph.Digraph.edge_count g);
  Alcotest.(check (list (triple int int int))) "edge 2 -> 3 by up"
    [ (1, 0, 0) ]
    (List.map
       (fun (e : _ Dgraph.Digraph.edge) -> (e.src, e.dst, e.label))
       (Dgraph.Digraph.edges g));
  Alcotest.(check int) "mapping" 3 node_to_state.(0);
  Alcotest.(check int) "inverse" 1 (state_to_node 2);
  Alcotest.(check int) "nonmember" (-1) (state_to_node 0)

(* --- Closure --- *)

let test_closure_holds () =
  let env, x, p = counter () in
  let engine = Engine.create env in
  let cp = Compile.program p in
  (* x <= 3 is closed (trivially); x <= 2 is not (up breaks it at 2). *)
  (match Closure.program_closed engine cp ~pred:(fun s -> State.get s x <= 3) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "x<=3 should be closed");
  match Closure.program_closed engine cp ~pred:(fun s -> State.get s x <= 2) with
  | Ok () -> Alcotest.fail "x<=2 should not be closed"
  | Error v ->
      Alcotest.(check string) "violator" "up" (Action.name v.Closure.action);
      Alcotest.(check int) "pre x" 2 (State.get v.Closure.pre x);
      Alcotest.(check int) "post x" 3 (State.get v.Closure.post x)

let test_closure_given_hypothesis () =
  let env, x, p = counter () in
  let engine = Engine.create env in
  let cp = Compile.program p in
  (* under hypothesis x <> 2, the predicate x <= 2 is preserved: the
     hypothesis narrows each step's [pre] *)
  let pred s = State.get s x <= 2 in
  let under s = State.get s x <> 2 && pred s in
  let steps =
    Array.map
      (fun (ca : Compile.action) ->
        Closure.Step { pre = under; action = ca; post = (fun _ s' -> pred s') })
      cp.Compile.actions
  in
  match Closure.first_violation (Closure.scan engine steps) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "hypothesis should exclude the violation"

(* --- The obligation scan against one sweep per obligation ---

   Each case draws a generated model and k random obligations over it:
   implications between random predicates, and steps of the program's
   actions from a random [pre] to a random one- or two-state [post]. One
   [Closure.scan] must return, for every obligation, the witness a plain
   id-order loop over that obligation alone finds first. *)

let reference_scan ~n ~state ob =
  let rec go i =
    if i = n then None
    else
      let s = state i in
      match ob with
      | Closure.Implies { hyp; conc } ->
          if hyp s && not (conc s) then Some (Closure.Counterexample s)
          else go (i + 1)
      | Closure.Step { pre; action; post = ok } ->
          if pre s && action.enabled s then begin
            let post = action.apply s in
            if ok s post then go (i + 1)
            else
              Some (Closure.Violation { pre = s; action = action.source; post })
          end
          else go (i + 1)
  in
  go 0

let same_witness a b =
  match (a, b) with
  | None, None -> true
  | Some (Closure.Counterexample s), Some (Closure.Counterexample t) ->
      State.equal s t
  | Some (Closure.Violation v), Some (Closure.Violation w) ->
      State.equal v.pre w.pre
      && State.equal v.post w.post
      && Action.name v.action = Action.name w.action
  | _ -> false

(* With [fail_fast], every conclusion is false: each obligation closes
   at the first state its hypothesis admits, so the scan usually ends
   with every obligation closed, long before the last id. *)
let random_obligations rng (m : Gen.Spec.model) ~fail_fast k =
  let reads = Env.vars m.Gen.Spec.env in
  let pred () = Compile.pred (Gen.Generate.boolean rng ~depth:2 ~reads) in
  let actions = (Compile.program m.Gen.Spec.program).Compile.actions in
  Array.init k (fun _ ->
      if Array.length actions = 0 || Prng.bool rng then
        let conc = if fail_fast then fun _ -> false else pred () in
        Closure.Implies { hyp = pred (); conc }
      else
        let action = actions.(Prng.int rng (Array.length actions)) in
        let q = pred () in
        let post =
          if fail_fast then fun _ _ -> false
          else if Prng.bool rng then fun _ s' -> q s'
          else fun s s' -> q s = q s'
        in
        Closure.Step { pre = pred (); action; post })

(* On the whole space (id order) and on a fault span of the model's
   legitimate state (span order), at one worker and on the parallel
   engine at 2 and 4. *)
let prop_scan_matches_reference =
  QCheck.Test.make ~name:"scan = one reference sweep per obligation"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let m = Gen.Generate.model rng in
      let env = m.Gen.Spec.env in
      let space = Space.create env in
      let fail_fast = Prng.int rng 4 = 0 in
      let obs = random_obligations rng m ~fail_fast (1 + Prng.int rng 8) in
      let span =
        Explore.Faultspan.compute (Engine.create env)
          ~program:(Compile.program m.Gen.Spec.program)
          ~faults:
            (Compile.program
               (Program.make ~name:"faults" env m.Gen.Spec.fault_actions))
          ~from:(Engine.Seeds [ m.Gen.Spec.legit ])
          ~budget:1 ()
      in
      let whole = (Engine.Whole_space, Space.size space, Space.decode space) in
      let on_span =
        ( Engine.Keys
            (Explore.Faultspan.count span, Explore.Faultspan.nth_key span),
          Explore.Faultspan.count span,
          fun i -> Space.decode space (Explore.Faultspan.nth_key span i) )
      in
      List.for_all
        (fun engine ->
          List.for_all
            (fun (over, n, state) ->
              let found = Closure.scan ~over engine obs in
              Array.for_all2
                (fun ob w -> same_witness w (reference_scan ~n ~state ob))
                obs found)
            [ whole; on_span ])
        [
          Engine.create env;
          Engine.create ~backend:Engine.Parallel ~jobs:2 env;
          Engine.create ~backend:Engine.Parallel ~jobs:4 env;
        ])

(* Every obligation fails at state 0, so the scan must stop there:
   each hypothesis is evaluated once, and the witnesses are state 0. *)
let test_scan_all_close_early () =
  let env, _, _ = counter () in
  let engine = Engine.create env in
  let calls = ref 0 in
  let obs =
    Array.init 5 (fun _ ->
        Closure.Implies
          {
            hyp =
              (fun _ ->
                incr calls;
                true);
            conc = (fun _ -> false);
          })
  in
  let found = Closure.scan engine obs in
  Alcotest.(check int) "one evaluation each" 5 !calls;
  let zero = Space.decode (Engine.space engine) 0 in
  Array.iteri
    (fun i w ->
      Alcotest.(check bool)
        (Printf.sprintf "witness %d is state 0" i)
        true
        (same_witness w (Some (Closure.Counterexample zero))))
    found

(* --- Convergence --- *)

let test_convergence_converges () =
  (* "down" only: from anywhere, reach x = 0 and stop. *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let down =
    Expr.(Action.make ~name:"down" ~guard:(var x > int 0) [ (x, var x - int 1) ])
  in
  let p = Program.make ~name:"down" env [ down ] in
  let engine = Engine.create env in
  match
    Convergence.check_unfair engine (Compile.program p) ~from:Engine.All
      ~target:(fun s -> State.get s x = 0)
  with
  | Ok { region_states; worst_case_steps; _ } ->
      Alcotest.(check int) "region" 3 region_states;
      Alcotest.(check (option int)) "worst steps" (Some 3) worst_case_steps
  | Error _ -> Alcotest.fail "should converge"

let test_convergence_deadlock () =
  (* "down" but guard stops at 1: states ending at x=1 never reach 0. *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 3) in
  let down =
    Expr.(Action.make ~name:"down" ~guard:(var x > int 1) [ (x, var x - int 1) ])
  in
  let p = Program.make ~name:"down" env [ down ] in
  let engine = Engine.create env in
  match
    Convergence.check_unfair engine (Compile.program p) ~from:Engine.All
      ~target:(fun s -> State.get s x = 0)
  with
  | Error (Convergence.Deadlock s) ->
      Alcotest.(check int) "stuck at 1" 1 (State.get s x)
  | _ -> Alcotest.fail "expected deadlock"

let test_convergence_livelock () =
  let env, x, p = counter () in
  let engine = Engine.create env in
  (* the counter loops forever; target x = 17 impossible, x=... any
     unreachable predicate gives a livelock through the whole loop *)
  match
    Convergence.check_unfair engine (Compile.program p) ~from:Engine.All
      ~target:(fun s -> State.get s x = 2 && false)
  with
  | Error (Convergence.Livelock states) ->
      Alcotest.(check bool) "cycle non-empty" true (List.length states >= 2)
  | _ -> Alcotest.fail "expected livelock"

let test_convergence_from_restriction () =
  (* two disconnected halves: y=0 stays, y=1 diverges; restricting `from`
     to y=0 should ignore the bad half *)
  let env = Env.create () in
  let y = Env.fresh env "y" Domain.bool in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let down =
    Expr.(
      Action.make ~name:"down"
        ~guard:(var y = int 0 && var x > int 0)
        [ (x, var x - int 1) ])
  in
  let spin =
    Expr.(
      Action.make ~name:"spin"
        ~guard:(var y = int 1 && var x > int 0)
        [ (x, ite (var x = int 1) (int 2) (int 1)) ])
  in
  let p = Program.make ~name:"split" env [ down; spin ] in
  let engine = Engine.create env in
  let cp = Compile.program p in
  let target s = State.get s x = 0 in
  (match
     Convergence.check_unfair engine cp
       ~from:(Engine.Pred (fun s -> State.get s y = 0))
       ~target
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "good half should converge");
  match Convergence.check_unfair engine cp ~from:Engine.All ~target with
  | Error (Convergence.Livelock _) -> ()
  | _ -> Alcotest.fail "bad half should livelock"

let test_convergence_fair_beats_unfair () =
  (* x spins between 1 and 2 via "spin", but "exit" (always enabled while
     x > 0) sends it to 0: unfair check sees a livelock, weak fairness
     converges because exit is continuously enabled and leaves the SCC. *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let spin =
    Expr.(
      Action.make ~name:"spin"
        ~guard:(var x > int 0)
        [ (x, ite (var x = int 1) (int 2) (int 1)) ])
  in
  let exit_a =
    Expr.(Action.make ~name:"exit" ~guard:(var x > int 0) [ (x, int 0) ])
  in
  let p = Program.make ~name:"spin-exit" env [ spin; exit_a ] in
  let engine = Engine.create env in
  let cp = Compile.program p in
  let target s = State.get s x = 0 in
  (match Convergence.check_unfair engine cp ~from:Engine.All ~target with
  | Error (Convergence.Livelock _) -> ()
  | _ -> Alcotest.fail "unfair should livelock");
  match Convergence.check_fair engine cp ~from:Engine.All ~target with
  | Convergence.Converges { worst_case_steps = None; _ } -> ()
  | Convergence.Converges _ -> Alcotest.fail "fair-only should have no bound"
  | _ -> Alcotest.fail "fair check should converge"

let test_convergence_fair_unknown () =
  (* Two actions alternate and neither is continuously enabled across the
     whole SCC with a uniform exit: the sound criterion gives Unknown. *)
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 2) in
  let a = Expr.(Action.make ~name:"a" ~guard:(var x = int 1) [ (x, int 2) ]) in
  let b = Expr.(Action.make ~name:"b" ~guard:(var x = int 2) [ (x, int 1) ]) in
  let p = Program.make ~name:"ab" env [ a; b ] in
  let engine = Engine.create env in
  match
    Convergence.check_fair engine (Compile.program p) ~from:Engine.All
      ~target:(fun s -> State.get s x = 0)
  with
  | Convergence.Unknown _ -> ()
  | Convergence.Converges _ -> Alcotest.fail "cannot converge"
  | Convergence.Fails (Convergence.Deadlock _) ->
      Alcotest.fail "no deadlock here (x=0 is target)"
  | Convergence.Fails _ -> Alcotest.fail "livelock is genuinely fair here"

let test_convergence_fair_deadlock_definitive () =
  let env = Env.create () in
  let x = Env.fresh env "x" (Domain.range 0 1) in
  let p = Program.make ~name:"empty" env [] in
  let engine = Engine.create env in
  match
    Convergence.check_fair engine (Compile.program p) ~from:Engine.All
      ~target:(fun s -> State.get s x = 0)
  with
  | Convergence.Fails (Convergence.Deadlock s) ->
      Alcotest.(check int) "stuck at 1" 1 (State.get s x)
  | _ -> Alcotest.fail "expected deadlock"

let suite =
  [
    Alcotest.test_case "space size and roundtrip" `Quick
      test_space_size_and_roundtrip;
    Alcotest.test_case "space rejects corrupt" `Quick
      test_space_encode_rejects_corrupt;
    Alcotest.test_case "space too large" `Quick test_space_too_large;
    Alcotest.test_case "space iter/count" `Quick test_space_iter_and_count;
    Alcotest.test_case "tsys build" `Quick test_tsys_build;
    Alcotest.test_case "tsys reachable" `Quick test_tsys_reachable;
    Alcotest.test_case "tsys region graph" `Quick test_tsys_region_graph;
    Alcotest.test_case "tsys wide labels match apply_into" `Quick
      test_tsys_wide_labels;
    Alcotest.test_case "tsys transition count" `Quick test_tsys_transition_count;
    Alcotest.test_case "tsys int32 limit refused up front" `Quick
      test_tsys_int32_limit;
    Alcotest.test_case "eager relation cache matches action sources" `Quick
      test_eager_relation_cache;
    Alcotest.test_case "closure check" `Quick test_closure_holds;
    Alcotest.test_case "closure with hypothesis" `Quick
      test_closure_given_hypothesis;
    Alcotest.test_case "scan stops when every obligation closed" `Quick
      test_scan_all_close_early;
    QCheck_alcotest.to_alcotest prop_scan_matches_reference;
    Alcotest.test_case "convergence success" `Quick test_convergence_converges;
    Alcotest.test_case "convergence deadlock" `Quick test_convergence_deadlock;
    Alcotest.test_case "convergence livelock" `Quick test_convergence_livelock;
    Alcotest.test_case "convergence from restriction" `Quick
      test_convergence_from_restriction;
    Alcotest.test_case "fair convergence beats unfair" `Quick
      test_convergence_fair_beats_unfair;
    Alcotest.test_case "fair criterion unknown" `Quick
      test_convergence_fair_unknown;
    Alcotest.test_case "fair deadlock definitive" `Quick
      test_convergence_fair_deadlock_definitive;
  ]
