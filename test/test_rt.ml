(* Tests for the runtime-robustness layer: budgets, cancellation tokens,
   guards, watchdogs, and checkpoint files — and, most importantly, that
   a search interrupted at an arbitrary budget point and resumed from its
   checkpoint reaches a verdict bit-identical to the uninterrupted run,
   on the lazy or parallel backend at any job count. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Action = Guarded.Action
module Expr = Guarded.Expr
module Engine = Explore.Engine
module Faultspan = Explore.Faultspan
module Fault = Sim.Fault
module Token_ring = Protocols.Token_ring

(* --- Budget / Cancel / Guard / Watchdog units --- *)

let invalid f = try f () |> ignore; false with Invalid_argument _ -> true

let test_budget_validation () =
  Alcotest.(check bool) "unlimited" true
    (Rt.Budget.is_unlimited Rt.Budget.unlimited);
  Alcotest.(check bool) "empty make unlimited" true
    (Rt.Budget.is_unlimited (Rt.Budget.make ()));
  Alcotest.(check bool) "max_states limited" false
    (Rt.Budget.is_unlimited (Rt.Budget.make ~max_states:1 ()));
  Alcotest.(check bool) "negative deadline rejected" true
    (invalid (fun () -> Rt.Budget.make ~deadline_s:(-1.0) ()));
  Alcotest.(check bool) "zero max_states rejected" true
    (invalid (fun () -> Rt.Budget.make ~max_states:0 ()));
  Alcotest.(check bool) "negative max_bytes rejected" true
    (invalid (fun () -> Rt.Budget.make ~max_bytes:(-5) ()))

let test_cancel_first_wins () =
  let c = Rt.Cancel.create () in
  Alcotest.(check bool) "fresh token empty" true (Rt.Cancel.get c = None);
  Rt.Cancel.request c (Rt.Cancel.Signal "SIGINT");
  Rt.Cancel.request c Rt.Cancel.Deadline;
  Alcotest.(check bool) "first request wins" true
    (Rt.Cancel.get c = Some (Rt.Cancel.Signal "SIGINT"));
  Rt.Cancel.clear c;
  Alcotest.(check bool) "cleared" true (Rt.Cancel.get c = None);
  Alcotest.(check string) "label deadline" "deadline"
    (Rt.Cancel.reason_label Rt.Cancel.Deadline);
  Alcotest.(check string) "label states" "max-states"
    (Rt.Cancel.reason_label Rt.Cancel.Max_states);
  Alcotest.(check string) "label signal" "signal:SIGTERM"
    (Rt.Cancel.reason_label (Rt.Cancel.Signal "SIGTERM"))

let test_guard_thresholds () =
  Alcotest.(check bool) "inert inactive" false (Rt.Guard.active Rt.Guard.inert);
  Alcotest.(check bool) "inert never trips" true
    (Rt.Guard.poll Rt.Guard.inert ~states:max_int ~bytes:max_int = None);
  let g =
    Rt.Guard.create
      ~budget:(Rt.Budget.make ~max_states:100 ~max_bytes:1_000 ())
      ()
  in
  Alcotest.(check bool) "active" true (Rt.Guard.active g);
  Alcotest.(check bool) "at the cap: no trip" true
    (Rt.Guard.poll g ~states:100 ~bytes:1_000 = None);
  Alcotest.(check bool) "states over cap" true
    (Rt.Guard.poll g ~states:101 ~bytes:0 = Some Rt.Cancel.Max_states);
  Alcotest.(check bool) "bytes over cap" true
    (Rt.Guard.poll g ~states:0 ~bytes:1_001 = Some Rt.Cancel.Max_bytes);
  (* a tripped budget marks the attached token so sibling pollers see it *)
  let c = Rt.Cancel.create () in
  let g2 = Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:10 ()) ~cancel:c () in
  ignore (Rt.Guard.poll g2 ~states:11 ~bytes:0);
  Alcotest.(check bool) "trip marks the cancel token" true
    (Rt.Cancel.get c = Some Rt.Cancel.Max_states)

let test_guard_deadline () =
  let g = Rt.Guard.create ~budget:(Rt.Budget.make ~deadline_s:0.005 ()) () in
  Unix.sleepf 0.02;
  Alcotest.(check bool) "expired deadline trips" true
    (Rt.Guard.poll g ~states:0 ~bytes:0 = Some Rt.Cancel.Deadline);
  let far = Rt.Guard.create ~budget:(Rt.Budget.make ~deadline_s:3600.0 ()) () in
  Alcotest.(check bool) "future deadline quiet" true
    (Rt.Guard.poll far ~states:0 ~bytes:0 = None)

let test_guard_link () =
  let parent = Rt.Cancel.create () in
  Alcotest.(check bool) "link alone makes the guard active" true
    (Rt.Guard.active (Rt.Guard.create ~link:parent ()));
  let g =
    Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:10 ()) ~link:parent ()
  in
  Alcotest.(check bool) "scoped budget trips" true
    (Rt.Guard.poll g ~states:11 ~bytes:0 = Some Rt.Cancel.Max_states);
  Alcotest.(check bool) "linked token never marked by a scoped trip" true
    (Rt.Cancel.get parent = None);
  Rt.Cancel.request parent (Rt.Cancel.Signal "SIGTERM");
  Alcotest.(check bool) "parent cancellation observed at the next poll" true
    (Rt.Guard.poll g ~states:0 ~bytes:0 = Some (Rt.Cancel.Signal "SIGTERM"))

let test_watchdog () =
  Alcotest.(check bool) "zero timeout rejected" true
    (invalid (fun () -> Rt.Watchdog.make ~timeout_s:0.0 ()));
  Alcotest.(check bool) "negative retries rejected" true
    (invalid (fun () -> Rt.Watchdog.make ~retries:(-1) ~timeout_s:1.0 ()));
  let w = Rt.Watchdog.make ~retries:3 ~timeout_s:0.5 () in
  Alcotest.(check int) "retries recorded" 3 w.Rt.Watchdog.retries;
  let now = Unix.gettimeofday () in
  let d = Rt.Watchdog.deadline w in
  Alcotest.(check bool) "deadline is timeout from now" true
    (d -. now > 0.4 && d -. now < 0.7)

(* --- Snapshot files --- *)

let sample_snapshot () =
  {
    Rt.Snapshot.kind = "test";
    config_hash = "deadbeefdeadbeef";
    meta = [ ("alpha", 7); ("huge", max_int) ];
    sections =
      [
        ("small", [| 1; 2; 3 |]);
        (* elements past int32 force the 8-byte-wide encoding *)
        ("wide", [| 0; 1 lsl 40; max_int |]);
        ("empty", [||]);
      ];
  }

let with_temp_file f =
  let file = Filename.temp_file "nmsnap" ".snap" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> f file)

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let write_file file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

let loads_corrupt file =
  try
    ignore (Rt.Snapshot.load ~file);
    false
  with Rt.Snapshot.Corrupt _ -> true

let test_snapshot_roundtrip () =
  with_temp_file @@ fun file ->
  let snap = sample_snapshot () in
  Rt.Snapshot.save ~file snap;
  let back = Rt.Snapshot.load ~file in
  Alcotest.(check bool) "roundtrip preserves everything" true (back = snap);
  Alcotest.(check int) "meta_int" 7 (Rt.Snapshot.meta_int back "alpha");
  Alcotest.(check int) "wide section survives" (1 lsl 40)
    (Rt.Snapshot.section back "wide").(1);
  Alcotest.(check int) "total elems" 6 (Rt.Snapshot.total_elems back);
  (* saves rename a temp file into place; a completed save leaves none *)
  Alcotest.(check bool) "no temp file left behind" false
    (Sys.file_exists (file ^ ".tmp"))

let test_snapshot_corruption_detected () =
  with_temp_file @@ fun file ->
  Rt.Snapshot.save ~file (sample_snapshot ());
  let raw = read_file file in
  (* truncation *)
  write_file file (String.sub raw 0 (String.length raw - 7));
  Alcotest.(check bool) "truncated file rejected" true (loads_corrupt file);
  (* single-byte flip mid-file: the checksum must catch it *)
  let flipped = Bytes.of_string raw in
  let mid = String.length raw / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  write_file file (Bytes.to_string flipped);
  Alcotest.(check bool) "bit-flipped file rejected" true (loads_corrupt file);
  (* not a snapshot at all *)
  write_file file "definitely not a checkpoint";
  Alcotest.(check bool) "garbage rejected" true (loads_corrupt file);
  Alcotest.(check bool) "missing file rejected" true
    (loads_corrupt "/nonexistent/nmsnap.snap")

let test_snapshot_crafted_header_rejected () =
  with_temp_file @@ fun file ->
  (* a valid magic and plausible header length framing garbage header
     bytes must raise Corrupt — the hand-rolled decoder bounds-checks
     every length, where Marshal.from_string could crash the process *)
  let b = Buffer.create 64 in
  Buffer.add_string b "NMSNAP02";
  let len = Bytes.create 4 in
  Bytes.set_int32_le len 0 24l;
  Buffer.add_bytes b len;
  Buffer.add_string b (String.make 24 '\xFF');
  Buffer.add_string b (String.make 8 '\x00');
  write_file file (Buffer.contents b);
  Alcotest.(check bool) "crafted header rejected" true (loads_corrupt file)

let test_snapshot_missing_fields () =
  let snap = sample_snapshot () in
  Alcotest.(check bool) "missing meta key" true
    (try ignore (Rt.Snapshot.meta_int snap "nope"); false
     with Rt.Snapshot.Corrupt _ -> true);
  Alcotest.(check bool) "missing section" true
    (try ignore (Rt.Snapshot.section snap "nope"); false
     with Rt.Snapshot.Corrupt _ -> true)

(* --- interrupt/resume machinery shared by the determinism tests --- *)

let save_load snap =
  with_temp_file @@ fun file ->
  Rt.Snapshot.save ~file snap;
  Rt.Snapshot.load ~file

let region_fp (r : Engine.region) =
  ( Array.to_list r.Engine.node_key,
    Array.to_list r.Engine.terminal,
    r.Engine.explored,
    List.map
      (fun (e : _ Dgraph.Digraph.edge) -> (e.Dgraph.Digraph.src, e.dst, e.label))
      (Dgraph.Digraph.edges r.Engine.graph) )

let interrupt_region ?salt ~backend ~jobs ~budget_states env cp ~from ~target
    () =
  let guard =
    Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:budget_states ()) ()
  in
  let engine =
    Engine.create ~backend ~jobs ~guard ~snapshots:true ?salt env
  in
  match Engine.region engine cp ~from ~target with
  | r -> `Completed r
  | exception Engine.Interrupted it -> (
      Alcotest.(check bool) "partial progress reported" true
        (it.Engine.states_seen > 0);
      Alcotest.(check bool) "frontier pending" true (it.Engine.frontier_size > 0);
      match it.Engine.snapshot with
      | None -> Alcotest.fail "interrupt carries no snapshot"
      | Some snap -> `Snapshot (save_load snap, it.Engine.states_seen))

let resume_region ~backend ~jobs env cp ~target snap =
  let engine = Engine.create ~backend ~jobs env in
  Engine.region ~resume:snap engine cp ~from:(Engine.Seeds []) ~target

(* A pure 0..n-1 counter: branching factor 1, so the lazy backend's
   explored count tracks its pop count and a state budget of [b]
   interrupts within one poll interval of [b] — precise control over
   where the wavefront is cut. *)
let counter_model n =
  let env = Guarded.Env.create () in
  let hi = n - 1 in
  let x = Guarded.Env.fresh env "x" (Guarded.Domain.range 0 hi) in
  let inc =
    Expr.(Action.make ~name:"inc" ~guard:(var x < int hi) [ (x, var x + int 1) ])
  in
  let cp = Compile.program (Guarded.Program.make ~name:"counter" env [ inc ]) in
  (env, cp)

(* The token ring plus single-variable corruption compiled as one
   program: the forward closure of one seed is the whole space, reached
   through wide BFS frontiers — the bushy counterpart to [counter_model]. *)
let ring_with_corrupt ~nodes ~k =
  let tr = Token_ring.make ~nodes ~k in
  let env = Token_ring.env tr in
  let actions =
    Array.to_list (Guarded.Program.actions (Token_ring.combined tr))
    @ Fault.actions (Fault.corrupt env ~k:1)
  in
  let cp =
    Compile.program (Guarded.Program.make ~name:"ring+corrupt" env actions)
  in
  (tr, env, cp)

let writers = [ (Engine.Lazy, 1); (Engine.Parallel, 4) ]
let resumers = [ (Engine.Lazy, 1); (Engine.Parallel, 1); (Engine.Parallel, 4) ]

let bname = function
  | Engine.Eager -> "eager"
  | Engine.Lazy -> "lazy"
  | Engine.Parallel -> "parallel"

let check_resume_matrix ~budgets env cp ~from ~target =
  let base =
    region_fp
      (Engine.region (Engine.create ~backend:Engine.Lazy env) cp ~from ~target)
  in
  List.iter
    (fun budget_states ->
      List.iter
        (fun (wb, wj) ->
          match
            interrupt_region ~backend:wb ~jobs:wj ~budget_states env cp ~from
              ~target ()
          with
          | `Completed r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s j%d finished under budget %d" (bname wb)
                   wj budget_states)
                true
                (region_fp r = base)
          | `Snapshot (snap, _) ->
              List.iter
                (fun (rb, rj) ->
                  let r = resume_region ~backend:rb ~jobs:rj env cp ~target snap in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "cut at %d by %s j%d, resumed on %s j%d: bit-identical"
                       budget_states (bname wb) wj (bname rb) rj)
                    true
                    (region_fp r = base))
                resumers)
        writers)
    budgets

let test_region_resume_counter () =
  let n = 20_000 in
  let env, cp = counter_model n in
  let from = Engine.Seeds [ State.make env ] in
  (* members everywhere: the full chain, its edges, and its terminal *)
  let target _ = false in
  check_resume_matrix ~budgets:[ 2_000; 9_000; 17_000 ] env cp ~from ~target

let test_region_resume_bushy () =
  let tr, env, cp = ring_with_corrupt ~nodes:4 ~k:12 in
  let from = Engine.Seeds [ Token_ring.all_zero tr ] in
  let target s = Token_ring.invariant tr s in
  check_resume_matrix ~budgets:[ 1_500; 8_000; 18_000 ] env cp ~from ~target

let test_region_resume_chained () =
  (* interrupt, resume under a looser budget, interrupt again strictly
     later, then resume to completion across backends *)
  let n = 20_000 in
  let env, cp = counter_model n in
  let from = Engine.Seeds [ State.make env ] in
  let target _ = false in
  let base =
    region_fp
      (Engine.region (Engine.create ~backend:Engine.Lazy env) cp ~from ~target)
  in
  match
    interrupt_region ~backend:Engine.Lazy ~jobs:1 ~budget_states:2_000 env cp
      ~from ~target ()
  with
  | `Completed _ -> Alcotest.fail "budget 2000 must interrupt a 20000-state run"
  | `Snapshot (snap1, seen1) -> (
      let guard =
        Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:10_000 ()) ()
      in
      let engine =
        Engine.create ~backend:Engine.Lazy ~guard ~snapshots:true env
      in
      match Engine.region ~resume:snap1 engine cp ~from:(Engine.Seeds []) ~target with
      | _ -> Alcotest.fail "budget 10000 must interrupt the resumed run"
      | exception Engine.Interrupted it2 ->
          Alcotest.(check bool) "second cut strictly later" true
            (it2.Engine.states_seen > seen1);
          let snap2 = save_load (Option.get it2.Engine.snapshot) in
          let r =
            resume_region ~backend:Engine.Parallel ~jobs:4 env cp ~target snap2
          in
          Alcotest.(check bool) "twice-interrupted run bit-identical" true
            (region_fp r = base))

let test_resume_rejects_mismatches () =
  let n = 5_000 in
  let env, cp = counter_model n in
  let from = Engine.Seeds [ State.make env ] in
  let target _ = false in
  let snap =
    match
      interrupt_region ~salt:"salted" ~backend:Engine.Lazy ~jobs:1
        ~budget_states:2_000 env cp ~from ~target ()
    with
    | `Snapshot (snap, _) -> snap
    | `Completed _ -> Alcotest.fail "budget must interrupt"
  in
  let rejects f = try ignore (f ()); false with Rt.Snapshot.Corrupt _ -> true in
  (* same model, different salt: the config hash must not match *)
  Alcotest.(check bool) "salt mismatch rejected" true
    (rejects (fun () ->
         Engine.region ~resume:snap
           (Engine.create ~backend:Engine.Lazy env)
           cp ~from:(Engine.Seeds []) ~target));
  let salted = Engine.create ~backend:Engine.Lazy ~salt:"salted" env in
  Alcotest.(check bool) "matching salt accepted" true
    (not
       (rejects (fun () ->
            Engine.region ~resume:snap salted cp ~from:(Engine.Seeds []) ~target)));
  (* a region checkpoint is not a span checkpoint *)
  Alcotest.(check bool) "kind mismatch rejected" true
    (rejects (fun () ->
         Faultspan.compute
           (Engine.create ~backend:Engine.Lazy ~salt:"salted" env)
           ~resume:snap ~faults:cp ~from:(Engine.Seeds []) ()));
  (* the eager backend has no wavefront to restore *)
  Alcotest.(check bool) "eager resume rejected" true
    (rejects (fun () ->
         Engine.region ~resume:snap
           (Engine.create ~backend:Engine.Eager ~salt:"salted" env)
           cp ~from:(Engine.Seeds []) ~target))

let test_interrupt_metadata () =
  let n = 5_000 in
  let env, cp = counter_model n in
  let from = Engine.Seeds [ State.make env ] in
  let target _ = false in
  (* without ~snapshots:true the interrupt must carry None *)
  let guard =
    Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:1_000 ()) ()
  in
  let engine = Engine.create ~backend:Engine.Lazy ~guard env in
  (match Engine.region engine cp ~from ~target with
  | _ -> Alcotest.fail "budget must interrupt"
  | exception Engine.Interrupted it ->
      Alcotest.(check bool) "reason is Max_states" true
        (it.Engine.reason = Rt.Cancel.Max_states);
      Alcotest.(check bool) "no snapshot without opt-in" true
        (it.Engine.snapshot = None));
  (* a pre-signalled cancel token carries its reason through, and the
     checkpoint written at the very first polling point still resumes *)
  let cancel = Rt.Cancel.create () in
  Rt.Cancel.request cancel (Rt.Cancel.Signal "SIGTERM");
  let engine2 =
    Engine.create ~backend:Engine.Lazy
      ~guard:(Rt.Guard.create ~cancel ())
      ~snapshots:true env
  in
  match Engine.region engine2 cp ~from ~target with
  | _ -> Alcotest.fail "signalled token must interrupt"
  | exception Engine.Interrupted it ->
      Alcotest.(check bool) "signal reason preserved" true
        (it.Engine.reason = Rt.Cancel.Signal "SIGTERM");
      let r =
        resume_region ~backend:Engine.Lazy ~jobs:1 env cp ~target
          (save_load (Option.get it.Engine.snapshot))
      in
      let base =
        region_fp
          (Engine.region (Engine.create ~backend:Engine.Lazy env) cp ~from
             ~target)
      in
      Alcotest.(check bool) "first-poll checkpoint resumes" true
        (region_fp r = base)

let test_eager_interrupt_no_snapshot () =
  (* the eager CSR build is a cancellation point but not checkpointable *)
  let tr = Token_ring.make ~nodes:4 ~k:10 in
  let env = Token_ring.env tr in
  let cancel = Rt.Cancel.create () in
  Rt.Cancel.request cancel (Rt.Cancel.Requested "test");
  let engine =
    Engine.create ~backend:Engine.Eager
      ~guard:(Rt.Guard.create ~cancel ())
      ~snapshots:true env
  in
  match
    Engine.region engine
      (Compile.program (Token_ring.combined tr))
      ~from:Engine.All
      ~target:(fun s -> Token_ring.invariant tr s)
  with
  | _ -> Alcotest.fail "cancelled eager build must interrupt"
  | exception Engine.Interrupted it ->
      Alcotest.(check bool) "reason carried" true
        (it.Engine.reason = Rt.Cancel.Requested "test");
      Alcotest.(check bool) "eager interrupts carry no snapshot" true
        (it.Engine.snapshot = None)

(* --- span checkpoint/resume --- *)

let span_fp span =
  ( Faultspan.count span,
    Faultspan.root_count span,
    Faultspan.max_depth span,
    Array.to_list (Faultspan.depth_histogram span),
    List.init (Faultspan.count span) (Faultspan.nth_key span) )

let test_span_resume_bit_identical () =
  let tr = Token_ring.make ~nodes:4 ~k:12 in
  let env = Token_ring.env tr in
  let cp = Compile.program (Token_ring.combined tr) in
  let fp =
    Compile.program
      (Guarded.Program.make ~name:"faults" env
         (Fault.actions (Fault.corrupt env ~k:1)))
  in
  let from = Engine.Seeds [ Token_ring.all_zero tr ] in
  let compute engine ?resume () =
    Faultspan.compute engine ~program:cp ~budget:3 ?resume ~faults:fp ~from ()
  in
  let base =
    span_fp (compute (Engine.create ~backend:Engine.Lazy env) ())
  in
  List.iter
    (fun budget_states ->
      List.iter
        (fun (wb, wj) ->
          let guard =
            Rt.Guard.create
              ~budget:(Rt.Budget.make ~max_states:budget_states ())
              ()
          in
          let engine =
            Engine.create ~backend:wb ~jobs:wj ~guard ~snapshots:true env
          in
          match compute engine () with
          | span ->
              Alcotest.(check bool)
                (Printf.sprintf "%s j%d span finished under %d" (bname wb) wj
                   budget_states)
                true
                (span_fp span = base)
          | exception Engine.Interrupted it ->
              let snap = save_load (Option.get it.Engine.snapshot) in
              Alcotest.(check string) "span-kind checkpoint" "span"
                snap.Rt.Snapshot.kind;
              List.iter
                (fun (rb, rj) ->
                  let span =
                    compute
                      (Engine.create ~backend:rb ~jobs:rj env)
                      ~resume:snap ()
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "span cut at %d by %s j%d, resumed on %s j%d"
                       budget_states (bname wb) wj (bname rb) rj)
                    true
                    (span_fp span = base))
                resumers)
        writers)
    [ 1_500; 8_000; 18_000 ]

(* A sweep's search extended from budget 1 to budget 3 and cut by a
   state budget leaves the checkpoint a fresh budget-3 search would
   have: [compute ~budget:3 ~resume] finishes it on any backend, and the
   interrupted search refuses a further extension. *)
let test_span_extension_resume () =
  let em =
    Lang.Driver.compile_file
      ~params:[ ("N", 4); ("K", 6) ]
      (Test_lang.model_path "token_ring.nm")
  in
  let env = em.Lang.Elab.env in
  let cp = Compile.program em.Lang.Elab.program in
  let fp =
    Compile.program
      (Guarded.Program.make ~name:"faults" env
         (Fault.actions (Fault.corrupt env ~k:1)))
  in
  let from = Engine.Pred em.Lang.Elab.invariant in
  let fresh ?resume engine budget =
    Faultspan.compute engine ~program:cp ~budget ?resume ~faults:fp ~from ()
  in
  let base1 = fresh (Engine.create ~backend:Engine.Lazy env) 1 in
  let base3 = fresh (Engine.create ~backend:Engine.Lazy env) 3 in
  let c1 = Faultspan.count base1 and c3 = Faultspan.count base3 in
  let cuts = ref 0 in
  List.iter
    (fun cap ->
      List.iter
        (fun (wb, wj) ->
          let guard =
            Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:cap ()) ()
          in
          let engine =
            Engine.create ~backend:wb ~jobs:wj ~guard ~snapshots:true env
          in
          let search =
            Faultspan.start engine ~program:cp ~faults:fp ~from ()
          in
          let tag = Printf.sprintf "cap %d, %s j%d" cap (bname wb) wj in
          Alcotest.(check bool) (tag ^ ": budget 1 under the cap") true
            (span_fp (Faultspan.extend search ~budget:1 ()) = span_fp base1);
          match Faultspan.extend search ~budget:3 () with
          | span ->
              Alcotest.(check bool) (tag ^ ": finished under the cap") true
                (span_fp span = span_fp base3)
          | exception Engine.Interrupted it ->
              incr cuts;
              let snap = save_load (Option.get it.Engine.snapshot) in
              Alcotest.(check bool) (tag ^ ": no extension after a cut") true
                (match Faultspan.extend search ~budget:3 () with
                | _ -> false
                | exception Invalid_argument _ -> true);
              List.iter
                (fun (rb, rj) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: resumed on %s j%d" tag (bname rb) rj)
                    true
                    (span_fp
                       (fresh ~resume:snap
                          (Engine.create ~backend:rb ~jobs:rj env)
                          3)
                    = span_fp base3))
                resumers)
        writers)
    [ c1 + 1; (c1 + c3) / 2; c3 - 1 ];
  Alcotest.(check bool) "some extension was cut" true (!cuts > 0)

(* --- certificate resume --- *)

let test_certify_resume_identical () =
  let tr = Token_ring.make ~nodes:4 ~k:8 in
  let env = Token_ring.env tr in
  let faults = Fault.actions (Fault.corrupt env ~k:1) in
  let certify engine ?resume () =
    Nonmask.Certify.tolerance ~engine ~program:(Token_ring.combined tr)
      ~faults
      ~invariant:(fun s -> Token_ring.invariant tr s)
      ~budget:1 ?resume ~name:"resume-test" ()
  in
  let render c = Format.asprintf "%a" Nonmask.Certify.pp_full c in
  let base = render (certify (Engine.create ~backend:Engine.Lazy env) ()) in
  let guard =
    Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:400 ()) ()
  in
  let engine =
    Engine.create ~backend:Engine.Lazy ~guard ~snapshots:true env
  in
  match certify engine () with
  | _ -> Alcotest.fail "budget 400 must interrupt the span phase"
  | exception Engine.Interrupted it ->
      let snap = save_load (Option.get it.Engine.snapshot) in
      Alcotest.(check string) "interrupted during the span" "span"
        snap.Rt.Snapshot.kind;
      List.iter
        (fun (rb, rj) ->
          let cert =
            certify (Engine.create ~backend:rb ~jobs:rj env) ~resume:snap ()
          in
          Alcotest.(check string)
            (Printf.sprintf "certificate identical on %s j%d" (bname rb) rj)
            base (render cert))
        [ (Engine.Lazy, 1); (Engine.Parallel, 4) ];
      (* a trip after the span (closure/convergence phases re-derive from
         it) must not masquerade as a resumable checkpoint *)
      let g2 =
        Rt.Guard.create ~budget:(Rt.Budget.make ~max_states:1_000 ()) ()
      in
      let e2 = Engine.create ~backend:Engine.Lazy ~guard:g2 ~snapshots:true env in
      (match certify e2 () with
      | _ -> Alcotest.fail "budget 1000 must interrupt a post-span phase"
      | exception Engine.Interrupted it2 ->
          Alcotest.(check bool) "post-span interrupts carry no snapshot" true
            (it2.Engine.snapshot = None))

(* --- storm and fuzz degradation --- *)

let tripped_guard () =
  let cancel = Rt.Cancel.create () in
  Rt.Cancel.request cancel (Rt.Cancel.Requested "test");
  Rt.Guard.create ~cancel ()

let storm_trials ?guard ?watchdog ~stop ~max_steps ~trials () =
  let tr = Token_ring.make ~nodes:3 ~k:3 in
  let env = Token_ring.env tr in
  let fault = Fault.corrupt env ~k:1 in
  Sim.Storm.trials ~max_steps ?guard ?watchdog ~rng:(Prng.create 42) ~trials
    ~daemon:(fun r -> Sim.Daemon.random r)
    ~prepare:(fun r ->
      let s = Token_ring.all_zero tr in
      fault.Fault.inject r s;
      s)
    ~stop ~fault ~rate:0.2
    (Compile.program (Token_ring.combined tr))

let test_storm_skips_on_tripped_guard () =
  let tr = Token_ring.make ~nodes:3 ~k:3 in
  let result =
    storm_trials ~guard:(tripped_guard ())
      ~stop:(fun s -> Token_ring.invariant tr s)
      ~max_steps:10_000 ~trials:5 ()
  in
  Alcotest.(check int) "all trials skipped" 5 result.Sim.Storm.skipped;
  Alcotest.(check int) "skipped is not failed" 0 result.Sim.Storm.failures;
  Alcotest.(check int) "nothing converged" 0
    (Array.length result.Sim.Storm.steps)

let test_storm_watchdog_retries () =
  (* a trial that can never stop: every attempt must expire, be retried
     on a derived stream, and finally be abandoned and counted failed *)
  let result =
    storm_trials
      ~watchdog:(Rt.Watchdog.make ~retries:2 ~timeout_s:0.002 ())
      ~stop:(fun _ -> false)
      ~max_steps:50_000_000 ~trials:2 ()
  in
  Alcotest.(check int) "both trials abandoned" 2 result.Sim.Storm.timeouts;
  Alcotest.(check int) "two retries each" 4 result.Sim.Storm.retries;
  Alcotest.(check int) "abandoned trials are failures" 2
    result.Sim.Storm.failures;
  Alcotest.(check int) "none skipped" 0 result.Sim.Storm.skipped

let test_fuzz_skips_on_tripped_guard () =
  let report =
    Gen.Fuzz.run ~guard:(tripped_guard ()) ~jobs:1 ~seed:7 ~count:3 ()
  in
  Alcotest.(check int) "all trials skipped" 3 report.Gen.Fuzz.skipped;
  Alcotest.(check int) "trial count intact" 3 report.Gen.Fuzz.trials;
  Alcotest.(check bool) "no counterexamples fabricated" true
    (report.Gen.Fuzz.counterexamples = []);
  let rendered = Format.asprintf "%a" Gen.Fuzz.pp_report report in
  Alcotest.(check bool) "report says the sample is partial" true
    (Astring_contains.contains rendered "skipped")

let test_fuzz_watchdog_keeps_sweep_alive () =
  (* regression: a watchdog expiry inside one trial's oracle used to mark
     the sweep's shared cancel token, which skipped every later trial and
     turned one slow trial into a cancelled sweep (exit 5 via the CLI) *)
  let cancel = Rt.Cancel.create () in
  let guard = Rt.Guard.create ~cancel () in
  let watchdog = Rt.Watchdog.make ~retries:1 ~timeout_s:1e-9 () in
  let report = Gen.Fuzz.run ~guard ~watchdog ~jobs:1 ~seed:7 ~count:3 () in
  Alcotest.(check int) "no trial skipped" 0 report.Gen.Fuzz.skipped;
  Alcotest.(check int) "every trial expired instead" 3
    (List.length report.Gen.Fuzz.timeouts);
  Alcotest.(check bool) "global cancel token stays unmarked" true
    (Rt.Cancel.get cancel = None)

let suite =
  [
    Alcotest.test_case "budget validation" `Quick test_budget_validation;
    Alcotest.test_case "cancel token first-wins" `Quick test_cancel_first_wins;
    Alcotest.test_case "guard thresholds" `Quick test_guard_thresholds;
    Alcotest.test_case "guard deadline" `Quick test_guard_deadline;
    Alcotest.test_case "guard linked token is read-only" `Quick
      test_guard_link;
    Alcotest.test_case "watchdog policy" `Quick test_watchdog;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot corruption detected" `Quick
      test_snapshot_corruption_detected;
    Alcotest.test_case "snapshot crafted header rejected" `Quick
      test_snapshot_crafted_header_rejected;
    Alcotest.test_case "snapshot missing fields" `Quick
      test_snapshot_missing_fields;
    Alcotest.test_case "region resume (counter, varied cuts)" `Slow
      test_region_resume_counter;
    Alcotest.test_case "region resume (bushy frontiers)" `Slow
      test_region_resume_bushy;
    Alcotest.test_case "region resume chained twice" `Quick
      test_region_resume_chained;
    Alcotest.test_case "resume rejects mismatches" `Quick
      test_resume_rejects_mismatches;
    Alcotest.test_case "interrupt metadata and first-poll resume" `Quick
      test_interrupt_metadata;
    Alcotest.test_case "eager interrupt carries no snapshot" `Quick
      test_eager_interrupt_no_snapshot;
    Alcotest.test_case "span resume bit-identical" `Slow
      test_span_resume_bit_identical;
    Alcotest.test_case "certificate resume identical" `Slow
      test_certify_resume_identical;
    Alcotest.test_case "storm skips on tripped guard" `Quick
      test_storm_skips_on_tripped_guard;
    Alcotest.test_case "storm watchdog retries then abandons" `Quick
      test_storm_watchdog_retries;
    Alcotest.test_case "fuzz skips on tripped guard" `Quick
      test_fuzz_skips_on_tripped_guard;
    Alcotest.test_case "fuzz watchdog expiry keeps the sweep alive" `Quick
      test_fuzz_watchdog_keeps_sweep_alive;
    Alcotest.test_case "span extension cut and resumed" `Quick
      test_span_extension_resume;
  ]
