type check = { label : string; ok : bool; detail : string option }

(* Machine-readable digest of a tolerance certification — what a
   budget-sweep consumer needs without re-parsing check labels. *)
type tolerance_summary = {
  span_states : int;
  span_roots : int;
  span_max_depth : int;
  convergence_worst : int option;
      (* exact worst-case recovery steps when the fault-free region is
         acyclic; None when convergence holds only under weak fairness
         or fails *)
}

type t = {
  theorem : string;
  spec_name : string;
  shapes : (string * Dgraph.Classify.shape) list;
  checks : check list;
  summary : tolerance_summary option;
}

let ok t = List.for_all (fun c -> c.ok) t.checks
let failures t = List.filter (fun c -> not c.ok) t.checks
let check_pass label = { label; ok = true; detail = None }
let check_fail label ~detail = { label; ok = false; detail = Some detail }
let check_info label ~detail = { label; ok = true; detail = Some detail }

(* A cycle through a fault edge (label >= first_fault_index) in the combined
   ¬S region: pick a fault edge whose endpoints share an SCC, then close the
   loop with a BFS from its destination back to its source inside that
   component. Returned as the edge list of the cycle, fault edge first.
   [poll] runs in the SCC pass and every 4096 BFS pops. *)
let find_fault_cycle ?poll (region : Explore.Engine.region) ~first_fault_index =
  let module G = Dgraph.Digraph in
  let g = region.Explore.Engine.graph in
  let n = G.node_count g in
  let comp = (Dgraph.Scc.compute ?poll g).Dgraph.Scc.component in
  let ({ G.off; ends; _ } as csr) = G.out_csr g in
  (* the first qualifying edge in CSR order, as an edge id *)
  let rec first v k =
    if v = n then None
    else if k = off.(v + 1) then first (v + 1) k
    else
      let e = G.csr_edge csr k in
      if G.edge_label g e >= first_fault_index && comp.(v) = comp.(ends.(k))
      then Some (G.edge g e)
      else first v (k + 1)
  in
  match first 0 0 with
  | None -> None
  | Some e when e.src = e.dst -> Some [ e ]
  | Some e ->
      let c = comp.(e.src) in
      (* BFS over an int-array queue; [parent.(w)] is the id of the edge
         that first reached [w], or -1 *)
      let parent = Array.make n (-1) in
      let seen = Bytes.make n '\000' in
      let queue = Array.make n 0 in
      let head = ref 0 and tail = ref 1 in
      Bytes.set seen e.dst '\001';
      queue.(0) <- e.dst;
      let found = ref false in
      while (not !found) && !head < !tail do
        let v = queue.(!head) in
        Dgraph.Topo.tick poll !head;
        incr head;
        let k = ref off.(v) in
        while (not !found) && !k < off.(v + 1) do
          let w = ends.(!k) in
          if Bytes.get seen w = '\000' && comp.(w) = c then begin
            Bytes.set seen w '\001';
            parent.(w) <- G.csr_edge csr !k;
            if w = e.src then found := true
            else begin
              queue.(!tail) <- w;
              incr tail
            end
          end;
          incr k
        done
      done;
      if not !found then None
      else begin
        let rec back v acc =
          if parent.(v) < 0 then acc
          else
            let pe = G.edge g parent.(v) in
            back pe.src (pe :: acc)
        in
        Some (e :: back e.src [])
      end

let render_cycle engine region (combined : Guarded.Compile.program)
    ~first_fault_index cycle =
  let env = Explore.Engine.env engine in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "fault-sustained cycle outside S:";
  List.iter
    (fun (e : int Dgraph.Digraph.edge) ->
      let s = Explore.Engine.state_of_node engine region e.src in
      let a = combined.Guarded.Compile.actions.(e.label).Guarded.Compile.source in
      Buffer.add_string buf
        (Format.asprintf "\n      %a  --[%s%s]-->" (Guarded.State.pp env) s
           (if e.label >= first_fault_index then "FAULT " else "")
           (Guarded.Action.name a)))
    cycle;
  (match cycle with
  | [] -> ()
  | (e0 : int Dgraph.Digraph.edge) :: _ ->
      let s = Explore.Engine.state_of_node engine region e0.src in
      Buffer.add_string buf
        (Format.asprintf "\n      %a" (Guarded.State.pp env) s));
  Buffer.contents buf

(* The post-span certificate phases (closure scan, convergence,
   recurrence) are cancellable but not resumable: an interruption there
   must not hand the caller a snapshot of some internal sub-search (the
   convergence/recurrence region queries write "region"-kind
   checkpoints that a certify [--resume] could never consume). Strip
   the snapshot so the CLI reports the incomplete verdict without
   persisting a misleading checkpoint. *)
let unresumable_phase f =
  try f ()
  with Explore.Engine.Interrupted i ->
    raise (Explore.Engine.Interrupted { i with snapshot = None })

let programs env ~program ~faults ~envs =
  let part suffix actions =
    Guarded.Compile.program
      (Guarded.Program.make
         ~name:(Guarded.Program.name program ^ suffix)
         env actions)
  in
  ( Guarded.Compile.program program,
    part ":faults" faults,
    match envs with [] -> None | _ -> Some (part ":envs" envs) )

let tolerance ~engine ~program ~faults ?(envs = []) ~invariant ?from ?budget
    ?resume ?span ?(require_recurrence_resilience = false) ~name () =
  Explore.Engine.sharing_pool engine @@ fun () ->
  let env = Explore.Engine.env engine in
  let obs = Explore.Engine.obs engine in
  let from =
    match from with Some f -> f | None -> Explore.Engine.Pred invariant
  in
  let cp, fp, ep = programs env ~program ~faults ~envs in
  let span =
    match span with
    | Some s -> s  (* caller-supplied, for the same configuration *)
    | None ->
        Obs.Ctx.time obs "certify.span" @@ fun () ->
        Explore.Faultspan.compute engine ~program:cp ?envs:ep ?budget ?resume
          ~faults:fp ~from ()
  in
  let span_states = Explore.Faultspan.states span in
  let span_check =
    let hist = Explore.Faultspan.depth_histogram span in
    check_info
      (Printf.sprintf
         "span: T = closure of %d root states under program ∪ %sfaults%s; |T| = %d"
         (Explore.Faultspan.root_count span)
         (if ep = None then "" else "environment ∪ ")
         (match budget with
         | Some b -> Printf.sprintf " (≤ %d fault steps)" b
         | None -> " (unbounded faults)")
         (Explore.Faultspan.count span))
      ~detail:
        (Printf.sprintf
           "T ⊇ S by construction; states by minimal fault depth: %s"
           (String.concat ", "
              (Array.to_list
                 (Array.mapi
                    (fun d c -> Printf.sprintf "%d:%d" d c)
                    hist))))
  in
  let include_faults = budget = None in
  let closure_acts =
    Array.concat
      (List.map
         (fun (p : Guarded.Compile.program) -> p.actions)
         ((cp :: Option.to_list ep) @ if include_faults then [ fp ] else []))
  in
  (* The first [acts] step from the loaded state whose post-state fails
     [inside] (given its key and the stepped buffer), rendered. *)
  let pp = Guarded.State.pp env in
  let violation st acts ~inside ~outside =
    let buf = Explore.Engine.stepper_state st in
    Array.find_map
      (fun (ca : Guarded.Compile.action) ->
        if not (ca.enabled buf) then None
        else
          let key = Explore.Engine.step st ca in
          let post =
            if inside key buf then None else Some (Guarded.State.copy buf)
          in
          Explore.Engine.undo st;
          Option.map
            (fun post ->
              Format.asprintf "%a  --[%s]-->  %a  (outside %s)" pp buf
                (Guarded.Action.name ca.source) pp post outside)
            post)
      acts
  in
  (* One sweep of the span in its iteration order discharges closure of
     T under [closure_acts] and, with an environment, closure of S under
     its actions: the environment can fire at any time — inside S
     included — so an environment step that breaks legitimacy makes
     stabilization unachievable (the perturbation recurs forever,
     unbudgeted). Each keeps its first violation in span order × action
     order; [found] holds what the slices before found. *)
  let found = ref (None, None) in
  let in_t key _ = Explore.Faultspan.mem_key span key
  and in_s _ post = invariant post in
  let visit () st _ (t, s) =
    let t0, s0 = !found in
    ( (if t0 <> None || t <> None then t
       else violation st closure_acts ~outside:"T" ~inside:in_t),
      match ep with
      | Some e
        when s0 = None && s = None
             && invariant (Explore.Engine.stepper_state st) ->
          violation st e.Guarded.Compile.actions ~outside:"S" ~inside:in_s
      | _ -> s )
  in
  let first a b = if a = None then b else a in
  let closure_fail, env_fail =
    unresumable_phase @@ fun () ->
    Obs.Ctx.time obs "certify.closure" @@ fun () ->
    Explore.Engine.sweep engine
      (Explore.Engine.Keys
         (Explore.Faultspan.count span, Explore.Faultspan.nth_key span))
      ~scratch:ignore ~visit ~empty:(None, None)
      ~fold:(fun (t0, s0) (t, s) ->
        found := (first t0 t, first s0 s);
        !found)
      ~stop:(fun (t, s) -> t <> None && (ep = None || s <> None))
      (None, None)
  in
  let verdict label = function
    | None -> check_pass label
    | Some d -> check_fail label ~detail:d
  in
  let closure_check =
    verdict
      (Printf.sprintf "closure: every program%s%s action maps T into T"
         (if ep = None then "" else ", environment")
         (if include_faults then
            if ep = None then " and fault" else ", and fault"
          else ""))
      closure_fail
  in
  let env_closure_check =
    Option.map
      (fun _ ->
        verdict "environment closure: every environment action maps S into S"
          env_fail)
      ep
  in
  (* Recovery happens while the environment keeps stepping: convergence
     (and the recurrence analysis below) runs over program ∪ environment,
     not the program alone. *)
  let conv_cp =
    match envs with
    | [] -> cp
    | _ -> Guarded.Compile.program (Guarded.Program.add_actions program envs)
  in
  let conv_ok, conv_worst, conv_check =
    match
      unresumable_phase @@ fun () ->
      Obs.Ctx.time obs "certify.convergence" @@ fun () ->
      Explore.Convergence.check_fair engine conv_cp
        ~from:(Explore.Engine.Seeds span_states) ~target:invariant
    with
    | Explore.Convergence.Converges st ->
        ( true,
          st.Explore.Convergence.worst_case_steps,
          check_pass
            (Printf.sprintf
               "convergence: every fault-free computation from T%s reaches S \
                (|T \\ S| = %d%s)"
               (if ep = None then ""
                else " (environment steps interleaved)")
               st.Explore.Convergence.region_states
               (match st.Explore.Convergence.worst_case_steps with
               | Some w -> Printf.sprintf ", worst case %d steps" w
               | None -> ", under weak fairness")) )
    | Explore.Convergence.Fails f ->
        ( false,
          None,
          check_fail "convergence: a computation from T never reaches S"
            ~detail:
              (Format.asprintf "%a" (Explore.Convergence.pp_failure env) f) )
    | Explore.Convergence.Unknown sample ->
        ( false,
          None,
          check_fail
            "convergence: the weak-fairness criterion could not discharge \
             an SCC of T \\ S"
            ~detail:
              (String.concat "\n      "
                 ("sample states of the undischarged SCC:"
                 :: List.map
                      (Format.asprintf "%a" (Guarded.State.pp env))
                      sample)) )
  in
  let env_closure_ok =
    match env_closure_check with Some c -> c.ok | None -> true
  in
  let tolerance_check =
    if closure_check.ok && env_closure_ok && conv_ok then
      check_pass
        "nonmasking tolerance: faults occurring finitely often cannot \
         prevent recovery to S"
    else
      check_fail
        "nonmasking tolerance: closure or convergence of T failed"
        ~detail:"see the failing checks above"
  in
  let recurrence_check =
    unresumable_phase @@ fun () ->
    Obs.Ctx.time obs "certify.recurrence" @@ fun () ->
    let first_fault_index =
      Array.length conv_cp.Guarded.Compile.actions
    in
    match
      let combined =
        Guarded.Compile.program
          (Guarded.Program.add_actions
             (match envs with
             | [] -> program
             | _ -> Guarded.Program.add_actions program envs)
             faults)
      in
      let region =
        Explore.Engine.region engine combined
          ~from:(Explore.Engine.Seeds span_states) ~target:invariant
      in
      (combined, region)
    with
    | exception Explore.Engine.Region_overflow n ->
        check_info
          "recurrence: analysis skipped (program ∪ fault region exceeds \
           the engine budget)"
          ~detail:(Printf.sprintf "visited %d states before overflow" n)
    | combined, region -> (
        match
          find_fault_cycle
            ?poll:
              (Explore.Engine.analysis_poll engine
                 ~explored:region.Explore.Engine.explored)
            region ~first_fault_index
        with
        | None ->
            check_pass
              "recurrence: no fault-sustained livelock — recovery completes \
               even under perpetually recurring faults"
        | Some cycle ->
            let detail =
              render_cycle engine region combined ~first_fault_index cycle
            in
            if require_recurrence_resilience then
              check_fail
                "recurrence: recurring faults can perpetually disrupt \
                 recovery"
                ~detail
            else
              check_info
                "recurrence: recurring faults can perpetually disrupt \
                 recovery (informational — nonmasking tolerance assumes \
                 faults eventually stop)"
                ~detail)
  in
  let cert =
    {
      theorem = "Tolerance";
      spec_name = name;
      shapes = [];
      checks =
        [ span_check; closure_check ]
        @ (match env_closure_check with Some c -> [ c ] | None -> [])
        @ [ conv_check; tolerance_check; recurrence_check ];
      summary =
        Some
          {
            span_states = Explore.Faultspan.count span;
            span_roots = Explore.Faultspan.root_count span;
            span_max_depth = Explore.Faultspan.max_depth span;
            convergence_worst = conv_worst;
          };
    }
  in
  if Obs.Ctx.enabled obs then begin
    Obs.Metrics.incr (Obs.Ctx.counter obs "certify.certificates");
    Obs.Ctx.emit obs "certify.done"
      [ ("name", Obs.Sink.S name); ("ok", Obs.Sink.B (ok cert)) ]
  end;
  cert

let pp_check ppf c =
  Format.fprintf ppf "  [%s] %s%s"
    (if c.ok then "ok" else "FAIL")
    c.label
    (match c.detail with Some d -> "\n    " ^ d | None -> "")

let pp ppf t =
  let fails = failures t in
  Format.fprintf ppf "@[<v>%s certificate for %s: %s (%d checks%s)@,"
    t.theorem t.spec_name
    (if ok t then "VALID" else "INVALID")
    (List.length t.checks)
    (if fails = [] then ""
     else Printf.sprintf ", %d failed" (List.length fails));
  List.iter
    (fun (layer, shape) ->
      Format.fprintf ppf "  graph %s: %s@," layer
        (Dgraph.Classify.shape_to_string shape))
    t.shapes;
  List.iter (fun c -> Format.fprintf ppf "%a@," pp_check c) fails;
  Format.fprintf ppf "@]"

let pp_full ppf t =
  Format.fprintf ppf "@[<v>%s certificate for %s: %s@," t.theorem t.spec_name
    (if ok t then "VALID" else "INVALID");
  List.iter
    (fun (layer, shape) ->
      Format.fprintf ppf "  graph %s: %s@," layer
        (Dgraph.Classify.shape_to_string shape))
    t.shapes;
  List.iter (fun c -> Format.fprintf ppf "%a@," pp_check c) t.checks;
  Format.fprintf ppf "@]"
