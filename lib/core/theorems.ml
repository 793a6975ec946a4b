module Expr = Guarded.Expr
module State = Guarded.State
module Action = Guarded.Action
module Compile = Guarded.Compile
module Closure = Explore.Closure

let identical_actions a b =
  Expr.equal (Action.guard a) (Action.guard b)
  && List.length (Action.assigns a) = List.length (Action.assigns b)
  && List.for_all2
       (fun (v1, e1) (v2, e2) -> Guarded.Var.equal v1 v2 && Expr.equal_num e1 e2)
       (Action.assigns a) (Action.assigns b)

(* How a failed obligation reads: the state, for an implication; for a
   step, "pre … -> post …" ([terse], the establishes checks) or the
   closure violation. *)
let detail env ~terse = function
  | Closure.Counterexample s ->
      Format.asprintf "counterexample %a" (State.pp env) s
  | Closure.Violation v when terse ->
      Format.asprintf "pre %a -> post %a" (State.pp env) v.pre (State.pp env)
        v.post
  | Closure.Violation v -> Format.asprintf "%a" (Closure.pp_violation env) v

let validate ~theorem ~shape_ok ~shape_want ~modulo_invariant ~check_ordering
    ~engine ~spec layers =
  let env = Spec.env spec in
  let s_pred = Spec.compile_invariant spec in
  let t_pred = Spec.compile_fault_span spec in
  let layer_arr = Array.of_list layers in
  let layer_pairs = Array.map Cgraph.pairs layer_arr in
  let all_pairs = Array.to_list layer_pairs |> Array.concat |> Array.to_list in
  let compiled_constraints =
    List.map (fun (p : Cgraph.pair) -> Constr.compile p.constr) all_pairs
  in
  let all_constraints_hold s =
    List.for_all (fun c -> c s) compiled_constraints
  in
  let closure_actions = Compile.program (Spec.program spec) in
  let conv_compiled =
    Array.map
      (fun pairs ->
        Array.map
          (fun (p : Cgraph.pair) -> Compile.action ~index:0 p.action)
          pairs)
      layer_pairs
  in
  (* H_l: fault span, all constraints of layers < l, and optionally ¬S. *)
  let hypothesis l =
    let lower =
      List.concat
        (List.init l (fun i ->
             Array.to_list layer_pairs.(i)
             |> List.map (fun (p : Cgraph.pair) -> Constr.compile p.constr)))
    in
    fun s ->
      t_pred s
      && List.for_all (fun c -> c s) lower
      && ((not modulo_invariant) || not (s_pred s))
  in
  (* Every check is a function of the one scan's witnesses: a shape is
     finished already, an obligation reads its own entry. *)
  let checks = ref [] and obligations = ref [] and next = ref 0 in
  let add c = checks := (fun _ -> c) :: !checks in
  let oblige ?(terse = false) label ob =
    let i = !next in
    incr next;
    obligations := ob :: !obligations;
    checks :=
      (fun found ->
        match found.(i) with
        | None -> Certify.check_pass label
        | Some w -> Certify.check_fail label ~detail:(detail env ~terse w))
      :: !checks
  in
  (* ∀s: hyp s ⟹ conc s *)
  let implication label ~hyp ~conc =
    oblige label (Closure.Implies { hyp; conc })
  in
  (* ∀s: under s ∧ pred s ∧ enabled s ⟹ pred s' *)
  let preserves ?(under = fun _ -> true) label ca ~pred =
    oblige label
      (Closure.Step
         {
           pre = (fun s -> under s && pred s);
           action = ca;
           post = (fun _ s' -> pred s');
         })
  in
  (* ∀s: under s ∧ enabled s ⟹ pred s' *)
  let establishes label ~under ca ~pred =
    oblige ~terse:true label
      (Closure.Step { pre = under; action = ca; post = (fun _ s' -> pred s') })
  in
  (* Sanity. *)
  implication "S implies T" ~hyp:s_pred ~conc:t_pred;
  implication "T and all constraints imply S"
    ~hyp:(fun s -> t_pred s && all_constraints_hold s)
    ~conc:s_pred;
  (* Candidate triple: closure actions preserve S and T. *)
  Array.iter
    (fun (ca : Compile.action) ->
      let n = Action.name ca.source in
      preserves (Printf.sprintf "closure %s preserves S" n) ca ~pred:s_pred;
      preserves (Printf.sprintf "closure %s preserves T" n) ca ~pred:t_pred)
    closure_actions.Compile.actions;
  (* Convergence-action form, per layer. *)
  Array.iteri
    (fun l pairs ->
      let h = hypothesis l in
      Array.iteri
        (fun i (p : Cgraph.pair) ->
          let ca = conv_compiled.(l).(i) in
          let cname = Constr.name p.constr in
          let aname = Action.name p.action in
          let c = Constr.compile p.constr in
          preserves
            (Printf.sprintf "convergence %s preserves T" aname)
            ca ~pred:t_pred;
          preserves
            (Printf.sprintf "convergence %s preserves S" aname)
            ca ~pred:s_pred;
          implication
            (Printf.sprintf "%s enabled only when %s violated" aname cname)
            ~hyp:(fun s -> h s && ca.enabled s)
            ~conc:(fun s -> not (c s));
          implication
            (Printf.sprintf "%s enabled whenever %s violated" aname cname)
            ~hyp:(fun s -> h s && not (c s))
            ~conc:ca.enabled;
          establishes
            (Printf.sprintf "%s establishes %s" aname cname)
            ~under:h ca ~pred:c)
        pairs)
    layer_pairs;
  (* Shapes. *)
  let shapes =
    Array.to_list
      (Array.mapi
         (fun l g ->
           let shape = Cgraph.shape g in
           let label =
             if Array.length layer_arr = 1 then "q"
             else Printf.sprintf "layer %d" l
           in
           if not (shape_ok shape) then
             add
               (Certify.check_fail
                  (Printf.sprintf "constraint graph of %s is %s" label
                     shape_want)
                  ~detail:
                    (Printf.sprintf "graph is %s"
                       (Dgraph.Classify.shape_to_string shape)))
           else
             add
               (Certify.check_pass
                  (Printf.sprintf "constraint graph of %s is %s" label
                     (Dgraph.Classify.shape_to_string shape)));
           (label, shape))
         layer_arr)
  in
  (* Preservation of layer-l constraints by closure actions (with the
     identical-action exemption) and by higher-layer convergence actions. *)
  Array.iteri
    (fun l pairs ->
      let h = hypothesis l in
      Array.iter
        (fun (p : Cgraph.pair) ->
          let cname = Constr.name p.constr in
          let c = Constr.compile p.constr in
          Array.iter
            (fun (ca : Compile.action) ->
              let exempt =
                List.exists
                  (fun l' ->
                    l' <= l
                    && Array.exists
                         (fun (q : Cgraph.pair) ->
                           identical_actions ca.source q.action)
                         layer_pairs.(l'))
                  (List.init (Array.length layer_arr) Fun.id)
              in
              if not exempt then
                preserves
                  (Printf.sprintf "closure %s preserves %s under H_%d"
                     (Action.name ca.source) cname l)
                  ~under:h ca ~pred:c)
            closure_actions.Compile.actions;
          for l' = l + 1 to Array.length layer_arr - 1 do
            Array.iteri
              (fun i' (q : Cgraph.pair) ->
                preserves
                  (Printf.sprintf
                     "convergence %s (layer %d) preserves %s (layer %d)"
                     (Action.name q.action) l' cname l)
                  ~under:h
                  conv_compiled.(l').(i')
                  ~pred:c)
              layer_pairs.(l')
          done)
        pairs)
    layer_pairs;
  (* Per-node ordering within each layer. *)
  if check_ordering then
    Array.iteri
      (fun l g ->
        let h = hypothesis l in
        let pairs = Cgraph.pairs g in
        let n_pairs = Array.length pairs in
        for i = 0 to n_pairs - 1 do
          for k = i + 1 to n_pairs - 1 do
            let _, dst_i = Cgraph.edge_of_pair g i in
            let _, dst_k = Cgraph.edge_of_pair g k in
            if dst_i = dst_k then
              preserves
                (Printf.sprintf "ordering: %s preserves %s (same target node)"
                   (Action.name pairs.(k).action)
                   (Constr.name pairs.(i).constr))
                ~under:h
                conv_compiled.(l).(k)
                ~pred:(Constr.compile pairs.(i).constr)
          done
        done)
      layer_arr;
  let found = Closure.scan engine (Array.of_list (List.rev !obligations)) in
  {
    Certify.theorem =
      (if modulo_invariant then theorem ^ " (modulo invariant)" else theorem);
    spec_name = Spec.name spec;
    shapes;
    checks = List.rev_map (fun check -> check found) !checks;
    summary = None;
  }

let validate_theorem1 ~engine ~spec ~cgraph =
  validate ~theorem:"Theorem 1"
    ~shape_ok:(fun s -> s = Dgraph.Classify.Out_tree)
    ~shape_want:"an out-tree" ~modulo_invariant:false ~check_ordering:false
    ~engine ~spec [ cgraph ]

let validate_theorem2 ~engine ~spec ~cgraph =
  validate ~theorem:"Theorem 2"
    ~shape_ok:(fun s -> s <> Dgraph.Classify.Cyclic)
    ~shape_want:"self-looping" ~modulo_invariant:false ~check_ordering:true
    ~engine ~spec [ cgraph ]

let validate_theorem3 ?(modulo_invariant = false) ~engine ~spec layers =
  validate ~theorem:"Theorem 3"
    ~shape_ok:(fun s -> s <> Dgraph.Classify.Cyclic)
    ~shape_want:"self-looping" ~modulo_invariant ~check_ordering:true ~engine
    ~spec layers

let augmented_program spec layers =
  let closure = Guarded.Program.actions (Spec.program spec) in
  let is_closure a =
    Array.exists (fun b -> identical_actions a b) closure
  in
  let extra =
    List.concat_map
      (fun g ->
        Array.to_list (Cgraph.pairs g)
        |> List.filter_map (fun (p : Cgraph.pair) ->
               if is_closure p.action then None else Some p.action))
      layers
  in
  Guarded.Program.add_actions (Spec.program spec) extra
