module State = Guarded.State
module Var = Guarded.Var
module Compile = Guarded.Compile
module Space = Explore.Space
module Engine = Explore.Engine

type failure =
  | Unsimulated_step of {
      action : string;
      pre : Guarded.State.t;
      post : Guarded.State.t;
    }
  | Invariant_mismatch of Guarded.State.t
  | Stutter_divergence of Guarded.State.t list

type t = {
  abstract_name : string;
  concrete_name : string;
  stutter_steps : int;
  simulated_steps : int;
  result : (unit, failure) result;
}

let ok t = match t.result with Ok () -> true | Error _ -> false

(* steps counted and the first failure, over a run of states *)
type tally = { stutter : int; simulated : int; failure : failure option }

let no_steps = { stutter = 0; simulated = 0; failure = None }

let check ?(within = fun _ -> true) ~abstract_env ~engine ~abstract_program
    ~concrete_program ~projection ~abstract_invariant ~concrete_invariant () =
  let abs_env = abstract_env in
  let abs_vars = Guarded.Env.vars abs_env in
  Array.iter
    (fun av ->
      match List.find_opt (fun (a, _) -> Var.equal a av) projection with
      | None ->
          invalid_arg
            (Printf.sprintf "Refine.check: abstract variable %s not projected"
               (Var.name av))
      | Some (a, c) ->
          if not (Guarded.Domain.equal (Var.domain a) (Var.domain c)) then
            invalid_arg
              (Printf.sprintf "Refine.check: domain mismatch on %s"
                 (Var.name a)))
    abs_vars;
  let project conc =
    State.init abs_env (fun av ->
        let _, cv = List.find (fun (a, _) -> Var.equal a av) projection in
        State.get conc cv)
  in
  let abs_actions =
    Array.map
      (fun a -> Compile.action ~index:0 a)
      (Guarded.Program.actions abstract_program)
  in
  let conc_cp = Compile.program concrete_program in
  (* 1 + 2: simulation and invariant agreement over every concrete
     state. A chunk counts up to its first failure, and the fold adds
     chunks in id order up to the first that fails: what one id-order
     loop stopping at the first failure counts. *)
  let step cs abs_pre conc_post (t : tally) (ca : Compile.action) =
    if Option.is_some t.failure || not (ca.enabled cs) then t
    else begin
      ca.apply_into cs conc_post;
      let abs_post = project conc_post in
      if State.equal abs_pre abs_post then { t with stutter = t.stutter + 1 }
      else if
        Array.exists
          (fun (aa : Compile.action) ->
            aa.enabled abs_pre && State.equal (aa.apply abs_pre) abs_post)
          abs_actions
      then { t with simulated = t.simulated + 1 }
      else
        let action = Guarded.Action.name ca.source in
        let pre = State.copy cs and post = State.copy conc_post in
        { t with failure = Some (Unsimulated_step { action; pre; post }) }
    end
  in
  let visit conc_post st _ (t : tally) =
    let cs = Engine.stepper_state st in
    if Option.is_some t.failure || not (within cs) then t
    else
      let abs_pre = project cs in
      if concrete_invariant cs <> abstract_invariant abs_pre then
        { t with failure = Some (Invariant_mismatch (State.copy cs)) }
      else
        Array.fold_left (step cs abs_pre conc_post) t conc_cp.Compile.actions
  in
  let tally =
    Engine.sweep engine Engine.Whole_space
      ~scratch:(fun () -> State.make (Engine.env engine))
      ~visit ~empty:no_steps
      ~fold:(fun acc c ->
        if Option.is_some acc.failure then acc
        else
          {
            stutter = acc.stutter + c.stutter;
            simulated = acc.simulated + c.simulated;
            failure = c.failure;
          })
      ~stop:(fun t -> Option.is_some t.failure)
      no_steps
  in
  (* 3: no stutter cycles outside the concrete invariant. The region of
     states where [within ∧ ¬invariant] holds, restricted to stutter edges
     (projected pre = projected post), must be acyclic. *)
  let stutter_cycle () =
    let region =
      Engine.region engine conc_cp ~from:Engine.All
        ~target:(fun s -> (not (within s)) || concrete_invariant s)
    in
    let abs_of =
      Array.map
        (fun key -> project (Engine.decode_key engine key))
        region.Engine.node_key
    in
    let stutters (e : _ Dgraph.Digraph.edge) =
      State.equal abs_of.(e.src) abs_of.(e.dst)
    in
    let g = Dgraph.Digraph.filter_edges stutters region.Engine.graph in
    match Dgraph.Topo.find_cycle g with
    | Some cycle ->
        Error
          (Stutter_divergence
             (List.map (Engine.state_of_node engine region) cycle))
    | None -> Ok ()
  in
  {
    abstract_name = Guarded.Program.name abstract_program;
    concrete_name = Guarded.Program.name concrete_program;
    stutter_steps = tally.stutter;
    simulated_steps = tally.simulated;
    result =
      (match tally.failure with Some f -> Error f | None -> stutter_cycle ());
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>refinement %s -> %s: %s (%d simulated steps, %d stutters)%s@]"
    t.concrete_name t.abstract_name
    (if ok t then "VALID" else "INVALID")
    t.simulated_steps t.stutter_steps
    (match t.result with
    | Ok () -> ""
    | Error (Unsimulated_step { action; _ }) ->
        Printf.sprintf "\n  unsimulated step by %s" action
    | Error (Invariant_mismatch _) -> "\n  invariant mismatch"
    | Error (Stutter_divergence c) ->
        Printf.sprintf "\n  stutter divergence (cycle of %d)" (List.length c))
