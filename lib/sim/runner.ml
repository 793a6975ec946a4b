module State = Guarded.State
module Compile = Guarded.Compile

type stop_reason = Target_reached | Terminal | Budget_exhausted

type outcome = {
  reason : stop_reason;
  steps : int;
  final : Guarded.State.t;
  trace : Trace.t option;
}

let converged o = o.reason = Target_reached

(* Simultaneous execution: evaluate all chosen actions against the same
   pre-state. The daemon guarantees non-interference, so the writes
   commute. *)
let step_chosen (cp : Compile.program) chosen ~state ~scratch =
  match chosen with
  | [ a ] ->
      cp.actions.(a).apply_into state scratch;
      State.blit ~src:scratch ~dst:state
  | _ ->
      State.blit ~src:state ~dst:scratch;
      List.iter
        (fun a ->
          let post = cp.actions.(a).apply state in
          (* copy only the variables this action writes *)
          Guarded.Var.Set.iter
            (fun v ->
              State.set_index scratch (Guarded.Var.index v)
                (State.get_index post (Guarded.Var.index v)))
            (Guarded.Action.writes cp.actions.(a).source))
        chosen;
      State.blit ~src:scratch ~dst:state

let run ?(record_trace = false) ?(max_steps = 100_000) ~daemon ~init ~stop
    (cp : Compile.program) =
  let state = State.copy init in
  let scratch = State.copy init in
  let trace = if record_trace then Some (Trace.create init) else None in
  let rec loop steps =
    if stop state then { reason = Target_reached; steps; final = state; trace }
    else if steps >= max_steps then
      { reason = Budget_exhausted; steps; final = state; trace }
    else
      match Compile.enabled_indices cp state with
      | [] -> { reason = Terminal; steps; final = state; trace }
      | enabled ->
          let ctx =
            { Daemon.program = cp; step = steps; state; enabled }
          in
          let chosen = daemon.Daemon.choose ctx in
          step_chosen cp chosen ~state ~scratch;
          (match trace with
          | Some t ->
              let names =
                List.map
                  (fun a -> Guarded.Action.name cp.actions.(a).source)
                  chosen
              in
              Trace.record t ~actions:names state
          | None -> ());
          loop (steps + 1)
  in
  loop 0
