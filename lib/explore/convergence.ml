module State = Guarded.State
module Compile = Guarded.Compile

type stats = {
  region_states : int;
  explored : int;
  worst_case_steps : int option;
}

type failure =
  | Deadlock of Guarded.State.t
  | Livelock of Guarded.State.t list

type verdict =
  | Converges of stats
  | Fails of failure
  | Unknown of Guarded.State.t list

(* First terminal member of the region, scanning with early exit. *)
let find_deadlock engine (region : Engine.region) =
  let n = Array.length region.node_key in
  let rec go i =
    if i >= n then None
    else if region.terminal.(i) then
      Some (Deadlock (Engine.decode_key engine region.node_key.(i)))
    else go (i + 1)
  in
  go 0

(* The exact unfair analysis of an already-built region: converges iff no
   member is terminal and the member graph is acyclic. One Kahn pass both
   decides acyclicity and yields the longest paths; the cycle search runs
   only when a livelock witness must be named. Both poll the engine's
   guard. *)
let analyze_unfair engine (region : Engine.region) =
  match find_deadlock engine region with
  | Some f -> Error f
  | None -> (
      let poll = Engine.analysis_poll engine ~explored:region.explored in
      match Dgraph.Topo.longest_path_lengths ?poll region.graph with
      | Some dist ->
          let region_states = Array.length region.node_key in
          let worst =
            if region_states = 0 then 0 else Array.fold_left max 0 dist + 1
          in
          Ok
            {
              region_states;
              explored = region.explored;
              worst_case_steps = Some worst;
            }
      | None ->
          let nodes =
            match Dgraph.Topo.find_cycle ?poll region.graph with
            | Some nodes -> nodes
            | None -> assert false (* cyclic: Kahn could not order it *)
          in
          Error
            (Livelock
               (List.map
                  (fun v -> Engine.decode_key engine region.node_key.(v))
                  nodes)))

let check_unfair ?resume engine cp ~from ~target =
  analyze_unfair engine (Engine.region ?resume engine cp ~from ~target)

(* Weak-fairness escape criterion for one SCC: an action enabled at every
   state of the component whose execution always leaves the component.
   One stepper serves all (node, action) pairs. *)
let scc_has_uniform_exit engine cp (region : Engine.region)
    (scc : Dgraph.Scc.t) comp members =
  let st = Engine.stepper engine in
  let buf = Engine.stepper_state st in
  let in_same_component node =
    node >= 0 && scc.Dgraph.Scc.component.(node) = comp
  in
  let action_works (ca : Compile.action) =
    List.for_all
      (fun node ->
        Engine.load st region.node_key.(node);
        ca.enabled buf
        && not (in_same_component (region.node_of_key (Engine.step st ca))))
      members
  in
  Array.exists action_works cp.Compile.actions

let check_fair engine cp ~from ~target =
  let region = Engine.region engine cp ~from ~target in
  match analyze_unfair engine region with
  | Ok stats -> Converges stats
  | Error (Deadlock _ as f) -> Fails f
  | Error (Livelock _) -> (
      let scc =
        Dgraph.Scc.compute
          ?poll:(Engine.analysis_poll engine ~explored:region.explored)
          region.graph
      in
      let bad = ref None in
      (try
         for comp = 0 to scc.Dgraph.Scc.count - 1 do
           let members = scc.Dgraph.Scc.members.(comp) in
           let nontrivial =
             match members with
             | [ v ] -> Dgraph.Digraph.has_self_loop region.graph v
             | _ -> true
           in
           if
             nontrivial
             && not (scc_has_uniform_exit engine cp region scc comp members)
           then begin
             bad := Some members;
             raise Exit
           end
         done
       with Exit -> ());
      match !bad with
      | Some members ->
          let sample =
            List.filteri (fun i _ -> i < 10) members
            |> List.map (fun v -> Engine.decode_key engine region.node_key.(v))
          in
          Unknown sample
      | None ->
          Converges
            {
              region_states = Array.length region.node_key;
              explored = region.explored;
              worst_case_steps = None;
            })

let pp_failure env ppf = function
  | Deadlock s ->
      Format.fprintf ppf "@[<v>deadlock outside target at %a@]" (State.pp env)
        s
  | Livelock states ->
      Format.fprintf ppf "@[<v>livelock outside target:@,%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut (State.pp env))
        states

let pp_verdict env ppf = function
  | Converges { region_states; worst_case_steps; _ } ->
      Format.fprintf ppf "converges (region %d states%s)" region_states
        (match worst_case_steps with
        | Some w -> Printf.sprintf ", worst case %d steps" w
        | None -> ", fair only")
  | Fails f -> pp_failure env ppf f
  | Unknown _ -> Format.pp_print_string ppf "unknown (fair criterion failed)"
