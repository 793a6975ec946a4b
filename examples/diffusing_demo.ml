(* Stabilizing diffusing computation (Section 5.1 of the paper) on a
   binary tree: certify the design with Theorem 1, watch a healthy wave,
   then corrupt every node and watch the protocol heal itself.

   Run with: dune exec examples/diffusing_demo.exe *)

module Tree = Topology.Tree
module State = Guarded.State
module Diffusing = Protocols.Diffusing

let pp_wave d ppf s =
  let tree = Diffusing.tree d in
  List.iter
    (fun j ->
      let c = State.get s (Diffusing.color d j) in
      let sn = State.get s (Diffusing.session d j) in
      Format.fprintf ppf "%s%d " (if c = Diffusing.red then "R" else "g") sn)
    (Tree.nodes tree)

let () =
  let tree = Tree.balanced ~arity:2 7 in
  let d = Diffusing.make tree in
  let env = Diffusing.env d in
  Format.printf "Tree: %a@." Tree.pp tree;
  Format.printf "The paper's program:@.%a@.@." Guarded.Program.pp
    (Diffusing.combined d);

  (* Theorem 1 certificate (exhaustive over all 4^7 = 16384 states). *)
  let engine = Explore.Engine.create env in
  let cert = Diffusing.certificate ~engine d in
  Format.printf "%a@." Nonmask.Certify.pp cert;

  (* A healthy wave from all-green: red propagates to the leaves and green
     reflects back to the root. *)
  let cp = Guarded.Compile.program (Diffusing.combined d) in
  let daemon = Sim.Daemon.round_robin () in
  let init = Diffusing.all_green d in
  let root = Tree.root tree in
  let sn0 = State.get init (Diffusing.session d root) in
  Format.printf "@.Healthy wave (node colors, g=green R=red, with session \
                 bits):@.";
  let state = ref init in
  let steps = ref 0 in
  let finished s =
    State.get s (Diffusing.color d root) = Diffusing.green
    && State.get s (Diffusing.session d root) <> sn0
  in
  while not (finished !state) && !steps < 100 do
    Format.printf "  %2d: %a@." !steps (pp_wave d) !state;
    let o =
      Sim.Runner.run ~max_steps:1 ~daemon ~init:!state ~stop:(fun _ -> false)
        cp
    in
    state := o.Sim.Runner.final;
    incr steps
  done;
  Format.printf "  %2d: %a  <- wave complete@." !steps (pp_wave d) !state;

  (* Catastrophic corruption: scramble every node, then watch recovery. *)
  let rng = Prng.create 7 in
  let fault = Sim.Fault.scramble env in
  let init = Diffusing.all_green d in
  fault.Sim.Fault.inject rng init;
  Format.printf "@.Scrambled state : %a (%d constraints violated)@."
    (pp_wave d) init (Diffusing.violated d init);
  let outcome =
    Sim.Runner.run ~record_trace:true
      ~daemon:(Sim.Daemon.random rng)
      ~init
      ~stop:(fun s -> Diffusing.invariant d s)
      cp
  in
  (match outcome.Sim.Runner.trace with
  | Some t ->
      List.iteri
        (fun i s ->
          Format.printf "  %2d: %a (%d violated)@." i (pp_wave d) s
            (Diffusing.violated d s))
        (Sim.Trace.states t)
  | None -> ());
  Format.printf "Recovered to the invariant in %d steps.@."
    outcome.Sim.Runner.steps;

  (* Batch statistics across many scrambles. *)
  let result =
    Sim.Storm.trials ~rng:(Prng.create 99) ~trials:500
      ~daemon:(fun r -> Sim.Daemon.random r)
      ~prepare:(fun r ->
        let s = Diffusing.all_green d in
        fault.Sim.Fault.inject r s;
        s)
      ~stop:(fun s -> Diffusing.invariant d s)
      ~fault ~rate:0. cp
  in
  Format.printf "@.500 scrambled trials: %a@." Sim.Storm.pp_result result
