(* Stabilizing token rings (Section 7.1 of the paper).

   Certifies the paper's layered design with Theorem 3 (and shows why the
   literal reading of its antecedents fails), then runs Dijkstra's
   classical wrap-around variant: token circulation, fault injection, and
   recovery under different daemons.

   Run with: dune exec examples/token_ring_demo.exe *)

module State = Guarded.State
module Token_ring = Protocols.Token_ring
module Dijkstra_ring = Protocols.Dijkstra_ring

let () =
  (* The paper's derivation, machine-checked. *)
  let tr = Token_ring.make ~nodes:4 ~k:5 in
  Format.printf "The paper's program (bounded window):@.%a@.@."
    Guarded.Program.pp (Token_ring.combined tr);
  let engine = Explore.Engine.create (Token_ring.env tr) in
  Format.printf "%a@." Nonmask.Certify.pp (Token_ring.certificate ~engine tr);
  let strict = Token_ring.certificate_strict ~engine tr in
  Format.printf
    "Literal reading of Theorem 3 valid? %b — the token-passing closure \
     action violates second-layer constraints; the paper's own remarks \
     resolve this (see DESIGN.md).@.@."
    (Nonmask.Certify.ok strict);

  (* Dijkstra's K-state ring: watch the privileges. *)
  let n = 6 in
  let dr = Dijkstra_ring.make ~nodes:n ~k:(n + 1) in
  let env = Dijkstra_ring.env dr in
  let cp = Guarded.Compile.program (Dijkstra_ring.program dr) in
  let pp_ring ppf s =
    let privileged = Dijkstra_ring.privileged dr s in
    List.iter
      (fun j ->
        Format.fprintf ppf "%s%d%s "
          (if List.mem j privileged then "[" else " ")
          (State.get s (Dijkstra_ring.x dr j))
          (if List.mem j privileged then "]" else " "))
      (Topology.Ring.nodes (Dijkstra_ring.ring dr))
  in
  Format.printf "Dijkstra ring, %d nodes (privileged in brackets):@." n;
  let daemon = Sim.Daemon.round_robin () in
  let state = ref (Dijkstra_ring.all_zero dr) in
  for step = 0 to 9 do
    Format.printf "  %2d: %a@." step pp_ring !state;
    let o =
      Sim.Runner.run ~max_steps:1 ~daemon ~init:!state ~stop:(fun _ -> false)
        cp
    in
    state := o.Sim.Runner.final
  done;

  (* Inject a fault that creates several privileges, then recover. *)
  let rng = Prng.create 2026 in
  let fault = Sim.Fault.corrupt env ~k:3 in
  fault.Sim.Fault.inject rng !state;
  Format.printf "@.After corrupting 3 nodes: %a (%d privileges)@." pp_ring
    !state
    (Dijkstra_ring.privilege_count dr !state);
  let steps = ref 0 in
  while not (Dijkstra_ring.invariant dr !state) && !steps < 100 do
    let o =
      Sim.Runner.run ~max_steps:1
        ~daemon:(Sim.Daemon.random rng)
        ~init:!state ~stop:(fun _ -> false) cp
    in
    state := o.Sim.Runner.final;
    incr steps;
    Format.printf "  %2d: %a (%d privileges)@." !steps pp_ring !state
      (Dijkstra_ring.privilege_count dr !state)
  done;
  Format.printf "Back to exactly one privilege after %d steps.@.@." !steps;

  (* Daemon comparison on recovery times. *)
  Format.printf "Recovery steps from 3-node corruption (500 trials each):@.";
  List.iter
    (fun (name, daemon) ->
      let result =
        Sim.Storm.trials ~rng:(Prng.create 7) ~trials:500 ~daemon
          ~prepare:(fun r ->
            let s = Dijkstra_ring.all_zero dr in
            fault.Sim.Fault.inject r s;
            s)
          ~stop:(fun s -> Dijkstra_ring.invariant dr s)
          ~fault ~rate:0. cp
      in
      Format.printf "  %-14s %a@." name Sim.Storm.pp_result result)
    [
      ("random", fun r -> Sim.Daemon.random r);
      ("round-robin", fun _ -> Sim.Daemon.round_robin ());
      ("first-enabled", fun _ -> Sim.Daemon.first_enabled);
      ( "adversarial",
        fun _ ->
          Sim.Daemon.greedy ~name:"max-privileges" (fun s ->
              Dijkstra_ring.privilege_count dr s) );
    ]
