module Closure = Explore.Closure

type step_result = {
  label : string;
  contained : bool;
  closed : (unit, Explore.Closure.violation) result;
  converges : (Explore.Convergence.stats, Explore.Convergence.failure) result;
}

type t = { spec_name : string; steps : step_result list }

let step_ok s =
  s.contained
  && (match s.closed with Ok () -> true | Error _ -> false)
  && match s.converges with Ok _ -> true | Error _ -> false

let ok t = List.for_all step_ok t.steps

let validate ~engine ~program ~name preds =
  if List.length preds < 2 then
    invalid_arg "Stair.validate: need at least R_0 and R_1";
  let cp = Guarded.Compile.program program in
  let stairs = Array.of_list preds in
  let k = Array.length stairs - 1 in
  let n = Array.length cp.actions in
  (* One scan: the containments R_{i+1} ⟹ R_i (i < k), then the closure
     of every R_i (i <= k — the bottom one, S, is the source of no step)
     as a block of one step per action. *)
  let contained =
    Array.init k (fun i ->
        Closure.Implies { hyp = snd stairs.(i + 1); conc = snd stairs.(i) })
  in
  let closes (_, p) = Array.map (Closure.preserves ~pred:p) cp.actions in
  let found =
    Closure.scan engine (Array.concat (contained :: List.map closes preds))
  in
  let closed i = Closure.first_violation (Array.sub found (k + (i * n)) n) in
  let step i =
    let la, pa = stairs.(i) and lb, pb = stairs.(i + 1) in
    {
      label = Printf.sprintf "%s -> %s" la lb;
      contained = Option.is_none found.(i);
      closed = closed i;
      converges =
        Explore.Convergence.check_unfair engine cp
          ~from:(Explore.Engine.Pred pa) ~target:pb;
    }
  in
  let bottom =
    {
      label = Printf.sprintf "%s closed" (fst stairs.(k));
      contained = true;
      closed = closed k;
      converges =
        Ok
          {
            Explore.Convergence.region_states = 0;
            explored = 0;
            worst_case_steps = Some 0;
          };
    }
  in
  { spec_name = name; steps = List.init k step @ [ bottom ] }

let pp ppf t =
  Format.fprintf ppf "@[<v>convergence stair for %s: %s@," t.spec_name
    (if ok t then "VALID" else "INVALID");
  List.iter
    (fun s ->
      Format.fprintf ppf "  [%s] %s%s%s%s@,"
        (if step_ok s then "ok" else "FAIL")
        s.label
        (if s.contained then "" else " (containment fails)")
        (match s.closed with Ok () -> "" | Error _ -> " (closure fails)")
        (match s.converges with
        | Ok { worst_case_steps = Some w; _ } ->
            Printf.sprintf " (worst %d steps)" w
        | Ok _ -> ""
        | Error _ -> " (convergence fails)"))
    t.steps;
  Format.fprintf ppf "@]"
