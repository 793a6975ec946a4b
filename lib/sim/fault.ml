module State = Guarded.State
module Var = Guarded.Var
module Domain = Guarded.Domain
module Env = Guarded.Env
module Action = Guarded.Action
module Expr = Guarded.Expr

type t = {
  name : string;
  inject : Prng.t -> Guarded.State.t -> unit;
  actions : Guarded.Action.t list Lazy.t;
  burst : int;
}

let actions t = Lazy.force t.actions
let burst t = t.burst

let random_value rng domain =
  match (domain : Domain.t) with
  | Bool -> Prng.int rng 2
  | Range { lo; hi } -> Prng.int_in rng lo hi
  | Enum { labels; _ } -> Prng.int rng (Array.length labels)

(* One action per (variable, value) pair: [fault:v:=x] with guard [v <> x],
   so every fault step changes the state (the no-op perturbation is already
   covered by taking fewer steps). *)
let assign_actions vars =
  List.concat_map
    (fun v ->
      let d = Var.domain v in
      List.map
        (fun x ->
          Action.make
            ~name:
              (Printf.sprintf "fault:%s:=%s" (Var.name v)
                 (Domain.value_to_string d x))
            ~guard:Expr.(var v <> int x)
            [ (v, Expr.int x) ])
        (Domain.values d))
    (Array.to_list vars)

let corrupt_of_array name vars ~k =
  {
    name;
    inject =
      (fun rng s ->
        let n = Array.length vars in
        let k = min k n in
        let picks = Prng.sample_without_replacement rng k n in
        Array.iter
          (fun i ->
            let v = vars.(i) in
            State.set s v (random_value rng (Var.domain v)))
          picks);
    actions = lazy (assign_actions vars);
    burst = min k (Array.length vars);
  }

let corrupt env ~k =
  corrupt_of_array (Printf.sprintf "corrupt-%d" k) (Env.vars env) ~k

let corrupt_vars vars ~k =
  corrupt_of_array
    (Printf.sprintf "corrupt-%d-of-%d" k (List.length vars))
    (Array.of_list vars) ~k

let scramble env =
  let vars = Env.vars env in
  {
    name = "scramble";
    inject =
      (fun rng s ->
        Array.iter
          (fun v -> State.set s v (random_value rng (Var.domain v)))
          vars);
    actions = lazy (assign_actions vars);
    burst = Array.length vars;
  }

let reset_vars bindings =
  {
    name = "reset";
    inject = (fun _ s -> List.iter (fun (v, x) -> State.set s v x) bindings);
    actions =
      lazy
        [
          Action.make ~name:"fault:reset"
            ~guard:
              (Expr.not_
                 (Expr.conj
                    (List.map (fun (v, x) -> Expr.(var v = int x)) bindings)))
            (List.map (fun (v, x) -> (v, Expr.int x)) bindings);
        ];
    burst = 1;
  }

let compose name faults =
  {
    name;
    inject = (fun rng s -> List.iter (fun f -> f.inject rng s) faults);
    actions =
      lazy
        (let seen = Hashtbl.create 16 in
         List.concat_map
           (fun f ->
             List.filter
               (fun a ->
                 let n = Action.name a in
                 if Hashtbl.mem seen n then false
                 else begin
                   Hashtbl.add seen n ();
                   true
                 end)
               (Lazy.force f.actions))
           faults);
    burst = List.fold_left (fun acc f -> acc + f.burst) 0 faults;
  }

let of_actions name ~burst actions =
  {
    name;
    inject =
      (fun rng s ->
        (try
           for _ = 1 to burst do
             match List.filter (fun a -> Action.enabled a s) actions with
             | [] -> raise Exit
             | enabled ->
                 let a = Prng.pick_list rng enabled in
                 State.blit ~src:(Action.execute a s) ~dst:s
           done
         with Exit -> ()));
    actions = lazy actions;
    burst;
  }

let spec_syntax = "corrupt | corrupt:k=N | scramble"

let of_spec env spec =
  match String.split_on_char ':' spec with
  | [ "corrupt" ] -> Some (corrupt env ~k:1)
  | [ "corrupt"; ks ] -> (
      match String.split_on_char '=' ks with
      | [ "k"; n ] -> (
          match int_of_string_opt n with
          | Some k when k > 0 -> Some (corrupt env ~k)
          | _ -> None)
      | _ -> None)
  | [ "scramble" ] -> Some (scramble env)
  | _ -> None

let resolve env ~spec ~declared =
  match (spec, declared) with
  | Some s, _ -> (
      match of_spec env s with Some f -> Ok (Some f) | None -> Error s)
  | None, [] -> Ok None
  | None, acts -> Ok (Some (of_actions "declared faults" ~burst:1 acts))

let resolve_or_corrupt env ~spec ~declared =
  Result.map
    (function Some f -> f | None -> corrupt env ~k:1)
    (resolve env ~spec ~declared)

let pp ppf f = Format.pp_print_string ppf f.name
