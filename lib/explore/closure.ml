module State = Guarded.State
module Compile = Guarded.Compile

type violation = {
  pre : Guarded.State.t;
  action : Guarded.Action.t;
  post : Guarded.State.t;
}

type obligation =
  | Implies of {
      hyp : Guarded.State.t -> bool;
      conc : Guarded.State.t -> bool;
    }
  | Step of {
      pre : Guarded.State.t -> bool;
      action : Guarded.Compile.action;
      post : Guarded.State.t -> Guarded.State.t -> bool;
    }

type witness = Counterexample of Guarded.State.t | Violation of violation

let pp_violation env ppf v =
  Format.fprintf ppf "@[<v>action %s violates the predicate:@,pre  = %a@,post = %a@]"
    (Guarded.Action.name v.action) (State.pp env) v.pre (State.pp env) v.post

(* [s] as a witness of [ob], if it is one; a step fires into [post]. *)
let witness_at ob s post =
  match ob with
  | Implies { hyp; conc } ->
      if hyp s && not (conc s) then Some (Counterexample (State.copy s))
      else None
  | Step { pre; action; post = ok } ->
      if not (pre s && action.enabled s) then None
      else begin
        action.apply_into s post;
        if ok s post then None
        else
          let post = State.copy post in
          Some (Violation { pre = State.copy s; action = action.source; post })
      end

(* A chunk lists each open obligation's first witness in it; the fold
   keeps the earliest chunk's. *)
let scan ?(over = Engine.Whole_space) engine obligations =
  let found = Array.map (fun _ -> None) obligations in
  let k = Array.length obligations in
  let rec visit post s i chunk =
    if i = k then chunk
    else if
      Option.is_some found.(i) || (chunk != [] && List.mem_assoc i chunk)
    then visit post s (i + 1) chunk
    else
      match witness_at obligations.(i) s post with
      | None -> visit post s (i + 1) chunk
      | Some w -> visit post s (i + 1) ((i, w) :: chunk)
  in
  let fold n (i, w) =
    if Option.is_some found.(i) then n
    else begin
      found.(i) <- Some w;
      n - 1
    end
  in
  if k > 0 then
    ignore
      (Engine.sweep engine over
         ~scratch:(fun () -> State.make (Engine.env engine))
         ~visit:(fun post st _ -> visit post (Engine.stepper_state st) 0)
         ~empty:[] ~fold:(List.fold_left fold) ~stop:(( = ) 0) k);
  found

let preserves ~pred (action : Compile.action) =
  Step { pre = pred; action; post = (fun _ s' -> pred s') }

let first_violation found =
  match Array.find_map Fun.id found with
  | Some (Violation v) -> Error v
  | Some (Counterexample _) -> invalid_arg "Closure.first_violation"
  | None -> Ok ()

let program_closed engine (cp : Compile.program) ~pred =
  first_violation (scan engine (Array.map (preserves ~pred) cp.actions))
