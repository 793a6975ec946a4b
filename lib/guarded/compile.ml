type guard = State.t -> bool

type action = {
  index : int;
  source : Action.t;
  enabled : guard;
  slots : int array;
  rhs : (State.t -> int) array;
  apply : State.t -> State.t;
  apply_into : State.t -> State.t -> unit;
}

type program = { source : Program.t; actions : action array }

let rec num (e : Expr.num) : State.t -> int =
  match e with
  | Const n -> fun _ -> n
  | Var v ->
      let i = Var.index v in
      fun s -> State.get_index s i
  | Neg a ->
      let fa = num a in
      fun s -> -fa s
  | Add (a, b) ->
      let fa = num a and fb = num b in
      fun s -> fa s + fb s
  | Sub (a, b) ->
      let fa = num a and fb = num b in
      fun s -> fa s - fb s
  | Mul (a, b) ->
      let fa = num a and fb = num b in
      fun s -> fa s * fb s
  | Div (a, b) ->
      let fa = num a and fb = num b in
      fun s -> fa s / fb s
  | Mod (a, b) ->
      let fa = num a and fb = num b in
      fun s -> fa s mod fb s
  | Min (a, b) ->
      let fa = num a and fb = num b in
      fun s -> min (fa s) (fb s)
  | Max (a, b) ->
      let fa = num a and fb = num b in
      fun s -> max (fa s) (fb s)
  | Ite (c, a, b) ->
      let fc = pred c and fa = num a and fb = num b in
      fun s -> if fc s then fa s else fb s

and pred (b : Expr.boolean) : guard =
  match b with
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (c, x, y) -> (
      let fx = num x and fy = num y in
      match c with
      | Eq -> fun s -> fx s = fy s
      | Ne -> fun s -> fx s <> fy s
      | Lt -> fun s -> fx s < fy s
      | Le -> fun s -> fx s <= fy s
      | Gt -> fun s -> fx s > fy s
      | Ge -> fun s -> fx s >= fy s)
  | Not inner ->
      let f = pred inner in
      fun s -> not (f s)
  | And (x, y) ->
      let fx = pred x and fy = pred y in
      fun s -> fx s && fy s
  | Or (x, y) ->
      let fx = pred x and fy = pred y in
      fun s -> fx s || fy s
  | Implies (x, y) ->
      let fx = pred x and fy = pred y in
      fun s -> (not (fx s)) || fy s
  | Iff (x, y) ->
      let fx = pred x and fy = pred y in
      fun s -> fx s = fy s

let action ~index (a : Action.t) : action =
  let enabled = pred (Action.guard a) in
  let assigns = Array.of_list (Action.assigns a) in
  let slots = Array.map (fun (v, _) -> Var.index v) assigns in
  let rhs =
    Array.map
      (fun (v, e) ->
        let f = num e and d = Var.domain v in
        (* every domain is the interval [first, first + size - 1] *)
        let lo = Domain.first d in
        let hi = lo + Domain.size d - 1 in
        fun s ->
          let x = f s in
          if x < lo || x > hi then raise (State.Domain_violation (v, x));
          x)
      assigns
  in
  (* [src] and [dst] never alias, so each right-hand side still reads the
     pre-state: the assignment stays simultaneous *)
  let write src dst =
    for k = 0 to Array.length slots - 1 do
      State.set_index dst slots.(k) (rhs.(k) src)
    done
  in
  let apply_into src dst =
    State.blit ~src ~dst;
    write src dst
  in
  let apply src =
    let dst = State.copy src in
    write src dst;
    dst
  in
  { index; source = a; enabled; slots; rhs; apply; apply_into }

let program (p : Program.t) : program =
  let actions =
    Array.mapi (fun index a -> action ~index a) (Program.actions p)
  in
  { source = p; actions }

let enabled_indices cp s =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if cp.actions.(i).enabled s then i :: acc else acc)
  in
  go (Array.length cp.actions - 1) []

let any_enabled cp s = Array.exists (fun a -> a.enabled s) cp.actions
