type t = {
  budget : Budget.t;
  cancel : Cancel.t option;  (* owned: marked when this guard's budget trips *)
  link : Cancel.t option;  (* observed only: a parent's token, never marked *)
  active : bool;
}

let inert =
  { budget = Budget.unlimited; cancel = None; link = None; active = false }

let create ?(budget = Budget.unlimited) ?cancel ?link () =
  let active =
    cancel <> None || link <> None || not (Budget.is_unlimited budget)
  in
  { budget; cancel; link; active }

let active t = t.active
let budget t = t.budget
let cancel t = t.cancel

let trip t reason =
  (* mark the owned token so sibling pollers (worker domains, later
     phases) observe the stop without re-deriving it from the budget;
     the linked token belongs to an enclosing scope and is left alone *)
  Option.iter (fun c -> Cancel.request c reason) t.cancel;
  Some reason

let poll t ~states ~bytes =
  if not t.active then None
  else
    match Option.bind t.link Cancel.get with
    | Some r -> Some r
    | None -> (
        match Option.bind t.cancel Cancel.get with
        | Some r -> Some r
        | None -> (
            match t.budget.Budget.max_states with
            | Some cap when states > cap -> trip t Cancel.Max_states
            | _ -> (
                match t.budget.Budget.max_bytes with
                | Some cap when bytes > cap -> trip t Cancel.Max_bytes
                | _ -> (
                    match t.budget.Budget.deadline with
                    | Some d when Unix.gettimeofday () > d ->
                        trip t Cancel.Deadline
                    | _ -> None))))
