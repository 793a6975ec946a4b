type t = {
  deadline : float option;
  max_states : int option;
  max_bytes : int option;
}

let unlimited = { deadline = None; max_states = None; max_bytes = None }

let make ?deadline_s ?max_states ?max_bytes () =
  (match deadline_s with
  | Some d when d < 0. ->
      invalid_arg "Budget.make: deadline_s must be non-negative"
  | _ -> ());
  (match max_states with
  | Some n when n <= 0 -> invalid_arg "Budget.make: max_states must be positive"
  | _ -> ());
  (match max_bytes with
  | Some n when n <= 0 -> invalid_arg "Budget.make: max_bytes must be positive"
  | _ -> ());
  {
    deadline = Option.map (fun d -> Unix.gettimeofday () +. d) deadline_s;
    max_states;
    max_bytes;
  }

let is_unlimited t =
  t.deadline = None && t.max_states = None && t.max_bytes = None
