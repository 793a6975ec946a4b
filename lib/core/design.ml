module Expr = Guarded.Expr
module Action = Guarded.Action

let convergence_action ~name c stmt =
  Action.make ~name ~guard:(Expr.not_ (Constr.pred c)) stmt

let same_statement a b =
  let norm act =
    Action.assigns act
    |> List.map (fun (v, e) -> (Guarded.Var.index v, e))
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  let na = norm a and nb = norm b in
  List.length na = List.length nb
  && List.for_all2
       (fun (i, e1) (j, e2) -> i = j && Expr.equal_num e1 e2)
       na nb

let combine ~name a b =
  if not (same_statement a b) then
    invalid_arg "Design.combine: statements differ";
  Action.make ~name
    ~guard:(Expr.( || ) (Action.guard a) (Action.guard b))
    (Action.assigns a)

let simplify_action a =
  Action.make ~name:(Action.name a)
    ~guard:(Expr.simplify (Action.guard a))
    (List.map (fun (v, e) -> (v, Expr.simplify_num e)) (Action.assigns a))
