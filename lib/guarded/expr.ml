type num =
  | Const of int
  | Var of Var.t
  | Neg of num
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num
  | Mod of num * num
  | Min of num * num
  | Max of num * num
  | Ite of boolean * num * num

and boolean =
  | True
  | False
  | Cmp of cmp * num * num
  | Not of boolean
  | And of boolean * boolean
  | Or of boolean * boolean
  | Implies of boolean * boolean
  | Iff of boolean * boolean

and cmp = Eq | Ne | Lt | Le | Gt | Ge

let int n = Const n
let var v = Var v
let tt = True
let ff = False
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( mod ) a b = Mod (a, b)
let neg a = Neg a
let min_ a b = Min (a, b)
let max_ a b = Max (a, b)
let ite c a b = Ite (c, a, b)
let ( = ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Ne, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let not_ b = Not b
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let ( ==> ) a b = Implies (a, b)
let ( <=> ) a b = Iff (a, b)

let conj = function
  | [] -> True
  | x :: xs -> List.fold_left (fun acc b -> And (acc, b)) x xs

let disj = function
  | [] -> False
  | x :: xs -> List.fold_left (fun acc b -> Or (acc, b)) x xs

let forall xs f = conj (List.map f xs)
let exists xs f = disj (List.map f xs)

let eval_cmp c (a : int) (b : int) =
  match c with
  | Eq -> Stdlib.( = ) a b
  | Ne -> Stdlib.( <> ) a b
  | Lt -> Stdlib.( < ) a b
  | Le -> Stdlib.( <= ) a b
  | Gt -> Stdlib.( > ) a b
  | Ge -> Stdlib.( >= ) a b

let rec eval_num s = function
  | Const n -> n
  | Var v -> State.get s v
  | Neg a -> Stdlib.( - ) 0 (eval_num s a)
  | Add (a, b) -> Stdlib.( + ) (eval_num s a) (eval_num s b)
  | Sub (a, b) -> Stdlib.( - ) (eval_num s a) (eval_num s b)
  | Mul (a, b) -> Stdlib.( * ) (eval_num s a) (eval_num s b)
  | Div (a, b) -> Stdlib.( / ) (eval_num s a) (eval_num s b)
  | Mod (a, b) -> Stdlib.(mod) (eval_num s a) (eval_num s b)
  | Min (a, b) -> Stdlib.min (eval_num s a) (eval_num s b)
  | Max (a, b) -> Stdlib.max (eval_num s a) (eval_num s b)
  | Ite (c, a, b) -> if eval s c then eval_num s a else eval_num s b

and eval s = function
  | True -> true
  | False -> false
  | Cmp (c, a, b) -> eval_cmp c (eval_num s a) (eval_num s b)
  | Not b -> Stdlib.not (eval s b)
  | And (a, b) -> if eval s a then eval s b else false
  | Or (a, b) -> if eval s a then true else eval s b
  | Implies (a, b) -> if eval s a then eval s b else true
  | Iff (a, b) -> Stdlib.( = ) (eval s a) (eval s b)

let rec reads_num = function
  | Const _ -> Var.Set.empty
  | Var v -> Var.Set.singleton v
  | Neg a -> reads_num a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
      Var.Set.union (reads_num a) (reads_num b)
  | Ite (c, a, b) ->
      Var.Set.union (reads c) (Var.Set.union (reads_num a) (reads_num b))

and reads = function
  | True | False -> Var.Set.empty
  | Cmp (_, a, b) -> Var.Set.union (reads_num a) (reads_num b)
  | Not b -> reads b
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      Var.Set.union (reads a) (reads b)

let rec simplify_num e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> (
      match simplify_num a with
      | Const n -> Const (Stdlib.( - ) 0 n)
      | Neg inner -> inner
      | a' -> Neg a')
  | Add (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y -> Const (Stdlib.( + ) x y)
      | Const 0, e' | e', Const 0 -> e'
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y -> Const (Stdlib.( - ) x y)
      | e', Const 0 -> e'
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y -> Const (Stdlib.( * ) x y)
      | Const 0, _ | _, Const 0 -> Const 0
      | Const 1, e' | e', Const 1 -> e'
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y when Stdlib.( <> ) y 0 -> Const (Stdlib.( / ) x y)
      | e', Const 1 -> e'
      | a', b' -> Div (a', b'))
  | Mod (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y when Stdlib.( <> ) y 0 -> Const (Stdlib.(mod) x y)
      | a', b' -> Mod (a', b'))
  | Min (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y -> Const (Stdlib.min x y)
      | a', b' -> Min (a', b'))
  | Max (a, b) -> (
      match (simplify_num a, simplify_num b) with
      | Const x, Const y -> Const (Stdlib.max x y)
      | a', b' -> Max (a', b'))
  | Ite (c, a, b) -> (
      match simplify c with
      | True -> simplify_num a
      | False -> simplify_num b
      | c' -> Ite (c', simplify_num a, simplify_num b))

and simplify b =
  match b with
  | True | False -> b
  | Cmp (c, a, bb) -> (
      match (simplify_num a, simplify_num bb) with
      | Const x, Const y -> if eval_cmp c x y then True else False
      | a', b' -> Cmp (c, a', b'))
  | Not inner -> (
      match simplify inner with
      | True -> False
      | False -> True
      | Not inner2 -> inner2
      | i -> Not i)
  | And (a, bb) -> (
      match (simplify a, simplify bb) with
      | True, e | e, True -> e
      | False, _ | _, False -> False
      | a', b' -> And (a', b'))
  | Or (a, bb) -> (
      match (simplify a, simplify bb) with
      | False, e | e, False -> e
      | True, _ | _, True -> True
      | a', b' -> Or (a', b'))
  | Implies (a, bb) -> (
      match (simplify a, simplify bb) with
      | False, _ -> True
      | True, e -> e
      | _, True -> True
      | a', b' -> Implies (a', b'))
  | Iff (a, bb) -> (
      match (simplify a, simplify bb) with
      | True, e | e, True -> e
      | False, e | e, False -> simplify (Not e)
      | a', b' -> Iff (a', b'))

let rec subst_num f = function
  | Const n -> Const n
  | Var v -> ( match f v with Some e -> e | None -> Var v)
  | Neg a -> Neg (subst_num f a)
  | Add (a, b) -> Add (subst_num f a, subst_num f b)
  | Sub (a, b) -> Sub (subst_num f a, subst_num f b)
  | Mul (a, b) -> Mul (subst_num f a, subst_num f b)
  | Div (a, b) -> Div (subst_num f a, subst_num f b)
  | Mod (a, b) -> Mod (subst_num f a, subst_num f b)
  | Min (a, b) -> Min (subst_num f a, subst_num f b)
  | Max (a, b) -> Max (subst_num f a, subst_num f b)
  | Ite (c, a, b) -> Ite (subst f c, subst_num f a, subst_num f b)

and subst f = function
  | True -> True
  | False -> False
  | Cmp (c, a, b) -> Cmp (c, subst_num f a, subst_num f b)
  | Not b -> Not (subst f b)
  | And (a, b) -> And (subst f a, subst f b)
  | Or (a, b) -> Or (subst f a, subst f b)
  | Implies (a, b) -> Implies (subst f a, subst f b)
  | Iff (a, b) -> Iff (subst f a, subst f b)

(* Printing with minimal parentheses: precedence levels, higher binds
   tighter. *)

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_num_prec prec ppf e =
  let paren p body =
    if Stdlib.( > ) prec p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Const n ->
      if Stdlib.( < ) n 0 then Format.fprintf ppf "(%d)" n
      else Format.fprintf ppf "%d" n
  | Var v -> Var.pp ppf v
  | Neg a ->
      (* self-delimiting so that "-(e)" and a negative literal "(-4)" stay
         distinguishable when re-parsed *)
      Format.fprintf ppf "-(%a)" (pp_num_prec 0) a
  | Add (a, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a + %a" (pp_num_prec 1) a (pp_num_prec 2) b)
  | Sub (a, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a - %a" (pp_num_prec 1) a (pp_num_prec 2) b)
  | Mul (a, b) ->
      paren 2 (fun ppf ->
          Format.fprintf ppf "%a * %a" (pp_num_prec 2) a (pp_num_prec 3) b)
  | Div (a, b) ->
      paren 2 (fun ppf ->
          Format.fprintf ppf "%a / %a" (pp_num_prec 2) a (pp_num_prec 3) b)
  | Mod (a, b) ->
      paren 2 (fun ppf ->
          Format.fprintf ppf "%a mod %a" (pp_num_prec 2) a (pp_num_prec 3) b)
  | Min (a, b) ->
      Format.fprintf ppf "min(%a, %a)" (pp_num_prec 0) a (pp_num_prec 0) b
  | Max (a, b) ->
      Format.fprintf ppf "max(%a, %a)" (pp_num_prec 0) a (pp_num_prec 0) b
  | Ite (c, a, b) ->
      Format.fprintf ppf "(if %a then %a else %a)" (pp_bool_prec 0) c
        (pp_num_prec 0) a (pp_num_prec 0) b

and pp_bool_prec prec ppf b =
  let paren p body =
    if Stdlib.( > ) prec p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match b with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (c, x, y) ->
      Format.fprintf ppf "%a %s %a" (pp_num_prec 1) x (cmp_to_string c)
        (pp_num_prec 1) y
  | Not inner ->
      paren 4 (fun ppf -> Format.fprintf ppf "~%a" (pp_bool_prec 4) inner)
  | And (x, y) ->
      paren 3 (fun ppf ->
          Format.fprintf ppf "%a /\\ %a" (pp_bool_prec 3) x (pp_bool_prec 4) y)
  | Or (x, y) ->
      paren 2 (fun ppf ->
          Format.fprintf ppf "%a \\/ %a" (pp_bool_prec 2) x (pp_bool_prec 3) y)
  | Implies (x, y) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a => %a" (pp_bool_prec 2) x (pp_bool_prec 1) y)
  | Iff (x, y) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a <=> %a" (pp_bool_prec 2) x (pp_bool_prec 2) y)

let pp_num ppf e = pp_num_prec 0 ppf e
let pp ppf b = pp_bool_prec 0 ppf b
let num_to_string e = Format.asprintf "%a" pp_num e
let to_string b = Format.asprintf "%a" pp b
let equal_num (a : num) (b : num) = Stdlib.( = ) a b
let equal (a : boolean) (b : boolean) = Stdlib.( = ) a b
