type t = int array

exception Domain_violation of Var.t * int

let make env =
  let vs = Env.vars env in
  Array.map (fun v -> Domain.first (Var.domain v)) vs

let init env f =
  let vs = Env.vars env in
  Array.map
    (fun v ->
      let x = f v in
      if not (Domain.mem (Var.domain v) x) then raise (Domain_violation (v, x));
      x)
    vs

let get s v = s.(Var.index v)

let set s v x =
  if not (Domain.mem (Var.domain v) x) then raise (Domain_violation (v, x));
  s.(Var.index v) <- x

let set_corrupt s v x = s.(Var.index v) <- x

let of_list env bindings =
  let s = make env in
  List.iter (fun (v, x) -> set s v x) bindings;
  s

let in_domain env s =
  let vs = Env.vars env in
  Array.for_all (fun v -> Domain.mem (Var.domain v) s.(Var.index v)) vs

let copy = Array.copy
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare a b
let hash (s : t) = Hashtbl.hash s
let get_index (s : t) i = s.(i)
let set_index (s : t) i x = s.(i) <- x
let blit ~src ~dst = Array.blit src 0 dst 0 (Array.length src)
let to_array = Array.copy

let pp env ppf s =
  let vs = Env.vars env in
  Format.fprintf ppf "{@[<hov>";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%s=%s" (Var.name v)
        (Domain.value_to_string (Var.domain v) s.(Var.index v)))
    vs;
  Format.fprintf ppf "@]}"

let to_string env s = Format.asprintf "%a" (pp env) s
