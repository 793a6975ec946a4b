type t = { n : int }

let create n =
  if n < 2 then invalid_arg "Ring.create: need at least 2 nodes";
  { n }

let size t = t.n
let succ t j = (j + 1) mod t.n
let pred t j = (j + t.n - 1) mod t.n
let nodes t = List.init t.n (fun i -> i)
let distance t a b = ((b - a) mod t.n + t.n) mod t.n

let to_digraph t =
  Dgraph.Digraph.of_edges t.n (List.map (fun j -> (j, succ t j, ())) (nodes t))
