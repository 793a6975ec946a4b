type t = {
  parent : int array;
  root : int;
  children : int list array;
  depth : int array;
}

let of_parents parent =
  let n = Array.length parent in
  if n = 0 then invalid_arg "Tree.of_parents: empty";
  let root = ref (-1) in
  Array.iteri
    (fun j p ->
      if p < 0 || p >= n then
        invalid_arg
          (Printf.sprintf "Tree.of_parents: parent %d of node %d out of range"
             p j);
      if p = j then
        if !root = -1 then root := j
        else invalid_arg "Tree.of_parents: multiple roots")
    parent;
  if !root = -1 then invalid_arg "Tree.of_parents: no root";
  let root = !root in
  (* depth + cycle detection in one pass *)
  let depth = Array.make n (-1) in
  depth.(root) <- 0;
  let rec resolve j visiting =
    if depth.(j) >= 0 then depth.(j)
    else if List.mem j visiting then
      invalid_arg "Tree.of_parents: cycle not through root"
    else begin
      let d = resolve parent.(j) (j :: visiting) + 1 in
      depth.(j) <- d;
      d
    end
  in
  for j = 0 to n - 1 do
    ignore (resolve j [])
  done;
  let children = Array.make n [] in
  for j = n - 1 downto 0 do
    if j <> root then children.(parent.(j)) <- j :: children.(parent.(j))
  done;
  { parent = Array.copy parent; root; children; depth }

let size t = Array.length t.parent
let root t = t.root
let parent t j = t.parent.(j)
let children t j = t.children.(j)
let is_leaf t j = t.children.(j) = []
let is_root t j = j = t.root
let depth t j = t.depth.(j)
let height t = Array.fold_left max 0 t.depth
let nodes t = List.init (size t) (fun i -> i)
let non_root_nodes t = List.filter (fun j -> j <> t.root) (nodes t)

let chain n =
  if n <= 0 then invalid_arg "Tree.chain";
  of_parents (Array.init n (fun j -> max 0 (j - 1)))

let star n =
  if n <= 0 then invalid_arg "Tree.star";
  of_parents (Array.init n (fun j -> if j = 0 then 0 else 0))

let balanced ~arity n =
  if arity <= 0 || n <= 0 then invalid_arg "Tree.balanced";
  of_parents (Array.init n (fun j -> if j = 0 then 0 else (j - 1) / arity))

let random rng n =
  if n <= 0 then invalid_arg "Tree.random";
  of_parents (Array.init n (fun j -> if j = 0 then 0 else Prng.int rng j))

let to_digraph t =
  Dgraph.Digraph.of_edges (size t)
    (List.filter_map
       (fun j -> if j <> t.root then Some (t.parent.(j), j, ()) else None)
       (nodes t))

let pp ppf t =
  Format.fprintf ppf "@[<v>tree (%d nodes, root %d)@," (size t) t.root;
  List.iter
    (fun j ->
      if j <> t.root then Format.fprintf ppf "  %d -> %d@," t.parent.(j) j)
    (nodes t);
  Format.fprintf ppf "@]"
