type 'a edge = { src : int; dst : int; label : 'a }

(* A CSR index: the edges incident to node [v] sit at positions
   [off.(v) .. off.(v + 1) - 1]; [ends.(k)] is the far endpoint of the
   edge at position [k] and [ids.(k)] its edge id, except that an empty
   [ids] means position = edge id. *)
type csr = { off : int array; ends : int array; ids : int array }

(* Edge labels: one word each, or one byte each for an int-labelled
   graph whose labels all lie in [0 .. 255]. *)
type _ labels = Words : 'a array -> 'a labels | Bytes8 : Bytes.t -> int labels

type 'a t = {
  n : int;
  out : csr;
      (* the edges themselves: edge [e] is the [e]-th in CSR order, from
         the node [v] with [off.(v) <= e < off.(v + 1)] to [ends.(e)];
         [ids] is empty *)
  label : 'a labels;
  mutable in_idx : csr option;  (* built on first use *)
}

let label_of : type a. a t -> int -> a =
 fun g e ->
  match g.label with
  | Words a -> a.(e)
  | Bytes8 b -> Char.code (Bytes.get b e)

let check_node g i name =
  if i < 0 || i >= g.n then
    invalid_arg (Printf.sprintf "Digraph.%s: node %d out of range" name i)

(* Edge [e]'s source: the last node whose edges start at or before [e]. *)
let src_of g e =
  let off = g.out.off in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if off.(mid) <= e then go mid hi else go lo (mid - 1)
  in
  go 0 (g.n - 1)

let csr_graph name n ~off ~dst ~label ~label_count =
  if n < 0 then invalid_arg ("Digraph." ^ name ^ ": negative node count");
  let g = { n; out = { off; ends = dst; ids = [||] }; label; in_idx = None } in
  let m = Array.length dst in
  if label_count <> m then
    invalid_arg ("Digraph." ^ name ^ ": dst and label lengths differ");
  if Array.length off <> n + 1 || off.(0) <> 0 || off.(n) <> m then
    invalid_arg ("Digraph." ^ name ^ ": offsets do not span the edges");
  for v = 0 to n - 1 do
    if off.(v + 1) < off.(v) then
      invalid_arg ("Digraph." ^ name ^ ": offsets decrease")
  done;
  Array.iter (fun d -> check_node g d name) dst;
  g

let of_csr n ~off ~dst ~label =
  csr_graph "of_csr" n ~off ~dst ~label:(Words label)
    ~label_count:(Array.length label)

let of_csr_bytes n ~off ~dst ~label =
  csr_graph "of_csr_bytes" n ~off ~dst ~label:(Bytes8 label)
    ~label_count:(Bytes.length label)

(* Per-node offsets of a CSR index: node [v] gets [count v] positions. *)
let offsets n m count =
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let k = count e + 1 in
    off.(k) <- off.(k) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  off

let of_edges n edges =
  if n < 0 then invalid_arg "Digraph.of_edges: negative node count";
  let a = Array.of_list edges in
  let m = Array.length a in
  Array.iter
    (fun (s, d, _) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg
          (Printf.sprintf "Digraph.of_edges: edge %d -> %d out of range" s d))
    a;
  (* a stable counting sort by source: insertion order within a source *)
  let off = offsets n m (fun e -> let s, _, _ = a.(e) in s) in
  let next = Array.sub off 0 n in
  let dst = Array.make m 0 in
  let label = if m = 0 then [||] else (let _, _, l = a.(0) in Array.make m l) in
  Array.iter
    (fun (s, d, l) ->
      let k = next.(s) in
      next.(s) <- k + 1;
      dst.(k) <- d;
      label.(k) <- l)
    a;
  { n; out = { off; ends = dst; ids = [||] }; label = Words label;
    in_idx = None }

let node_count g = g.n
let edge_count g = Array.length g.out.ends
let out_csr g = g.out

(* The in-index: edge ids stably sorted by destination, each recording
   its source. *)
let in_csr g =
  match g.in_idx with
  | Some c -> c
  | None ->
      let { off = out_off; ends = dst; _ } = g.out in
      let m = Array.length dst in
      let off = offsets g.n m (fun e -> dst.(e)) in
      let next = Array.sub off 0 g.n in
      let ids = Array.make m 0 and ends = Array.make m 0 in
      for v = 0 to g.n - 1 do
        for e = out_off.(v) to out_off.(v + 1) - 1 do
          let k = next.(dst.(e)) in
          next.(dst.(e)) <- k + 1;
          ids.(k) <- e;
          ends.(k) <- v
        done
      done;
      let c = { off; ends; ids } in
      g.in_idx <- Some c;
      c

let csr_edge c k = if Array.length c.ids = 0 then k else c.ids.(k)

let check_edge g e name =
  if e < 0 || e >= edge_count g then
    invalid_arg (Printf.sprintf "Digraph.%s: edge %d out of range" name e)

let edge g e =
  check_edge g e "edge";
  { src = src_of g e; dst = g.out.ends.(e); label = label_of g e }

let edge_label g e =
  check_edge g e "edge_label";
  label_of g e

(* A node's edges in position order, as a list (built back to front). *)
let collect c i f =
  let acc = ref [] in
  for k = c.off.(i + 1) - 1 downto c.off.(i) do
    acc := f k :: !acc
  done;
  !acc

(* Edge [e], whose source [v] the caller already knows. *)
let record g v e = { src = v; dst = g.out.ends.(e); label = label_of g e }

let out_edges g i =
  check_node g i "out_edges";
  collect g.out i (fun e -> record g i e)

let in_edges g i =
  check_node g i "in_edges";
  let c = in_csr g in
  collect c i (fun k -> record g c.ends.(k) c.ids.(k))

let succ g i =
  check_node g i "succ";
  collect g.out i (fun e -> g.out.ends.(e))

let pred g i =
  check_node g i "pred";
  let c = in_csr g in
  collect c i (fun k -> c.ends.(k))

(* Every edge in CSR order, as [f src e]. *)
let iter_csr_edges g f =
  let off = g.out.off in
  for v = 0 to g.n - 1 do
    for e = off.(v) to off.(v + 1) - 1 do
      f v e
    done
  done

let edges g =
  let acc = ref [] in
  iter_csr_edges g (fun v e -> acc := record g v e :: !acc);
  List.rev !acc

let out_degree g i =
  check_node g i "out_degree";
  g.out.off.(i + 1) - g.out.off.(i)

let in_degree g i =
  check_node g i "in_degree";
  let c = in_csr g in
  c.off.(i + 1) - c.off.(i)

let has_self_loop g i =
  check_node g i "has_self_loop";
  let { off; ends; _ } = g.out in
  let rec scan k = k < off.(i + 1) && (ends.(k) = i || scan (k + 1)) in
  scan off.(i)

let map_labels f g =
  of_edges g.n
    (List.map (fun (e : _ edge) -> (e.src, e.dst, f e.label)) (edges g))

let filter_edges keep g =
  of_edges g.n
    (List.filter_map
       (fun (e : _ edge) ->
         if keep e then Some (e.src, e.dst, e.label) else None)
       (edges g))

let drop_self_loops g = filter_edges (fun (e : _ edge) -> e.src <> e.dst) g

let reverse g =
  of_edges g.n
    (List.map (fun (e : _ edge) -> (e.dst, e.src, e.label)) (edges g))

let iter_succ g i f =
  check_node g i "iter_succ";
  let { off; ends; _ } = g.out in
  for k = off.(i + 1) - 1 downto off.(i) do
    f ends.(k)
  done

let fold_edges f acc g =
  let acc = ref acc in
  iter_csr_edges g (fun v e -> acc := f !acc (record g v e));
  !acc

let bytes : type a. a t -> int =
 fun g ->
  let index c = Array.length c.off + Array.length c.ends + Array.length c.ids in
  let labels =
    match g.label with
    | Words a -> 8 * Array.length a
    | Bytes8 b -> Bytes.length b
  in
  labels
  + 8 * (index g.out + match g.in_idx with None -> 0 | Some c -> index c)

let pp pp_label ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)@," g.n (edge_count g);
  iter_csr_edges g (fun v e ->
      Format.fprintf ppf "  %d -> %d [%a]@," v g.out.ends.(e) pp_label
        (label_of g e));
  Format.fprintf ppf "@]"
