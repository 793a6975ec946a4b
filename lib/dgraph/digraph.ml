type 'a edge = { src : int; dst : int; label : 'a }

(* A CSR index: the edges incident to node [v] sit at positions
   [off.(v) .. off.(v + 1) - 1]; [ends.(k)] is the far endpoint of the
   edge at position [k] and [ids.(k)] its edge id, except that an empty
   [ids] means position = edge id. *)
type csr = { off : int array; ends : int array; ids : int array }

(* Edge labels: one word each, or one byte each for an int-labelled
   source-free graph whose labels all lie in [0 .. 255]. *)
type _ labels = Words : 'a array -> 'a labels | Bytes8 : Bytes.t -> int labels

type 'a t = {
  n : int;
  mutable m : int;
  (* edge [e] (the [e]-th inserted) is [src.(e) -> dst.(e)] labelled
     [label e]; the arrays may be longer than [m] *)
  mutable src : int array;
  mutable dst : int array;
  mutable label : 'a labels;
  mutable grouped : bool;  (* sources are non-decreasing over [0 .. m - 1] *)
  mutable src_free : bool;
      (* [src] is empty and the sources are read off the offsets of
         [out_idx], which then never changes: edge [e] leaves the node [v]
         with [off.(v) <= e < off.(v + 1)] *)
  mutable out_idx : csr option;
  mutable in_idx : csr option;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  { n; m = 0; src = [||]; dst = [||]; label = Words [||]; grouped = true;
    src_free = false; out_idx = None; in_idx = None }

let label_of : type a. a t -> int -> a =
 fun g e ->
  match g.label with
  | Words a -> a.(e)
  | Bytes8 b -> Char.code (Bytes.get b e)

(* The labels as words, widening byte labels first (before the first
   [add_edge]). *)
let label_words : type a. a t -> a array =
 fun g ->
  match g.label with
  | Words a -> a
  | Bytes8 b ->
      let a = Array.init (Bytes.length b) (fun e -> Char.code (Bytes.get b e)) in
      g.label <- Words a;
      a

let check_node g i name =
  if i < 0 || i >= g.n then
    invalid_arg (Printf.sprintf "Digraph.%s: node %d out of range" name i)

(* The permanent out-index of a source-free graph. *)
let free_off g =
  match g.out_idx with Some c -> c.off | None -> assert false

(* Edge [e]'s source: stored, or found by binary search in the offsets. *)
let src_of g e =
  if not g.src_free then g.src.(e)
  else
    let off = free_off g in
    (* the last node whose edges start at or before [e] *)
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if off.(mid) <= e then go mid hi else go lo (mid - 1)
    in
    go 0 (g.n - 1)

(* [f e src] for every edge, in id order. *)
let iter_src g f =
  if not g.src_free then
    for e = 0 to g.m - 1 do
      f e g.src.(e)
    done
  else
    let off = free_off g in
    for v = 0 to g.n - 1 do
      for e = off.(v) to off.(v + 1) - 1 do
        f e v
      done
    done

(* Write the sources out, turning a source-free graph into an ordinary
   one (before the first [add_edge]). *)
let materialize_src g =
  if g.src_free then begin
    let src = Array.make (Array.length g.dst) 0 in
    iter_src g (fun e v -> src.(e) <- v);
    g.src <- src;
    g.src_free <- false
  end

let add_edge g ~src ~dst label =
  check_node g src "add_edge";
  check_node g dst "add_edge";
  materialize_src g;
  let m = g.m in
  if m = Array.length g.src then begin
    let cap = max 8 (2 * m) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 m;
      b
    in
    g.src <- grow g.src 0;
    g.dst <- grow g.dst 0;
    g.label <- Words (grow (label_words g) label)
  end;
  if m > 0 && src < g.src.(m - 1) then g.grouped <- false;
  g.src.(m) <- src;
  g.dst.(m) <- dst;
  (label_words g).(m) <- label;
  g.m <- m + 1;
  g.out_idx <- None;
  g.in_idx <- None

let of_edges n edges =
  let g = create n in
  List.iter (fun (src, dst, label) -> add_edge g ~src ~dst label) edges;
  g

let of_arrays n ~src ~dst ~label =
  let g = { (create n) with src; dst; label = Words label } in
  let m = Array.length src in
  if Array.length dst <> m || Array.length label <> m then
    invalid_arg "Digraph.of_arrays: src, dst and label lengths differ";
  for e = 0 to m - 1 do
    check_node g src.(e) "of_arrays";
    check_node g dst.(e) "of_arrays";
    if e > 0 && src.(e) < src.(e - 1) then g.grouped <- false
  done;
  g.m <- m;
  g

let csr_graph name n ~off ~dst ~label ~label_count =
  let g = create n in
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
  { g with m; dst; label; src_free = true;
    out_idx = Some { off; ends = dst; ids = [||] } }

let of_csr n ~off ~dst ~label =
  csr_graph "of_csr" n ~off ~dst ~label:(Words label)
    ~label_count:(Array.length label)

let of_csr_bytes n ~off ~dst ~label =
  csr_graph "of_csr_bytes" n ~off ~dst ~label:(Bytes8 label)
    ~label_count:(Bytes.length label)

let node_count g = g.n
let edge_count g = g.m

(* Per-node offsets of a CSR index keyed by [key]: node [v]'s edges take
   positions [off.(v) .. off.(v + 1) - 1]. *)
let offsets g key =
  let off = Array.make (g.n + 1) 0 in
  for e = 0 to g.m - 1 do
    let k = key.(e) + 1 in
    off.(k) <- off.(k) + 1
  done;
  for v = 0 to g.n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  off

(* Stable counting sort of the edge ids by [key]: positions of each node's
   edges keep insertion order. [iter] calls its argument as [f e far] on
   every edge in id order, [far] being the endpoint the index records. *)
let sort_by g key iter =
  let off = offsets g key in
  let next = Array.sub off 0 g.n in
  let ids = Array.make g.m 0 and ends = Array.make g.m 0 in
  iter (fun e far ->
      let v = key.(e) in
      let k = next.(v) in
      next.(v) <- k + 1;
      ids.(k) <- e;
      ends.(k) <- far);
  { off; ends; ids }

let out_csr g =
  match g.out_idx with
  | Some c -> c
  | None ->
      let c =
        (* grouped edges are already in CSR order: only the offsets are
           needed *)
        if g.grouped then { off = offsets g g.src; ends = g.dst; ids = [||] }
        else
          sort_by g g.src (fun f ->
              for e = 0 to g.m - 1 do
                f e g.dst.(e)
              done)
      in
      g.out_idx <- Some c;
      c

let in_csr g =
  match g.in_idx with
  | Some c -> c
  | None ->
      let c = sort_by g g.dst (iter_src g) in
      g.in_idx <- Some c;
      c

let csr_edge c k = if Array.length c.ids = 0 then k else c.ids.(k)

let check_edge g e name =
  if e < 0 || e >= g.m then
    invalid_arg (Printf.sprintf "Digraph.%s: edge %d out of range" name e)

let edge g e =
  check_edge g e "edge";
  { src = src_of g e; dst = g.dst.(e); label = label_of g e }

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
let record g v e = { src = v; dst = g.dst.(e); label = label_of g e }

let out_edges g i =
  check_node g i "out_edges";
  let c = out_csr g in
  collect c i (fun k -> record g i (csr_edge c k))

let in_edges g i =
  check_node g i "in_edges";
  let c = in_csr g in
  collect c i (fun k -> record g c.ends.(k) c.ids.(k))

let succ g i =
  check_node g i "succ";
  let c = out_csr g in
  collect c i (fun k -> c.ends.(k))

let pred g i =
  check_node g i "pred";
  let c = in_csr g in
  collect c i (fun k -> c.ends.(k))

(* Every edge in CSR order, as [f src e]: by source node, insertion
   order within. *)
let iter_csr_edges g f =
  let c = out_csr g in
  for v = 0 to g.n - 1 do
    for k = c.off.(v) to c.off.(v + 1) - 1 do
      f v (csr_edge c k)
    done
  done

let edges g =
  let acc = ref [] in
  iter_csr_edges g (fun v e -> acc := record g v e :: !acc);
  List.rev !acc

let out_degree g i =
  check_node g i "out_degree";
  let c = out_csr g in
  c.off.(i + 1) - c.off.(i)

let in_degree g i =
  check_node g i "in_degree";
  let c = in_csr g in
  c.off.(i + 1) - c.off.(i)

let has_self_loop g i =
  check_node g i "has_self_loop";
  let c = out_csr g in
  let rec scan k = k < c.off.(i + 1) && (c.ends.(k) = i || scan (k + 1)) in
  scan c.off.(i)

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
  let c = out_csr g in
  for k = c.off.(i + 1) - 1 downto c.off.(i) do
    f c.ends.(k)
  done

let fold_edges f acc g =
  let acc = ref acc in
  iter_csr_edges g (fun v e -> acc := f !acc (record g v e));
  !acc

let bytes : type a. a t -> int =
 fun g ->
  let index = function
    | None -> 0
    | Some c ->
        Array.length c.off + Array.length c.ids
        + if c.ends == g.dst then 0 else Array.length c.ends
  in
  let labels =
    match g.label with
    | Words a -> 8 * Array.length a
    | Bytes8 b -> Bytes.length b
  in
  labels
  + 8
    * (Array.length g.src + Array.length g.dst + index g.out_idx
     + index g.in_idx)

let pp pp_label ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)@," g.n g.m;
  iter_csr_edges g (fun v e ->
      Format.fprintf ppf "  %d -> %d [%a]@," v g.dst.(e) pp_label (label_of g e));
  Format.fprintf ppf "@]"
