type block = { src : int array; dst : int array; label : int array }

(* Edges [0 .. before - 1] fill the blocks of [full] (newest first);
   the next [fill] edges sit at the front of [cur]. *)
type t = {
  mutable cur : block;
  mutable fill : int;
  mutable full : block list;
  mutable before : int;
  mutable last_src : int;  (* source of the latest edge *)
  mutable grouped : bool;  (* sources never decreased *)
}

let block n =
  { src = Array.make n 0; dst = Array.make n 0; label = Array.make n 0 }

let first_block = 64
let max_block = 8192
let create () =
  { cur = block first_block; fill = 0; full = []; before = 0; last_src = 0;
    grouped = true }

let push b s d l =
  if b.fill = Array.length b.cur.src then begin
    b.full <- b.cur :: b.full;
    b.before <- b.before + b.fill;
    b.cur <- block (min max_block (2 * b.fill));
    b.fill <- 0
  end;
  if s < b.last_src then b.grouped <- false;
  b.last_src <- s;
  let c = b.cur and i = b.fill in
  c.src.(i) <- s;
  c.dst.(i) <- d;
  c.label.(i) <- l;
  b.fill <- i + 1

let length b = b.before + b.fill

(* Every block in push order, with the number of edges it holds. *)
let iter_blocks b f =
  List.iter (fun c -> f c (Array.length c.src)) (List.rev b.full);
  f b.cur b.fill

let iter b f =
  iter_blocks b (fun c len ->
      for i = 0 to len - 1 do
        f c.src.(i) c.dst.(i) c.label.(i)
      done)

(* One field of every block, concatenated into an exact array. *)
let gather b field =
  let a = Array.make (length b) 0 in
  let pos = ref 0 in
  iter_blocks b (fun c len ->
      Array.blit (field c) 0 a !pos len;
      pos := !pos + len);
  a

(* Grouped edges (every search pushes them so) become a source-free
   graph: the sources are counted into offsets, only [dst] and [label]
   are copied. [last_src] starts at 0, so grouped sources are never
   negative. *)
let to_graph b n =
  let dst = gather b (fun c -> c.dst) and label = gather b (fun c -> c.label) in
  if b.grouped && b.last_src < n then begin
    let off = Array.make (n + 1) 0 in
    iter_blocks b (fun c len ->
        for i = 0 to len - 1 do
          off.(c.src.(i) + 1) <- off.(c.src.(i) + 1) + 1
        done);
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v + 1) + off.(v)
    done;
    Dgraph.Digraph.of_csr n ~off ~dst ~label
  end
  else Dgraph.Digraph.of_arrays n ~src:(gather b (fun c -> c.src)) ~dst ~label
