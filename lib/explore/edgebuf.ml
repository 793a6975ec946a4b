type block = { src : int array; dst : int array; label : int array }

(* Edges [0 .. before - 1] fill the blocks of [full] (newest first);
   the next [fill] edges sit at the front of [cur]. *)
type t = {
  mutable cur : block;
  mutable fill : int;
  mutable full : block list;
  mutable before : int;
}

let block n =
  { src = Array.make n 0; dst = Array.make n 0; label = Array.make n 0 }

let first_block = 64
let max_block = 8192
let create () = { cur = block first_block; fill = 0; full = []; before = 0 }

let push b s d l =
  if b.fill = Array.length b.cur.src then begin
    b.full <- b.cur :: b.full;
    b.before <- b.before + b.fill;
    b.cur <- block (min max_block (2 * b.fill));
    b.fill <- 0
  end;
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

let to_graph b n =
  let all = block (length b) in
  let pos = ref 0 in
  iter_blocks b (fun c len ->
      Array.blit c.src 0 all.src !pos len;
      Array.blit c.dst 0 all.dst !pos len;
      Array.blit c.label 0 all.label !pos len;
      pos := !pos + len);
  Dgraph.Digraph.of_arrays n ~src:all.src ~dst:all.dst ~label:all.label
