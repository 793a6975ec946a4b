module Ivec = Par.Ivec

(* A block's destinations, and its labels: one byte each ([narrow])
   while every label pushed so far lies in [0 .. 255], one word each
   ([wide]) from the first label outside that range on. The other
   field is empty. *)
type block = {
  dst : int array;
  mutable narrow : Bytes.t;
  mutable wide : int array;
}

(* Edges [0 .. before - 1] fill the blocks of [full] (newest first);
   the next [fill] edges sit at the front of [cur]. Node [v]'s edges
   have ids [starts.(v) ..] up to the next node's start (or the end):
   the sources are [0 .. Ivec.len starts - 1], the last one being the
   latest edge's. *)
type t = {
  mutable cur : block;
  mutable fill : int;
  mutable full : block list;
  mutable before : int;
  starts : Ivec.t;
  mutable words : bool;  (* labels are stored in [wide] *)
}

let block n ~words =
  {
    dst = Array.make n 0;
    narrow = (if words then Bytes.empty else Bytes.make n '\000');
    wide = (if words then Array.make n 0 else [||]);
  }

let first_block = 64
let max_block = 8192

let create () =
  { cur = block first_block ~words:false; fill = 0; full = []; before = 0;
    starts = Ivec.create (); words = false }

let length b = b.before + b.fill

(* Every block in push order, with the number of edges it holds. *)
let iter_blocks b f =
  List.iter (fun c -> f c (Array.length c.dst)) (List.rev b.full);
  f b.cur b.fill

(* Switch every block to word labels. *)
let widen b =
  iter_blocks b (fun c _ ->
      c.wide <- Array.init (Bytes.length c.narrow) (fun i ->
          Char.code (Bytes.get c.narrow i));
      c.narrow <- Bytes.empty);
  b.words <- true

let push b s d l =
  let nodes = Ivec.len b.starts in
  if s < nodes - 1 || s < 0 then
    invalid_arg
      (Printf.sprintf "Edgebuf.push: source %d after source %d" s
         (max 0 (nodes - 1)));
  for _ = nodes to s do
    ignore (Ivec.push b.starts (length b))
  done;
  if (l < 0 || l > 255) && not b.words then widen b;
  if b.fill = Array.length b.cur.dst then begin
    b.full <- b.cur :: b.full;
    b.before <- b.before + b.fill;
    b.cur <- block (min max_block (2 * b.fill)) ~words:b.words;
    b.fill <- 0
  end;
  let c = b.cur and i = b.fill in
  c.dst.(i) <- d;
  if b.words then c.wide.(i) <- l else Bytes.set c.narrow i (Char.chr l);
  b.fill <- i + 1

let iter b f =
  let nodes = Ivec.len b.starts in
  (* [v] is the source of edge [e]; [next_start] the id where node
     [v + 1]'s edges start *)
  let v = ref 0 and e = ref 0 in
  let next () = if !v + 1 < nodes then Ivec.get b.starts (!v + 1) else max_int in
  let next_start = ref (next ()) in
  iter_blocks b (fun c len ->
      for i = 0 to len - 1 do
        while !e >= !next_start do
          incr v;
          next_start := next ()
        done;
        let l =
          if b.words then c.wide.(i) else Char.code (Bytes.get c.narrow i)
        in
        f !v c.dst.(i) l;
        incr e
      done)

(* One exact array of [length b] slots, made by [make], that
   [blit c a pos len] fills block by block. *)
let gather b ~make ~blit =
  let a = make (length b) in
  let pos = ref 0 in
  iter_blocks b (fun c len ->
      blit c a !pos len;
      pos := !pos + len);
  a

let to_graph ?poll b n =
  let nodes = Ivec.len b.starts in
  if nodes > n then
    invalid_arg
      (Printf.sprintf "Edgebuf.to_graph: source %d out of range" (nodes - 1));
  let m = length b in
  let off = Array.make (n + 1) m in
  for v = 0 to nodes - 1 do
    off.(v) <- Ivec.get b.starts v
  done;
  let dst =
    gather b ~make:(fun m -> Array.make m 0) ~blit:(fun c a pos len ->
        Array.blit c.dst 0 a pos len)
  in
  Option.iter (fun p -> p ()) poll;
  if b.words then
    Dgraph.Digraph.of_csr n ~off ~dst
      ~label:
        (gather b ~make:(fun m -> Array.make m 0) ~blit:(fun c a pos len ->
             Array.blit c.wide 0 a pos len))
  else
    Dgraph.Digraph.of_csr_bytes n ~off ~dst
      ~label:
        (gather b ~make:Bytes.create ~blit:(fun c a pos len ->
             Bytes.blit c.narrow 0 a pos len))
