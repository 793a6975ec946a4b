(** Append-only buffer of int-labelled edges — where the lazy and
    parallel searches collect a region's committed [(src, dst, action)]
    edges before handing them to {!Dgraph.Digraph}.

    Edges must arrive grouped by source, sources never decreasing — as
    every search pushes them — so the buffer keeps no source per edge,
    only the id of each node's first edge. Destinations go into int
    blocks and labels beside them into byte blocks: 9 bytes per edge.
    The first label outside [0 .. 255] (more than 256 actions, or a
    negative label) switches every block to word labels, 16 bytes per
    edge; the data picks the layout. A full block is kept as it is and a
    fresh one started, so a push never copies earlier edges. Blocks
    start small (tiny regions stay cheap) and double up to a cap (large
    regions pay one block header per {!max_block} edges). {!to_graph}
    allocates the graph's exact-length arrays once and blits each block
    in ({!Dgraph.Digraph.of_csr_bytes} or {!Dgraph.Digraph.of_csr}): 9
    or 16 bytes per edge plus 8 per node. *)

type t

val first_block : int
(** Length in edges of the first block: 64. *)

val max_block : int
(** Each later block doubles the previous one up to this length: 8192.
    Full-length blocks from the start slow down runs that build
    thousands of tiny regions, such as the differential fuzzer
    (EXPERIMENTS E27). *)

val create : unit -> t

val push : t -> int -> int -> int -> unit
(** [push b src dst label] appends one edge.
    @raise Invalid_argument if [src] is negative or below the source of
    the edge pushed before. *)

val length : t -> int
(** Number of edges pushed. *)

val iter : t -> (int -> int -> int -> unit) -> unit
(** Visit the edges in push order as [f src dst label]. *)

val to_graph : ?poll:(unit -> unit) -> t -> int -> int Dgraph.Digraph.t
(** [to_graph b n] is the graph on nodes [0 .. n - 1] holding the
    pushed edges, with edge ids in push order — the same graph as
    {!Dgraph.Digraph.of_edges} over the list of them. Its labels take
    one byte each when every label lies in [0 .. 255]. The buffer is
    left as it was. [poll] (default none) runs once, between copying
    the destinations and the labels; an exception it raises propagates.
    @raise Invalid_argument when an endpoint is outside [0 .. n - 1]. *)
