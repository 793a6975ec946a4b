(** Append-only buffer of int-labelled edges — where the lazy and
    parallel searches collect a region's committed [(src, dst, action)]
    edges before handing them to {!Dgraph.Digraph}.

    Edges go into three parallel int blocks. A full block is kept as it
    is and a fresh one started, so a push never copies earlier edges.
    Blocks start small (tiny regions stay cheap) and double up to a cap
    (large regions pay one block header per {!max_block} edges). {!to_graph}
    allocates the graph's three exact-length arrays once and blits each
    block in: the graph costs exactly 24 bytes per edge, and every edge
    is written twice in all (block, then graph). *)

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
(** [push b src dst label] appends one edge. *)

val length : t -> int
(** Number of edges pushed. *)

val iter : t -> (int -> int -> int -> unit) -> unit
(** Visit the edges in push order as [f src dst label]. *)

val to_graph : t -> int -> int Dgraph.Digraph.t
(** [to_graph b n] is the graph on nodes [0 .. n - 1] holding the
    pushed edges, with edge ids in push order — the same graph as
    {!Dgraph.Digraph.of_arrays} over plain arrays of them. The buffer is
    left as it was.
    @raise Invalid_argument when an endpoint is outside [0 .. n - 1]. *)
