(** Directed multigraphs over dense integer nodes.

    Nodes are [0 .. node_count - 1]; each edge carries a polymorphic label.
    Parallel edges and self-loops are allowed — the paper's constraint graph
    has one edge per convergence action, and self-loops are semantically
    significant (Section 6).

    {b Storage.} Edges live in flat arrays indexed by edge id (the
    [e]-th inserted edge has id [e]): destination and label, one word
    each, plus either a source array or — for graphs built by {!of_csr}
    or {!of_csr_bytes}, whose edges come grouped by source — nothing at
    all, the sources being read off the per-node offsets of the
    out-index. An int-labelled graph from {!of_arrays} costs 24 bytes
    per edge; one from {!of_csr} costs 16 bytes per edge plus 8 per node
    (the label array holds pointers for boxed labels); one from
    {!of_csr_bytes}, whose int labels take one byte each, 9 bytes per
    edge plus 8 per node. Graphs built by any of them hold exactly
    [edge_count] slots; {!add_edge} grows the arrays by doubling, first
    writing out the sources of a source-free graph and widening byte
    labels to words.

    {b Index.} Adjacency queries go through a CSR index: per-node offsets
    plus the edge ids in source order, from a stable counting sort. The
    out-index is built on the first query that needs it ({!succ},
    {!out_edges}, {!edges}, {!iter_succ}, {!out_degree}, {!has_self_loop},
    {!fold_edges}, {!out_csr}, …); when edges were inserted grouped by
    source (source ids non-decreasing — how every exploration backend
    inserts them) it is just the [node_count + 1] offsets and shares the
    destination array, and a source-free graph holds it from the start.
    The in-index ({!pred}, {!in_edges}, {!in_degree}) is built
    separately, only when one of those is called: offsets plus two words
    per edge. {!add_edge} drops both indexes; the next query rebuilds
    them.

    {b Order.} "Insertion order" below is edge-id order. *)

type 'a t

type 'a edge = { src : int; dst : int; label : 'a }

val create : int -> 'a t
(** [create n] is the edgeless graph on [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val of_edges : int -> (int * int * 'a) list -> 'a t
(** [of_edges n edges] builds a graph on [n] nodes from [(src, dst, label)]
    triples, inserted in list order. *)

val of_arrays : int -> src:int array -> dst:int array -> label:'a array -> 'a t
(** [of_arrays n ~src ~dst ~label] is the graph on [n] nodes whose edge
    [e] is [src.(e) -> dst.(e)] labelled [label.(e)] — [of_edges] without
    a list, for edge sets built in flat buffers. The graph takes the
    three arrays over without copying them: the caller must not mutate
    them afterwards.
    @raise Invalid_argument if the lengths differ or an endpoint is out of
    range. *)

val of_csr : int -> off:int array -> dst:int array -> label:'a array -> 'a t
(** [of_csr n ~off ~dst ~label] is the graph on [n] nodes whose edge [e]
    leaves the node [v] with [off.(v) <= e < off.(v + 1)] for
    [dst.(e)], labelled [label.(e)]: the grouped edge set of
    {!of_arrays} without its source array, which {!edge} and the
    in-index derive from [off] when asked. Takes the arrays over
    without copying; [off] becomes the out-index.
    @raise Invalid_argument unless [off] has [n + 1] non-decreasing
    entries from [0] to [Array.length dst], the lengths of [dst] and
    [label] agree, and every destination is in range. *)

val of_csr_bytes :
  int -> off:int array -> dst:int array -> label:Bytes.t -> int t
(** {!of_csr} with one byte per label: edge [e] is labelled
    [Char.code (Bytes.get label e)], an int in [0 .. 255]. Every accessor
    returns the same ints as {!of_csr} over the widened array. Takes
    [label] over without copying.
    @raise Invalid_argument like {!of_csr}. *)

val add_edge : 'a t -> src:int -> dst:int -> 'a -> unit
(** Appends an edge (the next id) and drops the indexes.
    @raise Invalid_argument if an endpoint is out of range. *)

val node_count : 'a t -> int
val edge_count : 'a t -> int

val bytes : 'a t -> int
(** Bytes held by the edge arrays (capacity, not just [edge_count]) plus
    whichever indexes are built; boxed labels' own blocks are not
    counted. A graph fresh from {!of_arrays} with [int] labels costs
    exactly [24 * edge_count]; one from {!of_csr}, whose out-index is
    built in, [16 * edge_count + 8 * (node_count + 1)]; one from
    {!of_csr_bytes}, [9 * edge_count + 8 * (node_count + 1)]. *)

(** {2 Adjacency}

    Every accessor below builds the index it needs on first use. *)

val succ : 'a t -> int -> int list
(** Successor nodes, with multiplicity, in insertion order. *)

val pred : 'a t -> int -> int list
(** Predecessor nodes, with multiplicity, in insertion order. *)

val out_edges : 'a t -> int -> 'a edge list
(** In insertion order. *)

val in_edges : 'a t -> int -> 'a edge list
(** In insertion order. *)

val edges : 'a t -> 'a edge list
(** All edges grouped by source node in increasing order, insertion order
    within a source ("CSR order"). *)

val out_degree : 'a t -> int -> int
val in_degree : 'a t -> int -> int

val has_self_loop : 'a t -> int -> bool

val iter_succ : 'a t -> int -> (int -> unit) -> unit
(** Successor nodes, with multiplicity, in {e reverse} insertion order —
    the opposite of {!succ}. {!Topo.topological_order}'s tie order follows
    from it. *)

val fold_edges : ('acc -> 'a edge -> 'acc) -> 'acc -> 'a t -> 'acc
(** Over {!edges}, in CSR order. *)

(** {2 Raw CSR access}

    For graph algorithms that walk the index with array stacks instead
    of lists. The arrays are the graph's own: do not mutate them, and do
    not keep them across {!add_edge}. *)

type csr = private {
  off : int array;
      (** [node_count + 1] offsets: node [v]'s edges are at positions
          [off.(v) .. off.(v + 1) - 1], in insertion order. *)
  ends : int array;
      (** [ends.(k)] is the destination of the edge at position [k]. May
          be longer than [edge_count]. *)
  ids : int array;  (** See {!csr_edge}. *)
}

val out_csr : 'a t -> csr
(** The out-index. Positions [0 .. edge_count - 1] run in CSR order
    (the order of {!edges}). *)

val csr_edge : csr -> int -> int
(** The edge id at a position. *)

val edge : 'a t -> int -> 'a edge
(** The edge with the given id (a binary search over the offsets finds
    the source of a source-free graph's edge).
    @raise Invalid_argument if the id is out of range. *)

val edge_label : 'a t -> int -> 'a
(** @raise Invalid_argument if the id is out of range. *)

(** {2 Derived graphs}

    Each result is a fresh graph whose edges are inserted in the source
    graph's CSR order. *)

val map_labels : ('a -> 'b) -> 'a t -> 'b t

val filter_edges : ('a edge -> bool) -> 'a t -> 'a t
(** Same nodes, only the edges satisfying the predicate. *)

val drop_self_loops : 'a t -> 'a t

val reverse : 'a t -> 'a t

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** Edges in CSR order. *)
