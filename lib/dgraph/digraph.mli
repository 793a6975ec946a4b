(** Directed multigraphs over dense integer nodes.

    Nodes are [0 .. node_count - 1]; each edge carries a polymorphic label.
    Parallel edges and self-loops are allowed — the paper's constraint graph
    has one edge per convergence action, and self-loops are semantically
    significant (Section 6).

    {b Storage.} One immutable CSR form: per-node offsets and, per
    edge, its destination and label, in CSR order — grouped by source
    node in increasing order, insertion order within a source. An edge's
    id is its position in that order, and its source is read off the
    offsets. Labels take a word each, or one byte each for graphs built
    by {!of_csr_bytes}: an int-labelled graph costs 16 bytes per edge
    plus 8 per node, 9 per edge with byte labels. {!of_csr} and
    {!of_csr_bytes} take their arrays over as they are; {!of_edges}
    sorts a list into them (a stable counting sort by source). The
    out-index is the storage itself; the in-index ({!pred},
    {!in_edges}, {!in_degree}) is built on the first of those queries:
    offsets plus two words per edge.

    {b Order.} "Insertion order" below is the order of the edges of one
    source as given to the constructor; edge ids run in CSR order. *)

type 'a t

type 'a edge = { src : int; dst : int; label : 'a }

val of_edges : int -> (int * int * 'a) list -> 'a t
(** [of_edges n edges] builds a graph on [n] nodes from [(src, dst, label)]
    triples; the triples of one source keep their list order.
    @raise Invalid_argument if [n < 0] or an endpoint is out of range. *)

val of_csr : int -> off:int array -> dst:int array -> label:'a array -> 'a t
(** [of_csr n ~off ~dst ~label] is the graph on [n] nodes whose edge [e]
    leaves the node [v] with [off.(v) <= e < off.(v + 1)] for
    [dst.(e)], labelled [label.(e)]. Takes the arrays over without
    copying: the caller must not mutate them afterwards.
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

val node_count : 'a t -> int
val edge_count : 'a t -> int

val bytes : 'a t -> int
(** Bytes held by the offsets, edge arrays and, once built, the
    in-index; boxed labels' own blocks are not counted. An [int]-labelled
    graph from {!of_edges} or {!of_csr} costs exactly
    [16 * edge_count + 8 * (node_count + 1)] before its in-index is
    built; one from {!of_csr_bytes},
    [9 * edge_count + 8 * (node_count + 1)]. *)

(** {2 Adjacency}

    The in-edge accessors build the in-index on first use. *)

val succ : 'a t -> int -> int list
(** Successor nodes, with multiplicity, in insertion order. *)

val pred : 'a t -> int -> int list
(** Predecessor nodes, with multiplicity, in edge-id order. *)

val out_edges : 'a t -> int -> 'a edge list
(** In insertion order. *)

val in_edges : 'a t -> int -> 'a edge list
(** In edge-id order. *)

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
    of lists. The arrays are the graph's own: do not mutate them. *)

type csr = private {
  off : int array;
      (** [node_count + 1] offsets: node [v]'s edges are at positions
          [off.(v) .. off.(v + 1) - 1], in insertion order. *)
  ends : int array;
      (** [ends.(k)] is the destination of the edge at position [k]. *)
  ids : int array;  (** See {!csr_edge}. *)
}

val out_csr : 'a t -> csr
(** The out-index: the graph's own storage. Positions
    [0 .. edge_count - 1] run in CSR order (the order of {!edges}), and
    a position is its edge's id. *)

val csr_edge : csr -> int -> int
(** The edge id at a position. *)

val edge : 'a t -> int -> 'a edge
(** The edge with the given id (a binary search over the offsets finds
    its source).
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
