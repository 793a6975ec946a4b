(** Topological structure of directed graphs.

    Provides acyclicity tests, topological orders, the paper's rank function
    (Section 5: rank of node [j] is [1 + max] rank over proper predecessors),
    and longest paths in DAGs (worst-case convergence step counts). *)

val tick : (unit -> unit) option -> int -> unit
(** [tick poll i] runs [poll], when given, for [i] = 0 and every 4096th
    [i] after: the cadence at which every graph pass here, and the
    analyses built on them, reach their caller's stop point. An exception
    [poll] raises propagates. *)

val is_acyclic : 'a Digraph.t -> bool
(** True iff the graph has no cycle; self-loops count as cycles. *)

val is_acyclic_ignoring_self_loops : 'a Digraph.t -> bool

val topological_order : 'a Digraph.t -> int list option
(** Kahn's algorithm; [None] when the graph is cyclic (self-loops included). *)

val ranks : 'a Digraph.t -> int array option
(** The paper's rank: [rank j = 1 + max { rank k | edge k -> j, k <> j }],
    with the max over an empty set taken as 0 (so sources have rank 1).
    Defined only when the graph is acyclic apart from self-loops; returns
    [None] otherwise. *)

val longest_path_lengths : ?poll:(unit -> unit) -> 'a Digraph.t -> int array option
(** For a DAG (self-loops excluded must still be absent), the length in edges
    of the longest path {e ending} at each node. [None] on cyclic graphs.
    [poll] (default none) runs at the first node of each pass and every
    4096 nodes after; an exception it raises propagates. *)

val find_cycle : ?poll:(unit -> unit) -> 'a Digraph.t -> int list option
(** A node sequence [v0; v1; ...; vk] with edges [v0->v1->...->vk] and
    [vk = v0]'s successor closing the cycle — concretely, edges exist between
    consecutive elements and from the last back to the first. [None] iff
    acyclic. A self-loop yields a singleton list. [poll] as in
    {!longest_path_lengths}. *)
