(** Visited tables for the exploration engines, in flat storage.

    A Flatset maps non-negative state keys to small int values (node
    ids, BFS depths) in one of two representations, chosen from the
    space's shape:

    - {b Direct}: a [Bigarray] of int32 indexed by the {e dense} state
      code — 4 bytes per state of the whole space, O(1) exact lookup,
      no hashing, no growth. The right choice when the dense code range
      is materializable and the search expects to visit a sizable
      fraction of it (the engine's auto rule: range ≤ 2^28 slots and
      ≤ 8× the exploration budget). Values must fit an int32; absent
      entries read as the caller's default.

    - {b Probed}: an open-addressing {!Par.Flattbl} keyed by any
      non-negative code — ~16/load bytes per
      {e visited} state, growing by doubling. The choice for sparse
      exploration of huge spaces.

    Both are allocation-free on the probe path and both answer
    {!bytes}, so engines report bytes/state uniformly.

    {b Concurrency}: the reads ({!mem}, {!find_def}, {!length},
    {!iter}, {!bytes}) mutate nothing, so any number of domains may
    call them at once while no domain writes. {!add} and {!remove}
    (which may rehash a probed table) need exclusive access. The
    parallel searches rely on exactly this: workers probe during a
    fork/join round, and only the caller writes, between rounds. *)

type t

val direct : size:int -> t
(** Direct-mapped table over dense codes [0 .. size-1]. Allocates
    [4 * size] bytes up front. @raise Invalid_argument when [size] is
    negative or exceeds [2^30] slots. *)

val probed : ?capacity:int -> unit -> t
(** Open-addressing table; [capacity] as in {!Par.Flattbl.create}. *)

val kind : t -> [ `Direct | `Probed ]
val mem : t -> int -> bool

val find_def : t -> int -> int -> int
(** [find_def t key default] — allocation-free lookup. *)

val add : t -> int -> int -> unit
(** Bind the key, replacing any previous binding. Direct tables
    @raise Invalid_argument when the value needs more than 31 bits or
    the key is out of range. *)

val remove : t -> int -> unit
val length : t -> int

val iter : t -> (int -> int -> unit) -> unit
(** Visit every binding: direct tables in key order, probed tables in
    storage order. *)

val bytes : t -> int
(** Heap footprint of the backing storage. *)
