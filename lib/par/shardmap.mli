(** Sharded int→int hash maps for concurrent visited sets.

    {b No engine uses this module any more.} The parallel searches
    only read their visited table while workers run and write it alone
    between rounds, so they probe the engine's lock-free
    [Explore.Flatset] instead (see {!Flattbl}'s concurrency contract).
    The module is kept because the benchmark replays its insert and
    lookup costs; it goes when the benchmark stops measuring it.

    Keys are state codes ({!Explore.Space.encode} dense ids). A [Shardmap.t] spreads those keys over a power-of-two number of
    shards — each a flat open-addressing {!Flattbl} behind its own
    mutex — so probes from many domains contend on different locks
    with high probability, and each entry costs two unboxed words
    instead of a boxed [Hashtbl] bucket cell. Keys are spread by a
    splitmix64-style finalizer, not by low bits: state codes are
    dense, and low-bit sharding would put entire BFS levels in one
    shard.

    The intended access pattern is phased: during a parallel phase
    every domain may call {!find_opt}/{!find_def}/{!mem} (and, if it
    owns the key, {!add}); the sequential merge between phases may use
    the unlocked {!iter}/{!length}.

    {b Growth under contention}: a shard grows (rehashing into a
    doubled flat array) inside {!add}, while the caller holds that
    shard's mutex. Every reader of the same shard also takes the
    mutex, so no domain can observe a half-built table, and other
    shards are untouched — resizing is safe {e by construction}, not
    by a no-resize protocol invariant. The multi-domain stress test in
    [test/test_storage.ml] drives every shard through several
    doublings under 4-way contention to pin this. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] (default [64]) is rounded up to a power of two. *)

val find_opt : t -> int -> int option
val mem : t -> int -> bool

val find_def : t -> int -> int -> int
(** [find_def t key default] — allocation-free probe for the BFS inner
    loop. *)

val add : t -> int -> int -> unit
(** Bind the key, replacing any previous binding. *)

val length : t -> int
(** Total bindings across shards. Not linearizable with concurrent
    writers; call it from quiescent (merge) phases. *)

val iter : t -> (int -> int -> unit) -> unit
(** Visit every binding, shard by shard, without locking — merge-phase
    only. *)

val to_hashtbl : t -> (int, int) Hashtbl.t
(** Snapshot into a plain [Hashtbl] (merge-phase only). *)

val bytes : t -> int
(** Heap footprint of the shard storage (merge-phase only). *)
