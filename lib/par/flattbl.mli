(** Open-addressing int→int hash tables in flat array storage.

    The visited-set workhorse of the exploration engines: keys are
    non-negative state codes, values are small ints (node ids, BFS
    depths). Storage is a single [int array] of interleaved
    [(key, value)] pairs — two words per slot, no boxing, no per-entry
    allocation — probed linearly from a splitmix64-mixed hash, with
    power-of-two capacity and grow-by-doubling at 3/4 load. Compared to
    [(int, int) Hashtbl.t] (a 4-word bucket cell plus bucket-array slot
    per entry, ~40+ bytes/state) a flat table costs [16 / load] bytes
    per state — ~21 B at the 3/4 load bound, ~32 B right after a
    doubling.

    Removal writes a tombstone (probe chains must stay connected);
    tombstones are reclaimed at the next rehash, and a rehash triggered
    mostly by tombstones keeps the capacity instead of doubling.

    {b Concurrency}: {!mem}, {!find_def}, {!find_opt}, {!length},
    {!capacity}, {!iter}, {!bytes} and {!max_probe} mutate nothing, so
    any number of domains may call them at once while no domain
    writes. {!add} and {!remove} need exclusive access: [add] may
    replace the backing array mid-probe of a concurrent reader. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16, rounded up to a power of two) is the initial
    slot count — size it to the expected population to skip growth
    rehashes; the table grows regardless when load demands it. *)

val mem : t -> int -> bool
(** @raise Invalid_argument on a negative key (reserved for sentinels). *)

val find_def : t -> int -> int -> int
(** [find_def t key default] — the binding of [key], or [default] when
    absent. Allocation-free: this is the hot probe of the BFS inner
    loop. @raise Invalid_argument on a negative key. *)

val find_opt : t -> int -> int option

val add : t -> int -> int -> unit
(** Bind the key, replacing any previous binding. Values are
    unrestricted ints. @raise Invalid_argument on a negative key. *)

val remove : t -> int -> unit

val length : t -> int

val capacity : t -> int
(** Current slot count (a power of two). *)

val iter : t -> (int -> int -> unit) -> unit
(** Visit every binding in storage (not insertion) order. *)

val bytes : t -> int
(** Heap footprint of the backing storage. *)

val max_probe : t -> int
(** Longest probe chain any current binding sits at the end of — the
    cluster metric the probe-distribution tests bound. *)
