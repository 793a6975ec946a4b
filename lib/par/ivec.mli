(** Growable int vectors — the frontier/result buffers of the parallel
    searches. Not thread-safe; each domain owns its vectors, and the
    level-synchronized algorithms only share them across the sequential
    merge phases. *)

type t

val create : unit -> t

val push : t -> int -> int
(** Append, returning the element's index. *)

val len : t -> int
val get : t -> int -> int

val clear : t -> unit
(** Reset to length 0 without shrinking the backing array. *)

val swap : t -> t -> unit
(** Exchange the contents of two vectors in O(1) — the frontier flip of a
    level-synchronized search. *)

val to_array : t -> int array
(** Fresh array of the current contents. *)

val bytes : t -> int
(** Heap footprint of the backing array (capacity, not length) — feeds
    the unified storage accounting behind byte budgets. *)
