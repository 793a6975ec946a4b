(** Chunk-ordered output buffers: the two-phase round of the
    level-synchronized searches.

    A frontier search expands its current wave in a parallel phase A
    that only {e reads} shared state (the visited table, the wave), and
    commits what it found in a sequential phase B, in wave order — the
    order a single-queue search would have used. [round] runs that
    discipline over an index range: phase A appends each index's output
    to the buffer of the chunk the index falls in, and phase B hands the
    buffers to the caller in chunk order, so concatenating them yields
    every index's output in index order, at any job count and under any
    scheduling.

    The range is processed in blocks of a bounded number of indices
    (phase A then phase B per block), so the buffers hold one block's
    output, not one wave's: their footprint is independent of the wave
    size. Phase A of a later block may observe what phase B of an earlier
    block committed; callers re-check on commit, as they must anyway for
    duplicates within a block. *)

type t

val create : unit -> t

val round :
  t ->
  Pool.t ->
  n:int ->
  expand:(worker:int -> Ivec.t -> int -> unit) ->
  commit:(Ivec.t -> unit) ->
  unit
(** [round t pool ~n ~expand ~commit] calls [expand ~worker out i] for
    every [i] in [\[0, n)] on some worker of [pool] ([worker] indexes
    per-worker scratch); [expand] appends index [i]'s output to [out].
    Between blocks, in the caller, [commit out] receives the buffers in
    index order. [expand] must not write state that other indices'
    [expand] calls read; [commit] runs alone and may write anything. *)

val bytes : t -> int
(** Heap footprint of the buffers (capacity, not length) — part of the
    frontier bytes that byte budgets see. *)
