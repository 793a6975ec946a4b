(** Tolerance-frontier sweeps.

    The paper certifies nonmasking [T]-tolerance at one fault budget; a
    sweep quantifies it, running {!Nonmask.Certify.tolerance} across a
    budget range and reporting, per budget: the span size and depth, the
    certification verdict, the exact worst-case recovery bound, and
    (optionally) the independent adversary bound ({!Adversary}). The
    {e cliff} is the first budget where the verdict flips — the edge of
    the program's quantified tolerance.

    Spans are monotone in the budget, and once a budget-[b] span's
    deepest fault layer sits strictly below [b] the closure is
    saturated: every larger budget yields the identical span, hence the
    identical certificate and adversary bound. The sweep walks budgets
    in ascending order and replays saturated points with
    [reused = true] instead of re-exploring; below saturation each span
    is computed once and shared between certification and the
    adversary. *)

type point = {
  budget : int;
  span_states : int;  (** [|T|] at this budget *)
  span_roots : int;
  max_depth : int;  (** deepest fault layer actually reached *)
  certified : bool;
  worst_case : int option;
      (** exact worst-case recovery steps from the certificate's
          convergence check; [None] when unavailable (weak-fairness
          fallback or failed certification) *)
  adversary : Adversary.result option;  (** when the sweep ran with it *)
  reused : bool;  (** replayed from a saturated smaller budget *)
  cert : Nonmask.Certify.t;  (** the full certificate *)
}

type frontier = {
  points : point list;  (** ascending budget order *)
  cliff : int option;
      (** first budget whose verdict differs from its predecessor's;
          [None] when the verdict is uniform *)
}

val range : max:int -> int list
(** [[0; 1; …; max]].
    @raise Invalid_argument when [max < 0]. *)

val adversary_bound : Adversary.result -> int option
(** The finite bound, if the verdict is [Bounded]. *)

val point_json : point -> Obs.Json.t
(** One point as the JSON object both front ends emit — a line of the
    CLI's [tolerance --report] file and an element of a serve tolerance
    reply's [points]: [budget], [span_states], [span_roots], [max_depth],
    [certified], [worst_case] ([null] when unavailable), [reused], and —
    when the sweep ran the adversary — [adversary_bound] (an integer or
    ["unbounded"]). *)

val run :
  engine:Explore.Engine.t ->
  program:Guarded.Program.t ->
  faults:Guarded.Action.t list ->
  ?envs:Guarded.Action.t list ->
  invariant:(Guarded.State.t -> bool) ->
  ?from:Explore.Engine.roots ->
  budgets:int list ->
  ?adversary:bool ->
  ?on_point:(point -> unit) ->
  name:string ->
  unit ->
  frontier
(** Sweep the budgets (sorted ascending, deduplicated). Each point
    certifies with a precomputed span ({!Explore.Faultspan.compute} once
    per unsaturated budget, handed to [Certify.tolerance ~span]); with
    [adversary] (default [false]) it also runs {!Adversary.worst_case}
    over the same span. [envs] are environment actions, threaded through
    both the span and the certificate.

    [on_point] fires after each point, in budget order — stream points
    to a report file so an interrupted sweep still leaves the partial
    curve behind. The engine's {!Obs.Ctx} receives a ["tol.point"] event
    per point and a closing ["tol.frontier"] event.

    @raise Invalid_argument on an empty budget list or a negative
    budget.
    @raise Explore.Engine.Interrupted when the engine's guard trips
    mid-sweep (points already emitted through [on_point] stand).
    @raise Explore.Engine.Region_overflow when a span exceeds the
    engine's state budget. *)

val pp_frontier : Format.formatter -> frontier -> unit
(** Rendered table, one row per point, cliff line last. *)
