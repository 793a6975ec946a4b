(** The polling point a long-running search checks at wave/chunk
    boundaries: one value bundling a {!Budget} and a {!Cancel} token.
    Every search, sweep and analysis on an engine polls it through
    [Explore.Engine.poll]; storm and fuzz poll it between trials.

    The inert guard is shared and never trips, so engines can hold one
    unconditionally and the hot path stays a single physical-equality
    test away from the uninstrumented code. *)

type t

val inert : t
(** Never trips; {!active} is [false]. *)

val create : ?budget:Budget.t -> ?cancel:Cancel.t -> ?link:Cancel.t -> unit -> t
(** [cancel] is this guard's {e owned} token: a tripped budget marks it
    so sibling pollers converge on the stop. [link] is a parent scope's
    token, {e observed} at every poll but never marked — use it to
    tighten a budget for a sub-task (a per-trial watchdog, say) that
    must still honour the enclosing run's cancellation without its own
    local expiry poisoning the shared token. *)

val active : t -> bool
(** Whether polling can ever trip (a cancel token or a non-unlimited
    budget is attached). Callers may skip byte accounting entirely when
    this is [false]. *)

val budget : t -> Budget.t
val cancel : t -> Cancel.t option

val poll : t -> states:int -> bytes:int -> Cancel.reason option
(** The cancellation point. Checks, in order: the linked token, the
    owned cancel token, the state-count ceiling, the byte ceiling, the
    deadline (the only check that reads the clock, and only when a
    deadline is set). A tripped budget also marks the owned cancel
    token, so sibling workers observing only the token stop too; the
    linked token is read-only. *)
