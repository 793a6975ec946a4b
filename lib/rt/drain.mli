(** Graceful drain for long-lived processes (the serve daemon).

    Two latches: {e soft} — stop accepting new work, finish (or
    checkpoint) what is already queued; {e hard} — additionally request
    cooperative cancellation of the work in flight through the embedded
    {!Cancel} token, so jobs whose guards link to it stop at their next
    polling point with the documented incomplete semantics.

    {!install_signals} maps the first delivery of each signal to a soft
    drain and any further delivery to a hard drain. Handlers only flip
    atomics and mark the token; the process's threads observe the
    latches at their own polling points (accept loop, scheduler,
    executor), so no lock is ever taken in signal context. *)

type t

val create : unit -> t

val request : t -> unit
(** Request a soft drain (idempotent). *)

val requested : t -> bool

val request_hard : t -> unit
(** Request a hard drain: implies soft, and marks {!cancel} with
    [Signal "drain"]. *)

val cancel : t -> Cancel.t
(** The token hard drain marks. Link per-job guards to it
    ([Rt.Guard.create ~link:(Drain.cancel d)]) so escalation reaches
    running jobs cooperatively. *)

val install_signals : ?signals:int list -> t -> unit
(** Install handlers (default [SIGTERM; SIGINT]): first delivery →
    {!request}, later deliveries → {!request_hard}. Signals unknown to
    the platform are skipped. *)
