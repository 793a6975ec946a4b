(** Resource budgets for long-running explorations.

    A budget is a set of optional ceilings — wall-clock deadline,
    visited-state count, flat-storage bytes — that a search compares
    against its own live accounting at wave/chunk boundaries (see
    {!Guard}). Exceeding a budget is {e graceful}: the search stops
    cooperatively with a partial verdict (and, when enabled, a resumable
    checkpoint), unlike the engine's hard [max_states] cap which raises
    [Region_overflow].

    Deadlines are stored as absolute [Unix.gettimeofday] timestamps so
    one budget value can govern a whole pipeline (span, then closure,
    then convergence) without the clock restarting at each phase. *)

type t = {
  deadline : float option;  (** absolute [Unix.gettimeofday] timestamp *)
  max_states : int option;  (** ceiling on visited/explored states *)
  max_bytes : int option;  (** ceiling on live flat-storage bytes *)
}

val unlimited : t
(** No ceilings; {!Guard.poll} against it never trips. *)

val make : ?deadline_s:float -> ?max_states:int -> ?max_bytes:int -> unit -> t
(** [deadline_s] is {e relative} seconds from now, converted to an
    absolute timestamp at call time. Omitted fields are unlimited.
    @raise Invalid_argument on a negative [deadline_s], or a
    non-positive [max_states] or [max_bytes]. *)

val is_unlimited : t -> bool
