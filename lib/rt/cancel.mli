(** Domain-safe cooperative cancellation.

    A token is shared between a requester (a signal handler, a serving
    thread, a budget check) and any number of workers that poll it at
    wave/chunk boundaries. The first request wins; later requests are
    ignored so the recorded reason names what actually stopped the run.

    Requests are a single [Atomic.set], so they are safe from OCaml
    signal handlers and from any domain. *)

type reason =
  | Deadline  (** wall-clock budget exhausted *)
  | Max_states  (** state-count budget exhausted *)
  | Max_bytes  (** byte budget exhausted *)
  | Signal of string  (** e.g. ["SIGINT"], ["SIGTERM"] *)
  | Requested of string  (** programmatic cancellation with a label *)

type t

val create : unit -> t

val request : t -> reason -> unit
(** Record the reason unless one is already recorded. *)

val get : t -> reason option
(** The winning reason, if any. A plain [Atomic.get] — cheap enough for
    per-chunk polling. *)

val clear : t -> unit
(** Forget any recorded reason (for reusing a token across runs in
    tests). *)

val reason_label : reason -> string
(** Stable machine-readable label: ["deadline"], ["max-states"],
    ["max-bytes"], ["signal:SIGINT"], ["requested:<label>"]. *)
