(** Minimal JSON values: just enough to render metrics snapshots and
    JSONL trace events, and to parse them back in tests and tooling.
    No external dependency — the container has no yojson. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Non-finite floats render as [null]
    — JSON has no representation for them. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error. Numbers
    without [.], [e] or [E] that fit in an OCaml [int] parse as {!Int},
    everything else as {!Float}. [Error msg] carries a position. *)

val member : string -> t -> t option
(** Field lookup in an {!Obj}; [None] on missing field or non-object. *)

val to_int : t -> int option
(** The int value of an {!Int} (or integral {!Float}); [None] otherwise. *)
