type reason =
  | Deadline
  | Max_states
  | Max_bytes
  | Signal of string
  | Requested of string

type t = reason option Atomic.t

let create () = Atomic.make None

(* First request wins. A lost race just means someone else's reason was
   recorded first — exactly the semantics we want, so no retry loop. *)
let request t reason =
  ignore (Atomic.compare_and_set t None (Some reason))

let get t = Atomic.get t
let clear t = Atomic.set t None

let reason_label = function
  | Deadline -> "deadline"
  | Max_states -> "max-states"
  | Max_bytes -> "max-bytes"
  | Signal s -> "signal:" ^ s
  | Requested s -> "requested:" ^ s
