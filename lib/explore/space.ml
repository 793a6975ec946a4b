module Env = Guarded.Env
module State = Guarded.State

(* A space is the dense layout of a codec plus the materialization cap:
   the mixed-radix arithmetic itself lives in Codec (one audited
   implementation, whose place values the engines' steppers share). *)
type t = { codec : Codec.t; size : int }

exception Too_large of float

let encodable_max = 1 lsl 60

let of_codec ?(max_states = 2_000_000) codec =
  let total = Codec.states codec in
  if total > float_of_int (min max_states encodable_max) then
    raise (Too_large total);
  { codec; size = int_of_float total }

let create ?max_states env = of_codec ?max_states (Codec.of_env env)

let create_unbounded env = create ~max_states:encodable_max env
let env t = Codec.env t.codec
let size t = t.size
let codec t = t.codec
let encode t s = Codec.encode_dense t.codec s
let decode_into t id s = Codec.decode_dense_into t.codec id s

let decode t id =
  let s = State.make (env t) in
  decode_into t id s;
  s

(* the odometer: one increment per id instead of a decode (past the
   last id it wraps to id 0, which nothing reads) *)
let iter t f =
  let buf = State.make (env t) in
  decode_into t 0 buf;
  for id = 0 to t.size - 1 do
    f id buf;
    Codec.next_into t.codec buf
  done

let count_satisfying t p =
  let c = ref 0 in
  iter t (fun _ s -> if p s then incr c);
  !c
