module Env = Guarded.Env
module State = Guarded.State
module Var = Guarded.Var
module Domain = Guarded.Domain

type t = {
  env : Env.t;
  bases : int array;  (** domain size per slot *)
  lows : int array;  (** smallest legal value per slot *)
  weights : int array;  (** dense mixed-radix place values (garbage past 62 bits) *)
  bits : int array;  (** packed field width per slot *)
  shifts : int array;  (** packed field offset per slot *)
  wide_word : int array;  (** two-word layout: word (0/1) per slot *)
  wide_shift : int array;  (** two-word layout: offset within the word *)
  wide_fits : bool;
  states : float;
  dense_bits : int;
  packed_bits : int;
}

exception Overflow of { layout : string; bits : int; states : float }

(* Keep the float comparison semantics Space.create has always used: a
   space is dense-encodable iff its float state count does not exceed
   2^60. encodable_max itself lives in Space; duplicating the constant
   here would invite drift, but Space is built on Codec, so the constant
   must live on this side. *)
let dense_max = 1 lsl 60

let bits_for base =
  (* ceil(log2 base); 0 for single-value domains *)
  let rec go b acc = if b <= 1 then acc else go ((b + 1) / 2) (acc + 1) in
  go base 0

let of_env env =
  let vars = Env.vars env in
  let n = Array.length vars in
  let bases = Array.map (fun v -> Domain.size (Var.domain v)) vars in
  let lows =
    Array.map
      (fun v ->
        match Var.domain v with
        | Domain.Range { lo; _ } -> lo
        | Domain.Bool | Domain.Enum _ -> 0)
      vars
  in
  let weights = Array.make n 1 in
  let states = Env.state_space_size env in
  let dense_ok = states <= float_of_int dense_max in
  if dense_ok then
    for i = 1 to n - 1 do
      weights.(i) <- weights.(i - 1) * bases.(i - 1)
    done;
  let bits = Array.map bits_for bases in
  let shifts = Array.make n 0 in
  for i = 1 to n - 1 do
    shifts.(i) <- shifts.(i - 1) + bits.(i - 1)
  done;
  let packed_bits = if n = 0 then 0 else shifts.(n - 1) + bits.(n - 1) in
  (* Two-word layout: fields are assigned to word 0 until the next one
     would cross bit 62, then continue from bit 0 of word 1 — fields
     never straddle the word boundary, so encode/decode stay one shift
     per slot. The alignment waste is under one field's width. *)
  let wide_word = Array.make n 0 in
  let wide_shift = Array.make n 0 in
  let word = ref 0 and off = ref 0 in
  let wide_fits = ref true in
  for i = 0 to n - 1 do
    if !off + bits.(i) > 62 then
      if !word = 0 then begin
        word := 1;
        off := 0
      end
      else wide_fits := false;
    wide_word.(i) <- !word;
    wide_shift.(i) <- !off;
    off := !off + bits.(i)
  done;
  if !off > 62 then wide_fits := false;
  let dense_bits =
    if dense_ok then bits_for (int_of_float states)
    else
      (* over the int range: report the packed width as an upper bound,
         floored at 61 so dense_ok and dense_bits never disagree *)
      max 61 (min 126 packed_bits)
  in
  {
    env;
    bases;
    lows;
    weights;
    bits;
    shifts;
    wide_word;
    wide_shift;
    wide_fits = !wide_fits;
    states;
    dense_bits;
    packed_bits;
  }

let env t = t.env
let states t = t.states
let slots t = Array.length t.bases
let dense_bits t = t.dense_bits
let packed_bits t = t.packed_bits
let dense_ok t = t.states <= float_of_int dense_max
let packed_ok t = t.packed_bits <= 62
let wide_ok t = t.wide_fits

let require layout ok bits t =
  if not ok then raise (Overflow { layout; bits; states = t.states })

let require_dense t = require "dense" (dense_ok t) t.dense_bits t
let require_packed t = require "packed" (packed_ok t) t.packed_bits t
let require_wide t = require "wide" (wide_ok t) t.packed_bits t

let dense_size t =
  require_dense t;
  int_of_float t.states

let[@inline] digit t s i =
  let d = State.get_index s i - t.lows.(i) in
  if d < 0 || d >= t.bases.(i) then
    invalid_arg "Codec.encode: state outside domains";
  d

let encode_dense t s =
  let acc = ref 0 in
  for i = 0 to Array.length t.bases - 1 do
    acc := !acc + (digit t s i * t.weights.(i))
  done;
  !acc

let decode_dense_into t code s =
  let rem = ref code in
  for i = 0 to Array.length t.bases - 1 do
    State.set_index s i ((!rem mod t.bases.(i)) + t.lows.(i));
    rem := !rem / t.bases.(i)
  done

let encode_packed t s =
  let acc = ref 0 in
  for i = 0 to Array.length t.bases - 1 do
    acc := !acc lor (digit t s i lsl t.shifts.(i))
  done;
  !acc

let decode_packed_into t code s =
  for i = 0 to Array.length t.bases - 1 do
    let d = (code lsr t.shifts.(i)) land ((1 lsl t.bits.(i)) - 1) in
    State.set_index s i (d + t.lows.(i))
  done

let places t ~packed =
  if packed then Array.map (fun sh -> 1 lsl sh) t.shifts
  else Array.copy t.weights

let encode_wide t s =
  require_wide t;
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to Array.length t.bases - 1 do
    let d = digit t s i lsl t.wide_shift.(i) in
    if t.wide_word.(i) = 0 then lo := !lo lor d else hi := !hi lor d
  done;
  (!lo, !hi)

let decode_wide_into t (lo, hi) s =
  for i = 0 to Array.length t.bases - 1 do
    let word = if t.wide_word.(i) = 0 then lo else hi in
    let d = (word lsr t.wide_shift.(i)) land ((1 lsl t.bits.(i)) - 1) in
    State.set_index s i (d + t.lows.(i))
  done

let pp_layout ppf t =
  Format.fprintf ppf
    "@[<v>codec: %d slots, %.3g states, dense %d bits, packed %d bits@,"
    (slots t) t.states t.dense_bits t.packed_bits;
  Array.iteri
    (fun i base ->
      Format.fprintf ppf "  slot %d: base %d  low %d  bits %d  shift %d%s@,"
        i base t.lows.(i) t.bits.(i) t.shifts.(i)
        (if dense_ok t then Printf.sprintf "  weight %d" t.weights.(i) else ""))
    t.bases;
  Format.fprintf ppf "@]"
