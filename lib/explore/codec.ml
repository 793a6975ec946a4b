module Env = Guarded.Env
module State = Guarded.State
module Var = Guarded.Var
module Domain = Guarded.Domain

type t = {
  env : Env.t;
  bases : int array;  (** domain size per slot *)
  lows : int array;  (** smallest legal value per slot *)
  weights : int array;  (** dense mixed-radix place values (garbage past 60 bits) *)
  states : float;
  dense_bits : int;
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
  let dense_bits =
    if dense_ok then bits_for (int_of_float states)
    else
      (* over the int range: ceil(log2 states), summed per slot so that it
         stays finite when the float count does not, and floored at 61 so
         dense_ok and dense_bits never disagree *)
      let log2 =
        Array.fold_left (fun acc b -> acc +. Float.log2 (float_of_int b)) 0. bases
      in
      max 61 (int_of_float (Float.ceil log2))
  in
  { env; bases; lows; weights; states; dense_bits }

let env t = t.env
let states t = t.states
let slots t = Array.length t.bases
let dense_bits t = t.dense_bits
let dense_ok t = t.states <= float_of_int dense_max

let require_dense t =
  if not (dense_ok t) then
    raise (Overflow { layout = "dense"; bits = t.dense_bits; states = t.states })

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

(* the odometer: bump the lowest-weight slot, carrying past each base
   (a loop: a local recursive closure would allocate at every step) *)
let next_into t s =
  let i = ref 0 and n = Array.length t.bases in
  while !i < n do
    let v = State.get_index s !i + 1 in
    if v - t.lows.(!i) < t.bases.(!i) then begin
      State.set_index s !i v;
      i := n
    end
    else begin
      State.set_index s !i t.lows.(!i);
      incr i
    end
  done

let places t = Array.copy t.weights

(* The table prints, per slot, the width and offset a bit-field layout
   would give it, and their total: no key uses them, but checkpoint
   config hashes fold this text in, so it must not change. *)
let pp_layout ppf t =
  let n = slots t in
  let bits = Array.map bits_for t.bases in
  let shifts = Array.make n 0 in
  for i = 1 to n - 1 do
    shifts.(i) <- shifts.(i - 1) + bits.(i - 1)
  done;
  Format.fprintf ppf
    "@[<v>codec: %d slots, %.3g states, dense %d bits, packed %d bits@,"
    n t.states t.dense_bits
    (Array.fold_left ( + ) 0 bits);
  Array.iteri
    (fun i base ->
      Format.fprintf ppf "  slot %d: base %d  low %d  bits %d  shift %d%s@,"
        i base t.lows.(i) bits.(i) shifts.(i)
        (if dense_ok t then Printf.sprintf "  weight %d" t.weights.(i) else ""))
    t.bases;
  Format.fprintf ppf "@]"
