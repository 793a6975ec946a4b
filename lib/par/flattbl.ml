(* Interleaved (key, value) pairs: slot [i] is data.(2i), data.(2i+1).
   Key sentinels: [empty] marks a never-used slot (probe chains stop
   here), [tomb] a deleted one (probe chains continue through it). Real
   keys are >= 0, so both sentinels are unmistakable. *)

let empty = -1
let tomb = -2

type t = {
  mutable data : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable count : int;  (* live bindings *)
  mutable used : int;  (* live + tombstones: what load is measured on *)
}

(* splitmix64 finalizer — state codes are dense mixed-radix ids, so
   consecutive keys must land in unrelated slots. Same mix as
   Shardmap's shard selector, for the same reason. *)
let mix key =
  let h = Int64.of_int key in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 31)) land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(capacity = 16) () =
  let cap = pow2_at_least (max 2 capacity) 2 in
  { data = Array.make (2 * cap) empty; mask = cap - 1; count = 0; used = 0 }

let length t = t.count
let capacity t = t.mask + 1
let bytes t = 8 * (Array.length t.data + 4)

let[@inline] check_key key =
  if key < 0 then invalid_arg "Flattbl: keys must be non-negative"

(* Slot of [key] if present, else the first reusable slot (tombstone if
   the chain crossed one, else the terminating empty). The chain is
   finite: load never reaches 1. *)
let[@inline] probe t key =
  let data = t.data and mask = t.mask in
  let rec go i first_tomb =
    let k = Array.unsafe_get data (2 * i) in
    if k = key then i
    else if k = empty then if first_tomb >= 0 then first_tomb else i
    else
      go ((i + 1) land mask)
        (if k = tomb && first_tomb < 0 then i else first_tomb)
  in
  go (mix key land mask) (-1)

let mem t key =
  check_key key;
  t.data.(2 * probe t key) = key

let find_def t key default =
  check_key key;
  let i = probe t key in
  if Array.unsafe_get t.data (2 * i) = key then
    Array.unsafe_get t.data ((2 * i) + 1)
  else default

let find_opt t key =
  check_key key;
  let i = probe t key in
  if t.data.(2 * i) = key then Some t.data.((2 * i) + 1) else None

let iter t f =
  let data = t.data in
  for i = 0 to t.mask do
    let k = data.(2 * i) in
    if k >= 0 then f k data.((2 * i) + 1)
  done

(* Rehash into [cap] slots, dropping tombstones. The insert loop needs no
   tombstone or duplicate handling: every key is distinct and the target
   is all-empty. *)
let rehash t cap =
  let old = t.data in
  let old_mask = t.mask in
  t.data <- Array.make (2 * cap) empty;
  t.mask <- cap - 1;
  t.used <- t.count;
  let data = t.data and mask = t.mask in
  for i = 0 to old_mask do
    let k = old.(2 * i) in
    if k >= 0 then begin
      let j = ref (mix k land mask) in
      while Array.unsafe_get data (2 * !j) <> empty do
        j := (!j + 1) land mask
      done;
      data.(2 * !j) <- k;
      data.((2 * !j) + 1) <- old.((2 * i) + 1)
    end
  done

let add t key v =
  check_key key;
  let i = probe t key in
  let k = t.data.(2 * i) in
  t.data.(2 * i) <- key;
  t.data.((2 * i) + 1) <- v;
  if k <> key then begin
    t.count <- t.count + 1;
    if k = empty then t.used <- t.used + 1;
    (* grow at 3/4 load; if half the occupancy is tombstones the rehash
       only compacts, keeping the capacity (no unbounded doubling from
       add/remove churn) *)
    if 4 * (t.used + 1) > 3 * (t.mask + 1) then
      rehash t
        (if 2 * t.count > t.mask + 1 then 2 * (t.mask + 1) else t.mask + 1)
  end

let remove t key =
  check_key key;
  let i = probe t key in
  if t.data.(2 * i) = key then begin
    t.data.(2 * i) <- tomb;
    t.count <- t.count - 1
  end

let max_probe t =
  let worst = ref 0 in
  iter t (fun k _ ->
      let start = mix k land t.mask in
      let i = ref start and steps = ref 0 in
      while t.data.(2 * !i) <> k do
        incr steps;
        i := (!i + 1) land t.mask
      done;
      if !steps > !worst then worst := !steps);
  !worst
