(* Tests for the flat state-storage layer: the dense codec and its
   typed overflow, the
   open-addressing tables (Flattbl / Flatset) against a boxed Hashtbl
   reference, the chunked frontier queue, Shardmap growth under
   multi-domain contention, concurrent reads of both Flatset
   representations, the region edge buffer across its block
   boundaries, and the engine-level guarantees — probed and direct
   searches produce the same regions, at the same overflow points,
   reporting the same visited-table bytes. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Codec = Explore.Codec
module Space = Explore.Space
module Engine = Explore.Engine
module Faultspan = Explore.Faultspan
module Flatset = Explore.Flatset
module Flatqueue = Explore.Flatqueue
module Edgebuf = Explore.Edgebuf
module Flattbl = Par.Flattbl

let env_of_sizes sizes =
  let env = Guarded.Env.create () in
  List.iteri
    (fun i n ->
      ignore
        (Guarded.Env.fresh env
           (Printf.sprintf "v%d" i)
           (Guarded.Domain.range 0 (n - 1))))
    sizes;
  env

(* --- Codec --- *)

let test_codec_roundtrip_fuzz () =
  (* every state of 200 generated models roundtrips through the dense
     layout *)
  for seed = 1 to 200 do
    let m = Gen.Generate.model (Prng.create seed) in
    let env = m.Gen.Spec.env in
    let c = Codec.of_env env in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d dense_ok" seed)
      true (Codec.dense_ok c);
    let space = Space.create_unbounded env in
    let buf = State.make env and odometer = State.make env in
    Codec.decode_dense_into c 0 odometer;
    Space.iter space (fun id s ->
        if Codec.encode_dense c s <> id then
          Alcotest.failf "seed %d: dense encode mismatch at id %d" seed id;
        Codec.decode_dense_into c id buf;
        if not (State.equal s buf) then
          Alcotest.failf "seed %d: dense decode mismatch at id %d" seed id;
        if not (State.equal s odometer) then
          Alcotest.failf "seed %d: next_into mismatch at id %d" seed id;
        Codec.next_into c odometer);
    (* the last state steps back to code 0 *)
    Codec.decode_dense_into c 0 buf;
    if not (State.equal odometer buf) then
      Alcotest.failf "seed %d: next_into does not wrap to code 0" seed
  done

let overflow_of f =
  match f () with
  | exception Codec.Overflow { layout; bits; states } -> Some (layout, bits, states)
  | _ -> None

let test_codec_dense_overflow () =
  (* 61 booleans: 2^61 states — over the 2^60 dense cap *)
  let env = env_of_sizes (List.init 61 (fun _ -> 2)) in
  let c = Codec.of_env env in
  Alcotest.(check bool) "dense overflows" false (Codec.dense_ok c);
  Alcotest.(check int) "dense bits" 61 (Codec.dense_bits c);
  (match Codec.require_dense c with
  | exception Codec.Overflow { layout; _ } ->
      Alcotest.(check string) "typed overflow names the layout" "dense" layout
  | () -> Alcotest.fail "require_dense must raise on 2^61 states");
  (* every engine refuses it in the codec's terms, eager before its own
     int32 limit; 13^56 needs ceil(56 log2 13) = 208 bits *)
  List.iter
    (fun backend ->
      Alcotest.(check bool) "engine overflow is the codec's" true
        (overflow_of (fun () -> Engine.create ~backend env)
        = Some ("dense", 61, 2. ** 61.));
      match overflow_of (fun () ->
                Engine.create ~backend (env_of_sizes (List.init 56 (fun _ -> 13))))
      with
      | Some ("dense", 208, _) -> ()
      | _ -> Alcotest.fail "13^56 states: dense overflow at 208 bits")
    [ Engine.Eager; Engine.Lazy; Engine.Parallel ];
  (* 300 base-1000 slots: the float count is infinite, the width is not *)
  let huge = Codec.of_env (env_of_sizes (List.init 300 (fun _ -> 1000))) in
  Alcotest.(check bool) "infinite count" true (Codec.states huge = infinity);
  Alcotest.(check int) "finite width" 2990 (Codec.dense_bits huge)

let test_codec_single_value_domains () =
  (* zero-bit fields (single-value domains) must not break the layout *)
  let env = Guarded.Env.create () in
  ignore (Guarded.Env.fresh env "a" (Guarded.Domain.range 0 2));
  ignore (Guarded.Env.fresh env "pinned" (Guarded.Domain.range 5 5));
  ignore (Guarded.Env.fresh env "b" (Guarded.Domain.range 0 6));
  let c = Codec.of_env env in
  let space = Space.create_unbounded env in
  Alcotest.(check int) "size" 21 (Space.size space);
  let buf = State.make env and odometer = State.make env in
  Codec.decode_dense_into c 0 odometer;
  Space.iter space (fun id s ->
      Alcotest.(check int) "dense" id (Codec.encode_dense c s);
      Codec.decode_dense_into c id buf;
      Alcotest.(check bool) "decode" true (State.equal s buf);
      Alcotest.(check bool) "next_into" true (State.equal s odometer);
      Codec.next_into c odometer)

let test_codec_out_of_domain () =
  let env = env_of_sizes [ 3; 4 ] in
  let c = Codec.of_env env in
  let s = State.make env in
  State.set_index s 0 7;
  Alcotest.(check bool) "encode rejects out-of-domain" true
    (match Codec.encode_dense c s with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Flattbl --- *)

let test_flattbl_basics () =
  let t = Flattbl.create () in
  Alcotest.(check int) "initial capacity" 16 (Flattbl.capacity t);
  for i = 0 to 999 do
    Flattbl.add t (i * 7) (i + 1000)
  done;
  Alcotest.(check int) "length" 1000 (Flattbl.length t);
  Alcotest.(check bool) "mem" true (Flattbl.mem t 7);
  Alcotest.(check bool) "not mem" false (Flattbl.mem t 8);
  Alcotest.(check int) "find_def hit" 1003 (Flattbl.find_def t 21 (-9));
  Alcotest.(check int) "find_def miss" (-9) (Flattbl.find_def t 22 (-9));
  Alcotest.(check (option int)) "find_opt" (Some 1000) (Flattbl.find_opt t 0);
  Flattbl.add t 21 77;
  Alcotest.(check int) "replace keeps length" 1000 (Flattbl.length t);
  Alcotest.(check int) "replace value" 77 (Flattbl.find_def t 21 0);
  (* capacity is a power of two respecting the 3/4 load cap *)
  let cap = Flattbl.capacity t in
  Alcotest.(check bool) "pow2 capacity" true (cap land (cap - 1) = 0);
  Alcotest.(check bool) "load under 3/4" true (4 * 1000 <= 3 * cap);
  Alcotest.(check bool) "negative key rejected" true
    (match Flattbl.add t (-1) 0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_flattbl_growth_boundary () =
  (* grow fires when used+1 crosses 3/4 of capacity: from 16 slots that
     is the 12th insert; check each boundary up to 4 doublings *)
  let t = Flattbl.create ~capacity:16 () in
  let last_cap = ref (Flattbl.capacity t) in
  let grow_points = ref [] in
  for i = 0 to 199 do
    Flattbl.add t i i;
    let cap = Flattbl.capacity t in
    if cap <> !last_cap then begin
      grow_points := (i + 1, cap) :: !grow_points;
      last_cap := cap
    end
  done;
  List.iter
    (fun (n, cap) ->
      (* the table doubled exactly when the next insert would have pushed
         the old capacity over 3/4 load *)
      Alcotest.(check bool)
        (Printf.sprintf "doubling to %d at count %d" cap n)
        true
        (4 * (n + 1) > 3 * (cap / 2) && 4 * n <= 3 * cap))
    !grow_points;
  Alcotest.(check bool) "grew at least 4 times" true
    (List.length !grow_points >= 4);
  for i = 0 to 199 do
    if Flattbl.find_def t i (-1) <> i then
      Alcotest.failf "key %d lost across growth" i
  done

let test_flattbl_tombstones () =
  let t = Flattbl.create ~capacity:16 () in
  for i = 0 to 499 do
    Flattbl.add t i (2 * i)
  done;
  for i = 0 to 499 do
    if i mod 2 = 0 then Flattbl.remove t i
  done;
  Alcotest.(check int) "length after removes" 250 (Flattbl.length t);
  for i = 0 to 499 do
    Alcotest.(check bool)
      (Printf.sprintf "mem %d" i)
      (i mod 2 = 1) (Flattbl.mem t i)
  done;
  (* probe chains must still find keys past tombstones *)
  Alcotest.(check int) "find through tombstones" 998 (Flattbl.find_def t 499 0);
  (* removing an absent key is a no-op *)
  Flattbl.remove t 10_000;
  Alcotest.(check int) "remove miss no-op" 250 (Flattbl.length t);
  (* churn: add/remove cycles trigger compacting rehashes, not unbounded
     doubling *)
  for round = 0 to 9 do
    for i = 0 to 499 do
      Flattbl.add t (1000 + i) round
    done;
    for i = 0 to 499 do
      Flattbl.remove t (1000 + i)
    done
  done;
  Alcotest.(check int) "churn leaves count intact" 250 (Flattbl.length t);
  Alcotest.(check bool) "churn capacity stays bounded" true
    (Flattbl.capacity t <= 4096);
  Alcotest.(check bool) "max_probe sane" true
    (Flattbl.max_probe t < Flattbl.capacity t)

let test_flattbl_vs_hashtbl () =
  (* randomized add/remove/replace agreement against the boxed reference *)
  let rng = Prng.create 99 in
  let t = Flattbl.create ~capacity:4 () in
  let h : (int, int) Hashtbl.t = Hashtbl.create 16 in
  for _ = 1 to 20_000 do
    let key = Prng.int rng 700 in
    match Prng.int rng 3 with
    | 0 | 1 ->
        let v = Prng.int rng 1000 - 500 in
        Flattbl.add t key v;
        Hashtbl.replace h key v
    | _ ->
        Flattbl.remove t key;
        Hashtbl.remove h key
  done;
  Alcotest.(check int) "length agrees" (Hashtbl.length h) (Flattbl.length t);
  for key = 0 to 699 do
    let expect = Hashtbl.find_opt h key in
    if Flattbl.find_opt t key <> expect then
      Alcotest.failf "binding for %d disagrees with Hashtbl" key
  done;
  let seen = ref 0 in
  Flattbl.iter t (fun k v ->
      incr seen;
      if Hashtbl.find_opt h k <> Some v then
        Alcotest.failf "iter visited stale binding %d" k);
  Alcotest.(check int) "iter visits each binding once" (Hashtbl.length h) !seen

(* --- Flatset --- *)

let test_flatset_direct () =
  let s = Flatset.direct ~size:100 in
  Alcotest.(check bool) "kind" true (Flatset.kind s = `Direct);
  Flatset.add s 0 (-1);
  (* -1 is the engines' non-member marker: it must be storable *)
  Flatset.add s 99 41;
  Alcotest.(check int) "stored -1" (-1) (Flatset.find_def s 0 7);
  Alcotest.(check bool) "mem" true (Flatset.mem s 99);
  Alcotest.(check int) "length" 2 (Flatset.length s);
  Alcotest.(check int) "miss" 7 (Flatset.find_def s 50 7);
  Alcotest.(check int) "out of range miss" 7 (Flatset.find_def s 1000 7);
  Alcotest.(check bool) "out of range add rejected" true
    (match Flatset.add s 100 0 with
    | exception Invalid_argument _ -> true
    | () -> false);
  Flatset.remove s 99;
  Alcotest.(check int) "remove" 1 (Flatset.length s);
  Alcotest.(check int) "bytes = 4/slot" 400 (Flatset.bytes s)

let test_flatset_direct_vs_probed () =
  let d = Flatset.direct ~size:2048 in
  let p = Flatset.probed () in
  let rng = Prng.create 5 in
  for _ = 1 to 10_000 do
    let key = Prng.int rng 2048 in
    if Prng.int rng 3 = 0 then begin
      Flatset.remove d key;
      Flatset.remove p key
    end
    else begin
      let v = Prng.int rng 100 in
      Flatset.add d key v;
      Flatset.add p key v
    end
  done;
  Alcotest.(check int) "lengths agree" (Flatset.length d) (Flatset.length p);
  for key = 0 to 2047 do
    if Flatset.find_def d key min_int <> Flatset.find_def p key min_int then
      Alcotest.failf "direct and probed disagree at %d" key
  done

(* --- Flatqueue --- *)

let test_flatqueue_fifo () =
  let q = Flatqueue.create ~chunk:8 () in
  Alcotest.(check bool) "starts empty" true (Flatqueue.is_empty q);
  (* strict FIFO across many chunk boundaries, with interleaved pops *)
  let next_push = ref 0 and next_pop = ref 0 in
  let rng = Prng.create 3 in
  for _ = 1 to 5000 do
    if !next_push = !next_pop || Prng.int rng 2 = 0 then begin
      Flatqueue.push q !next_push;
      incr next_push
    end
    else begin
      Alcotest.(check int) "fifo order" !next_pop (Flatqueue.pop q);
      incr next_pop
    end;
    if Flatqueue.length q <> !next_push - !next_pop then
      Alcotest.failf "length drifted at %d/%d" !next_push !next_pop
  done;
  while not (Flatqueue.is_empty q) do
    Alcotest.(check int) "drain order" !next_pop (Flatqueue.pop q);
    incr next_pop
  done;
  Alcotest.(check int) "all popped" !next_push !next_pop;
  Alcotest.(check bool) "pop on empty raises" true
    (match Flatqueue.pop q with
    | exception Flatqueue.Empty -> true
    | _ -> false);
  Alcotest.(check bool) "peak covers backlog" true
    (Flatqueue.peak_bytes q >= Flatqueue.bytes q)

let test_flatqueue_transfer_clear () =
  let src = Flatqueue.create ~chunk:4 () in
  let dst = Flatqueue.create ~chunk:4 () in
  for i = 0 to 99 do
    Flatqueue.push src i
  done;
  Flatqueue.transfer src dst;
  Alcotest.(check int) "src emptied" 0 (Flatqueue.length src);
  Alcotest.(check int) "dst took all" 100 (Flatqueue.length dst);
  (* transfer into a non-empty queue appends behind existing elements *)
  for i = 100 to 109 do
    Flatqueue.push src i
  done;
  Flatqueue.transfer src dst;
  for i = 0 to 109 do
    Alcotest.(check int) "order preserved" i (Flatqueue.pop dst)
  done;
  for i = 0 to 9 do
    Flatqueue.push dst i
  done;
  Flatqueue.clear dst;
  Alcotest.(check bool) "clear empties" true (Flatqueue.is_empty dst);
  Flatqueue.push dst 42;
  Alcotest.(check int) "usable after clear" 42 (Flatqueue.pop dst)

(* --- Shardmap growth under contention (the documented invariant) --- *)

let test_shardmap_contended_growth () =
  (* few shards + many keys from 4 domains: every shard's flat table is
     forced through several doublings while other domains probe it *)
  let m = Par.Shardmap.create ~shards:4 () in
  let n = 40_000 in
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  Par.Pool.parallel_for pool ~n (fun ~worker:_ lo hi ->
      for i = lo to hi - 1 do
        Par.Shardmap.add m i (3 * i);
        (* interleave reads of keys some other domain may be inserting,
           racing the growth rehash *)
        ignore (Par.Shardmap.find_def m ((i * 7919) mod n) 0)
      done);
  Alcotest.(check int) "all bindings landed" n (Par.Shardmap.length m);
  let ok = ref true in
  Par.Shardmap.iter m (fun k v -> if v <> 3 * k then ok := false);
  Alcotest.(check bool) "values intact" true !ok;
  for i = 0 to 99 do
    let key = i * 401 in
    Alcotest.(check int)
      (Printf.sprintf "find %d" key)
      (3 * key)
      (Par.Shardmap.find_def m key (-1))
  done;
  Alcotest.(check bool) "bytes accounted" true (Par.Shardmap.bytes m > 0)

(* --- concurrent reads (the parallel backend's phase-A contract) --- *)

let test_flatset_concurrent_reads () =
  (* a populated table of either representation, probed from 4 domains
     while nobody writes, answers exactly what a sequential probe does;
     the probed table has been through growth and tombstones first *)
  let size = 50_000 in
  let populate t =
    for k = 0 to size - 1 do
      if k mod 3 <> 0 then Flatset.add t k (k mod 1000 - 1)
    done;
    for k = 0 to size - 1 do
      if k mod 7 = 0 then Flatset.remove t k
    done;
    t
  in
  let tables =
    [
      ("direct", populate (Flatset.direct ~size));
      ("probed", populate (Flatset.probed ()));
    ]
  in
  (* probe keys include misses beyond the populated range *)
  let n = 2 * size in
  Par.Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun (name, t) ->
      let expected_find = Array.init n (fun k -> Flatset.find_def t k min_int) in
      let expected_mem = Array.init n (fun k -> Flatset.mem t k) in
      let found = Array.make n 0 and member = Array.make n false in
      Par.Pool.parallel_for ~chunk:97 pool ~n (fun ~worker:_ lo hi ->
          for k = lo to hi - 1 do
            found.(k) <- Flatset.find_def t k min_int;
            member.(k) <- Flatset.mem t k
          done);
      Alcotest.(check bool) (name ^ ": find_def agrees") true
        (found = expected_find);
      Alcotest.(check bool) (name ^ ": mem agrees") true
        (member = expected_mem);
      Alcotest.(check bool) (name ^ ": table populated") true
        (Flatset.length t > size / 2))
    tables

(* --- engine-level storage invariance --- *)

let check_identical name (a : Engine.region) (b : Engine.region) =
  Alcotest.(check (array int))
    (name ^ ": node keys")
    a.Engine.node_key b.Engine.node_key;
  Alcotest.(check (array bool)) (name ^ ": terminals") a.Engine.terminal
    b.Engine.terminal;
  Alcotest.(check int) (name ^ ": explored") a.Engine.explored b.Engine.explored;
  let edges g =
    List.map
      (fun (e : int Dgraph.Digraph.edge) -> (e.src, e.dst, e.label))
      (Dgraph.Digraph.edges g)
  in
  Alcotest.(check (list (triple int int int)))
    (name ^ ": edges")
    (edges a.Engine.graph) (edges b.Engine.graph)

let token_ring_pieces () =
  let tr = Protocols.Token_ring.make ~nodes:4 ~k:5 in
  ( Protocols.Token_ring.env tr,
    Protocols.Token_ring.combined tr,
    fun s -> Protocols.Token_ring.invariant tr s )

let test_engine_storage_invariant () =
  let env, program, inv = token_ring_pieces () in
  let cp = Compile.program program in
  let region backend storage jobs =
    let e = Engine.create ~backend ~storage ~jobs env in
    (e, Engine.region e cp ~from:Engine.All ~target:inv)
  in
  let _, reference = region Engine.Lazy Engine.Auto 1 in
  let ed, rd = region Engine.Lazy Engine.Direct 1 in
  let ep, rp = region Engine.Lazy Engine.Probed 1 in
  Alcotest.(check string) "direct resolved" "direct" (Engine.storage_name ed);
  Alcotest.(check string) "probed resolved" "probed" (Engine.storage_name ep);
  check_identical "lazy direct" reference rd;
  check_identical "lazy probed" reference rp;
  Alcotest.(check bool) "storage bytes recorded" true
    (Engine.storage_bytes ed > 0 && Engine.storage_bytes ep > 0);
  List.iter
    (fun jobs ->
      let _, r = region Engine.Parallel Engine.Direct jobs in
      check_identical (Printf.sprintf "par direct jobs=%d" jobs) reference r;
      let _, r = region Engine.Parallel Engine.Probed jobs in
      check_identical (Printf.sprintf "par probed jobs=%d" jobs) reference r)
    [ 1; 4 ]

let test_engine_storage_overflow_point () =
  (* the budget trips after the same number of visits whatever the
     storage and job count; the carried count must match across all
     combinations *)
  let env, program, inv = token_ring_pieces () in
  let cp = Compile.program program in
  let overflow storage backend jobs =
    match
      Engine.region
        (Engine.create ~backend ~storage ~max_states:120 ~jobs env)
        cp ~from:Engine.All ~target:inv
    with
    | exception Engine.Region_overflow n -> n
    | _ -> Alcotest.fail "must overflow a 120-state budget"
  in
  let reference = overflow Engine.Probed Engine.Lazy 1 in
  Alcotest.(check int) "lazy direct overflow point" reference
    (overflow Engine.Direct Engine.Lazy 1);
  List.iter
    (fun jobs ->
      List.iter
        (fun storage ->
          Alcotest.(check int)
            (Printf.sprintf "parallel jobs=%d overflow point" jobs)
            reference
            (overflow storage Engine.Parallel jobs))
        [ Engine.Probed; Engine.Direct ])
    [ 1; 4 ]

let test_engine_visited_bytes () =
  (* the parallel backend keeps its visited set in the same Flatset the
     lazy one does, filled in the same order: the reported table bytes
     agree exactly under either storage, at any job count *)
  let env, program, inv = token_ring_pieces () in
  let cp = Compile.program program in
  let visited_bytes storage backend jobs =
    let obs = Obs.Ctx.create () in
    let e = Engine.create ~backend ~storage ~jobs ~obs env in
    ignore (Engine.region e cp ~from:Engine.All ~target:inv);
    ( Obs.Metrics.gauge_value (Obs.Ctx.gauge obs "engine.visited_bytes"),
      Engine.storage_bytes e )
  in
  List.iter
    (fun storage ->
      let lazy_bytes, lazy_storage = visited_bytes storage Engine.Lazy 1 in
      Alcotest.(check bool) "lazy reports bytes" true (lazy_bytes > 0);
      List.iter
        (fun jobs ->
          let par_bytes, par_storage =
            visited_bytes storage Engine.Parallel jobs
          in
          Alcotest.(check int)
            (Printf.sprintf "%s jobs=%d: engine.visited_bytes"
               (if storage = Engine.Direct then "direct" else "probed")
               jobs)
            lazy_bytes par_bytes;
          Alcotest.(check bool) "storage bytes cover the visited table" true
            (lazy_storage > lazy_bytes && par_storage > par_bytes))
        [ 1; 4 ])
    [ Engine.Direct; Engine.Probed ]

let test_faultspan_storage_invariant () =
  let env, program, inv = token_ring_pieces () in
  let cp = Compile.program program in
  let fault = Sim.Fault.corrupt env ~k:1 in
  let fp =
    Compile.program
      (Guarded.Program.make ~name:"faults" env (Sim.Fault.actions fault))
  in
  let legit =
    (* any invariant state works as a seed; find one by sweep *)
    let found = ref None in
    Space.iter (Space.create env) (fun _ s ->
        if !found = None && inv s then found := Some (State.copy s));
    Option.get !found
  in
  let span ?(jobs = 1) storage backend =
    Faultspan.compute
      (Engine.create ~backend ~storage ~jobs env)
      ~program:cp ~budget:1 ~faults:fp
      ~from:(Engine.Seeds [ legit ])
      ()
  in
  let reference = span Engine.Auto Engine.Lazy in
  let sig_of sp =
    ( (Faultspan.count sp, Faultspan.root_count sp),
      (Faultspan.max_depth sp, Array.to_list (Faultspan.depth_histogram sp)) )
  in
  let states_of sp = List.map State.to_array (Faultspan.states sp) in
  List.iter
    (fun (name, storage, backend, jobs) ->
      let sp = span ~jobs storage backend in
      Alcotest.(check (pair (pair int int) (pair int (list int))))
        (name ^ ": span signature") (sig_of reference) (sig_of sp);
      (* member iteration order is part of the contract (certificates
         scan it); it must survive both storage and backend changes *)
      Alcotest.(check bool)
        (name ^ ": member order")
        true
        (states_of reference = states_of sp))
    [
      ("lazy/direct", Engine.Direct, Engine.Lazy, 1);
      ("lazy/probed", Engine.Probed, Engine.Lazy, 1);
      ("par/direct jobs=1", Engine.Direct, Engine.Parallel, 1);
      ("par/probed jobs=1", Engine.Probed, Engine.Parallel, 1);
      ("par/direct jobs=4", Engine.Direct, Engine.Parallel, 4);
      ("par/probed jobs=4", Engine.Probed, Engine.Parallel, 4);
    ];
  (* indexed access agrees with iter *)
  let buf = State.make env in
  let i = ref 0 in
  Faultspan.iter reference (fun s ->
      Faultspan.decode_nth_into reference !i buf;
      if not (State.equal s buf) then
        Alcotest.failf "decode_nth_into disagrees with iter at %d" !i;
      incr i);
  Alcotest.(check int) "indexed count" (Faultspan.count reference) !i

(* --- Edgebuf: lengths at and around the block-size boundaries ---

   Labels come from one of three ranges: bytes (0 .. 255), which keep
   the one-byte layout, and -500 .. 500 or 256 .. 1000, which switch it
   to words. Sources are sorted, as every search pushes them, or left
   unsorted, when the first push whose source decreases must be refused
   and leave the buffer as it was. *)

let prop_edgebuf_boundaries =
  let first = Edgebuf.first_block and cap = Edgebuf.max_block in
  let lengths =
    [ 0; 1; first - 1; first; first + 1; cap - 1; cap; cap + 1; (5 * cap) + 3 ]
  in
  let ranges = [ (0, 255); (-500, 500); (256, 1000) ] in
  QCheck.Test.make ~name:"edgebuf: to_graph and iter across block sizes"
    ~count:100
    (QCheck.make
       ~print:(fun ((m, seed), (sorted, (lo, hi))) ->
         Printf.sprintf "length=%d seed=%d sorted=%b labels=%d..%d" m seed
           sorted lo hi)
       QCheck.Gen.(
         pair
           (pair (oneofl lengths) (int_bound 1_000_000))
           (pair bool (oneofl ranges))))
    (fun ((m, seed), (sorted, (lo, hi))) ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 50 in
      let src = Array.init m (fun _ -> Prng.int rng n) in
      (* the searches push edges grouped by source *)
      if sorted then Array.sort compare src;
      let first_drop =
        let rec go e =
          if e >= m then None
          else if e > 0 && src.(e) < src.(e - 1) then Some e
          else go (e + 1)
        in
        go 0
      in
      let dst = Array.init m (fun _ -> Prng.int rng n) in
      let label = Array.init m (fun _ -> lo + Prng.int rng (hi - lo + 1)) in
      let b = Edgebuf.create () in
      match first_drop with
      | Some bad ->
          for e = 0 to bad - 1 do
            Edgebuf.push b src.(e) dst.(e) label.(e)
          done;
          (match Edgebuf.push b src.(bad) dst.(bad) label.(bad) with
          | () -> false
          | exception Invalid_argument _ -> true)
          && Edgebuf.length b = bad
      | None ->
          for e = 0 to m - 1 do
            Edgebuf.push b src.(e) dst.(e) label.(e)
          done;
          let g = Edgebuf.to_graph b n in
          let reference =
            Dgraph.Digraph.of_edges n
              (List.init m (fun e -> (src.(e), dst.(e), label.(e))))
          in
          let visited = ref [] in
          Edgebuf.iter b (fun s d l -> visited := (s, d, l) :: !visited);
          (* bytes first: walking the graph below builds its in-index:
             dst words plus n + 1 offsets, and one byte per label while
             every label fits in one, else a word. *)
          let bytes_per_label =
            if Array.for_all (fun l -> l >= 0 && l <= 255) label then 1 else 8
          in
          Dgraph.Digraph.bytes g
          = ((8 + bytes_per_label) * m) + (8 * (n + 1))
          && Edgebuf.length b = m
          && Dgraph.Digraph.node_count g = n
          && Dgraph.Digraph.edge_count g = m
          && List.init m (Dgraph.Digraph.edge g)
             = List.init m (Dgraph.Digraph.edge reference)
          && List.init m (Dgraph.Digraph.edge_label g) = Array.to_list label
          && Dgraph.Digraph.edges g = Dgraph.Digraph.edges reference
          && List.init n (Dgraph.Digraph.in_edges g)
             = List.init n (Dgraph.Digraph.in_edges reference)
          && List.rev !visited
             = List.init m (fun e -> (src.(e), dst.(e), label.(e))))

let suite =
  [
    Alcotest.test_case "codec: fuzz roundtrips (200 seeds)" `Quick
      test_codec_roundtrip_fuzz;
    Alcotest.test_case "codec: dense overflow is typed" `Quick
      test_codec_dense_overflow;
    Alcotest.test_case "codec: single-value domains" `Quick
      test_codec_single_value_domains;
    Alcotest.test_case "codec: out-of-domain rejected" `Quick
      test_codec_out_of_domain;
    Alcotest.test_case "flattbl basics" `Quick test_flattbl_basics;
    Alcotest.test_case "flattbl growth boundaries" `Quick
      test_flattbl_growth_boundary;
    Alcotest.test_case "flattbl tombstones and churn" `Quick
      test_flattbl_tombstones;
    Alcotest.test_case "flattbl agrees with Hashtbl" `Quick
      test_flattbl_vs_hashtbl;
    Alcotest.test_case "flatset direct basics" `Quick test_flatset_direct;
    Alcotest.test_case "flatset direct vs probed" `Quick
      test_flatset_direct_vs_probed;
    Alcotest.test_case "flatqueue fifo across chunks" `Quick
      test_flatqueue_fifo;
    Alcotest.test_case "flatqueue transfer and clear" `Quick
      test_flatqueue_transfer_clear;
    Alcotest.test_case "shardmap growth under contention" `Quick
      test_shardmap_contended_growth;
    Alcotest.test_case "flatset concurrent reads (4 domains)" `Quick
      test_flatset_concurrent_reads;
    Alcotest.test_case "engine: storage-invariant regions" `Quick
      test_engine_storage_invariant;
    Alcotest.test_case "engine: overflow point storage-invariant" `Quick
      test_engine_storage_overflow_point;
    Alcotest.test_case "engine: lazy and parallel visited bytes agree" `Quick
      test_engine_visited_bytes;
    Alcotest.test_case "faultspan: storage-invariant spans" `Quick
      test_faultspan_storage_invariant;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_edgebuf_boundaries ]
