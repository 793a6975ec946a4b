(* Exact worst-case recovery time over a fault span, by a backward
   attractor computation (the game view of the stochastic-game masking
   papers, specialized to one player): every scheduling choice belongs
   to the adversarial daemon, so the worst case is the max over all
   program choices at every state.

   rank(s) = 0 for s ∈ S; a state outside S is ranked once all of its
   successors are ranked, at 1 + max over successor ranks. The ranks are
   the unique fixpoint on the acyclic part of T \ S, so the computation
   is a backward BFS from S in waves: wave k ranks the states whose last
   unranked successor was ranked in wave k-1. A state never ranked sits
   on a cycle (the daemon can postpone recovery forever) or behind a
   deadlock — no finite bound exists. The bound equals the longest
   path + 1 that [Explore.Convergence]'s exact analysis reports, but is
   derived independently: straight from the span and the compiled
   actions, never touching [Engine.region] — which is what lets it
   validate the certificate's claim rather than restate it.

   Successor expansion (the state-decoding, action-stepping bulk) is
   one [Engine.sweep] over the span, on the engine's workers and
   polling its guard; successors are indexed through the span's own
   visited table ([Faultspan.index_key]), which the workers only read.
   Wave ranking reads only ranks assigned in strictly earlier waves, so
   it parallelizes over the frontier waves the same way; it polls the
   guard before its first rank and every 4096 after. Results are
   bit-identical at any job count: per-state successor sets are
   deterministic and the rank fixpoint is order-independent. *)

module State = Guarded.State
module Compile = Guarded.Compile
module Engine = Explore.Engine
module Faultspan = Explore.Faultspan

type witness =
  | Deadlock of State.t
  | Cycle of State.t list
  | Escape of State.t

type verdict = Bounded of int | Unbounded of witness

type result = {
  verdict : verdict;
  span_states : int;
  outside : int;  (* states of T \ S *)
  ranked : int;  (* states that received a finite rank *)
  waves : int;  (* backward waves from S *)
}

let pp_verdict env ppf = function
  | Bounded w -> Format.fprintf ppf "bounded: worst case %d steps" w
  | Unbounded (Deadlock s) ->
      Format.fprintf ppf "unbounded: deadlock outside S at %a" (State.pp env)
        s
  | Unbounded (Cycle sample) ->
      Format.fprintf ppf
        "unbounded: the daemon can cycle outside S (sample: %a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (State.pp env))
        sample
  | Unbounded (Escape s) ->
      Format.fprintf ppf "unbounded: a step escapes T at %a" (State.pp env) s

let worst_case engine ~program ?envs ~span ~invariant () =
  let n = Faultspan.count span in
  let acts =
    let p = (program : Compile.program).Compile.actions in
    match envs with
    | None -> p
    | Some (e : Compile.program) -> Array.append p e.Compile.actions
  in
  let in_s = Bytes.make n '\000' in
  let has_succ = Bytes.make n '\000' in
  let escaped = Bytes.make n '\000' in
  (* per non-S state: deduped span indices of its non-S successors *)
  let succs = Array.make n [||] in
  (* [scratch] holds the state's distinct successor indices so far; a
     chunk counts its states outside S *)
  let expand scratch st i outside =
    let buf = Engine.stepper_state st in
    if invariant buf then begin
      Bytes.unsafe_set in_s i '\001';
      outside
    end
    else begin
      let cnt = ref 0 in
      Array.iter
        (fun (ca : Compile.action) ->
          if ca.Compile.enabled buf then begin
            Bytes.unsafe_set has_succ i '\001';
            let key = Engine.step st ca in
            let outside_s = not (invariant buf) in
            Engine.undo st;
            if outside_s then begin
              (* span index, iter order: the span's own table *)
              let j = Faultspan.index_key span key in
              if j < 0 then Bytes.unsafe_set escaped i '\001'
              else begin
                let rec dup k = k < !cnt && (scratch.(k) = j || dup (k + 1)) in
                if not (dup 0) then begin
                  scratch.(!cnt) <- j;
                  incr cnt
                end
              end
            end
          end)
        acts;
      succs.(i) <- Array.sub scratch 0 !cnt;
      outside + 1
    end
  in
  let outside =
    Engine.sweep engine
      (Engine.Keys (n, Faultspan.nth_key span))
      ~scratch:(fun () -> Array.make (Array.length acts) 0)
      ~visit:expand ~empty:0 ~fold:( + )
      ~stop:(fun _ -> false)
      0
  in
  let nth_state i = Engine.decode_key engine (Faultspan.nth_key span i) in
  let result ?(ranked = 0) ?(waves = 0) verdict =
    { verdict; span_states = n; outside; ranked; waves }
  in
  let first p =
    let rec go i =
      if i >= n then None else if p i then Some i else go (i + 1)
    in
    go 0
  in
  let flagged flags i = Bytes.unsafe_get flags i = '\001' in
  match first (flagged escaped) with
  | Some i -> result (Unbounded (Escape (nth_state i)))
  | None -> (
      match first (fun i -> not (flagged in_s i || flagged has_succ i)) with
      | Some i -> result (Unbounded (Deadlock (nth_state i)))
      | None ->
          (* reverse adjacency over the non-S successor edges, flat *)
          let pred_cnt = Array.make n 0 in
          let pending = Array.make n 0 in
          for i = 0 to n - 1 do
            pending.(i) <- Array.length succs.(i);
            Array.iter (fun j -> pred_cnt.(j) <- pred_cnt.(j) + 1) succs.(i)
          done;
          let pred_off = Array.make (n + 1) 0 in
          for i = 0 to n - 1 do
            pred_off.(i + 1) <- pred_off.(i) + pred_cnt.(i)
          done;
          let pred_arr = Array.make pred_off.(n) 0 in
          let fill = Array.copy pred_off in
          for i = 0 to n - 1 do
            Array.iter
              (fun j ->
                pred_arr.(fill.(j)) <- i;
                fill.(j) <- fill.(j) + 1)
              succs.(i)
          done;
          let rank = Array.make n (-1) in
          let ranked = ref 0 in
          let waves = ref 0 in
          let wave = ref [] in
          (* collect in reverse index order so the wave list is in index
             order — purely cosmetic (ranks are order-independent) but
             keeps traces and witnesses deterministic by construction *)
          for i = n - 1 downto 0 do
            if (not (flagged in_s i)) && pending.(i) = 0 then
              wave := i :: !wave
          done;
          let worst = ref 0 in
          let poll = Engine.analysis_poll engine ~explored:n in
          while !wave <> [] do
            incr waves;
            let members = !wave in
            wave := [];
            (* rank the wave: every successor was ranked in an earlier
               wave, so this is a pure read of [rank] *)
            List.iter
              (fun i ->
                let r =
                  1
                  + Array.fold_left
                      (fun acc j -> max acc rank.(j))
                      0 succs.(i)
                in
                Dgraph.Topo.tick poll !ranked;
                rank.(i) <- r;
                if r > !worst then worst := r;
                incr ranked)
              members;
            (* propagate: a predecessor whose last unranked successor was
               in this wave joins the next *)
            let next = ref [] in
            List.iter
              (fun i ->
                for k = pred_off.(i) to pred_off.(i + 1) - 1 do
                  let p = pred_arr.(k) in
                  pending.(p) <- pending.(p) - 1;
                  if pending.(p) = 0 && not (flagged in_s p) then
                    next := p :: !next
                done)
              members;
            wave := List.sort compare !next
          done;
          let ranked = !ranked and waves = !waves in
          if ranked < outside then begin
            let sample = ref [] in
            let taken = ref 0 in
            (try
               for i = 0 to n - 1 do
                 if (not (flagged in_s i)) && rank.(i) < 0 then begin
                   sample := nth_state i :: !sample;
                   incr taken;
                   if !taken >= 10 then raise Exit
                 end
               done
             with Exit -> ());
            result ~ranked ~waves (Unbounded (Cycle (List.rev !sample)))
          end
          else result ~ranked ~waves (Bounded !worst))
