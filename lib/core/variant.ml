module State = Guarded.State
module Compile = Guarded.Compile
module Closure = Explore.Closure

type t = {
  rank_count : int;
  by_rank : (Guarded.State.t -> bool) array array;
      (** [by_rank.(r-1)] = compiled constraints whose edges target rank [r]. *)
}

let of_cgraph g =
  match Cgraph.pair_rank g with
  | None -> None
  | Some ranks ->
      let pairs = Cgraph.pairs g in
      let rank_count = Array.fold_left max 0 ranks in
      let buckets = Array.make rank_count [] in
      Array.iteri
        (fun i (p : Cgraph.pair) ->
          let r = ranks.(i) in
          buckets.(r - 1) <- Constr.compile p.constr :: buckets.(r - 1))
        pairs;
      Some { rank_count; by_rank = Array.map Array.of_list buckets }

let rank_count t = t.rank_count

let value t s =
  Array.map
    (fun preds ->
      Array.fold_left (fun acc c -> if c s then acc else acc + 1) 0 preds)
    t.by_rank

let compare_values (a : int array) (b : int array) = compare a b

let total_violations t s = Array.fold_left ( + ) 0 (value t s)

type failure = {
  action : string;
  pre : Guarded.State.t;
  post : Guarded.State.t;
  kind : [ `Convergence_did_not_decrease | `Closure_increased ];
}

let check ~engine ~spec ~cgraph t =
  let tpred = Spec.compile_fault_span spec in
  let closure = Compile.program (Spec.program spec) in
  let conv =
    Array.map
      (fun (p : Cgraph.pair) -> Compile.action ~index:0 p.action)
      (Cgraph.pairs cgraph)
  in
  (* over T, a convergence action strictly decreases V and a closure
     action does not increase it *)
  let descends ~strict (ca : Compile.action) =
    Closure.Step
      {
        pre = tpred;
        action = ca;
        post =
          (fun s s' ->
            let c = compare_values (value t s') (value t s) in
            if strict then c < 0 else c <= 0);
      }
  in
  let found =
    Closure.scan engine
      (Array.append
         (Array.map (descends ~strict:true) conv)
         (Array.map (descends ~strict:false) closure.Compile.actions))
  in
  (* the first failing convergence action, else the first closure one *)
  match Closure.first_violation found with
  | Ok () -> Ok ()
  | Error v ->
      let i = Option.get (Array.find_index Option.is_some found) in
      Error
        {
          action = Guarded.Action.name v.Closure.action;
          pre = v.pre;
          post = v.post;
          kind =
            (if i < Array.length conv then `Convergence_did_not_decrease
             else `Closure_increased);
        }
