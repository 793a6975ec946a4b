module State = Guarded.State

type failure = Unreachable of Guarded.State.t | Not_converged of float

let steps ?(epsilon = 1e-9) ?(max_iters = 1_000_000) tsys ~target =
  let space = Tsys.space tsys in
  let n = Tsys.state_count tsys in
  (* two flags per state, one byte each: [is_target], and [can_reach]
     (the target is reachable) *)
  let is_target = Bytes.make n '\000' in
  Space.iter space (fun id s -> if target s then Bytes.set is_target id '\001');
  (* Backward reachability of the target via reverse edges. *)
  let preds = Array.make n [] in
  for id = 0 to n - 1 do
    Tsys.iter_succ tsys id (fun ~action:_ ~dst -> preds.(dst) <- id :: preds.(dst))
  done;
  let can_reach = Bytes.copy is_target in
  let queue = Queue.create () in
  for id = 0 to n - 1 do
    if Bytes.get is_target id = '\001' then Queue.add id queue
  done;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    List.iter
      (fun p ->
        if Bytes.get can_reach p = '\000' then begin
          Bytes.set can_reach p '\001';
          Queue.add p queue
        end)
      preds.(id)
  done;
  let stuck = ref None in
  for id = 0 to n - 1 do
    if !stuck = None && Bytes.get can_reach id = '\000' then stuck := Some id
  done;
  match !stuck with
  | Some id -> Error (Unreachable (Space.decode space id))
  | None ->
      (* Gauss–Seidel value iteration. *)
      let value = Array.make n 0.0 in
      let delta = ref infinity in
      let iters = ref 0 in
      while !delta > epsilon && !iters < max_iters do
        delta := 0.0;
        for id = 0 to n - 1 do
          if Bytes.get is_target id = '\000' then begin
            let sum = ref 0.0 and deg = ref 0 in
            Tsys.iter_succ tsys id (fun ~action:_ ~dst ->
                sum := !sum +. value.(dst);
                incr deg);
            (* [deg = 0] outside the target would be a deadlock, which
               backward reachability already ruled out. *)
            let v = 1.0 +. (!sum /. float_of_int !deg) in
            let d = abs_float (v -. value.(id)) in
            if d > !delta then delta := d;
            value.(id) <- v
          end
        done;
        incr iters
      done;
      if !delta > epsilon then Error (Not_converged !delta) else Ok value

let mean_from ?epsilon ?max_iters tsys ~from ~target =
  match steps ?epsilon ?max_iters tsys ~target with
  | Error f -> Error f
  | Ok value ->
      let space = Tsys.space tsys in
      let sum = ref 0.0 and count = ref 0 in
      Space.iter space (fun id s ->
          if from s then begin
            sum := !sum +. value.(id);
            incr count
          end);
      if !count = 0 then Ok 0.0 else Ok (!sum /. float_of_int !count)
