(* Tolerance-frontier sweeps: Certify.tolerance across a fault-budget
   range, reusing work where the spans must coincide.

   The only quantity that varies with the budget is the span: budget b
   admits derivations with at most b fault steps, so spans are monotone
   in b, and once a budget-b span's deepest layer sits strictly below b
   the closure is saturated — no derivation wanted more faults than it
   was allowed, so every larger budget yields the identical span, hence
   the identical certificate and adversary bound. The sweep walks
   budgets in ascending order and, past saturation, replays the last
   computed point with [reused = true] instead of re-exploring.

   Each span is computed once via [Explore.Faultspan.compute] and handed
   to [Certify.tolerance ~span] (and the adversary), so no budget point
   ever explores twice. *)

type point = {
  budget : int;
  span_states : int;
  span_roots : int;
  max_depth : int;
  certified : bool;
  worst_case : int option;
  adversary : Adversary.result option;
  reused : bool;
  cert : Nonmask.Certify.t;
}

type frontier = { points : point list; cliff : int option }

let range ~max:b =
  if b < 0 then invalid_arg "Tol.Sweep.range: negative budget";
  List.init (b + 1) Fun.id

let adversary_bound (r : Adversary.result) =
  match r.Adversary.verdict with
  | Adversary.Bounded w -> Some w
  | Adversary.Unbounded _ -> None

let point_fields p =
  let open Obs.Sink in
  [
    ("budget", I p.budget);
    ("span_states", I p.span_states);
    ("span_roots", I p.span_roots);
    ("max_depth", I p.max_depth);
    ("certified", B p.certified);
    ("reused", B p.reused);
  ]
  @ (match p.worst_case with
    | Some w -> [ ("worst_case", I w) ]
    | None -> [])
  @
  match p.adversary with
  | None -> []
  | Some r -> (
      match r.Adversary.verdict with
      | Adversary.Bounded w -> [ ("adversary_bound", I w) ]
      | Adversary.Unbounded _ -> [ ("adversary_bound", S "unbounded") ])

let point_json p =
  Obs.Json.Obj
    ([
       ("budget", Obs.Json.Int p.budget);
       ("span_states", Obs.Json.Int p.span_states);
       ("span_roots", Obs.Json.Int p.span_roots);
       ("max_depth", Obs.Json.Int p.max_depth);
       ("certified", Obs.Json.Bool p.certified);
       ( "worst_case",
         match p.worst_case with
         | Some w -> Obs.Json.Int w
         | None -> Obs.Json.Null );
       ("reused", Obs.Json.Bool p.reused);
     ]
    @
    match p.adversary with
    | None -> []
    | Some r -> (
        match r.Adversary.verdict with
        | Adversary.Bounded w -> [ ("adversary_bound", Obs.Json.Int w) ]
        | Adversary.Unbounded _ ->
            [ ("adversary_bound", Obs.Json.Str "unbounded") ]))

let cliff_of points =
  let rec go prev = function
    | [] -> None
    | p :: tl ->
        if p.certified <> prev then Some p.budget else go p.certified tl
  in
  match points with [] -> None | p :: tl -> go p.certified tl

let run ~engine ~program ~faults ?(envs = []) ~invariant ?from ~budgets
    ?(adversary = false) ?on_point ~name () =
  let env = Explore.Engine.env engine in
  let obs = Explore.Engine.obs engine in
  let budgets =
    let b = List.sort_uniq compare budgets in
    (match b with
    | x :: _ when x < 0 -> invalid_arg "Tol.Sweep.run: negative budget"
    | [] -> invalid_arg "Tol.Sweep.run: empty budget list"
    | _ -> ());
    b
  in
  let from =
    match from with Some f -> f | None -> Explore.Engine.Pred invariant
  in
  let cp = Guarded.Compile.program program in
  let fp =
    Guarded.Compile.program
      (Guarded.Program.make
         ~name:(Guarded.Program.name program ^ ":faults")
         env faults)
  in
  let ep =
    match envs with
    | [] -> None
    | _ ->
        Some
          (Guarded.Compile.program
             (Guarded.Program.make
                ~name:(Guarded.Program.name program ^ ":envs")
                env envs))
  in
  let emit_point p =
    Obs.Ctx.emit obs "tol.point" (point_fields p);
    match on_point with None -> () | Some f -> f p
  in
  (* last computed (not reused) point; valid for every larger budget
     once its span is saturated *)
  let saturated = ref None in
  let compute_point budget =
    let span =
      Obs.Ctx.time obs "tol.span" @@ fun () ->
      Explore.Faultspan.compute engine ~program:cp ?envs:ep ~budget ~faults:fp
        ~from ()
    in
    let cert =
      Obs.Ctx.time obs "tol.certify" @@ fun () ->
      Nonmask.Certify.tolerance ~engine ~program ~faults ~envs ~invariant
        ~from ~budget ~span ~name:(Printf.sprintf "%s@b=%d" name budget) ()
    in
    let summary =
      match cert.Nonmask.Certify.summary with
      | Some s -> s
      | None -> assert false (* tolerance certificates always carry one *)
    in
    let adv =
      if not adversary then None
      else
        Some
          ( Obs.Ctx.time obs "tol.adversary" @@ fun () ->
            Adversary.worst_case engine ~program:cp ?envs:ep ~span ~invariant
              () )
    in
    {
      budget;
      span_states = summary.Nonmask.Certify.span_states;
      span_roots = summary.Nonmask.Certify.span_roots;
      max_depth = summary.Nonmask.Certify.span_max_depth;
      certified = Nonmask.Certify.ok cert;
      worst_case = summary.Nonmask.Certify.convergence_worst;
      adversary = adv;
      reused = false;
      cert;
    }
  in
  let points =
    List.map
      (fun budget ->
        let p =
          match !saturated with
          | Some prev -> { prev with budget; reused = true }
          | None ->
              let p = compute_point budget in
              (* deepest layer strictly below the allowance: the closure
                 wanted fewer faults than it was given, so every larger
                 budget reproduces this exact span *)
              if p.max_depth < budget then saturated := Some p;
              p
        in
        emit_point p;
        p)
      budgets
  in
  let cliff = cliff_of points in
  Obs.Ctx.emit obs "tol.frontier"
    (let open Obs.Sink in
     [ ("points", I (List.length points)) ]
     @ match cliff with Some c -> [ ("cliff", I c) ] | None -> []);
  { points; cliff }

let pp_point ppf p =
  let opt_int = function Some w -> string_of_int w | None -> "-" in
  let adversary_cell = function
    | None -> "-"
    | Some r -> (
        match r.Adversary.verdict with
        | Adversary.Bounded w -> Printf.sprintf "%d" w
        | Adversary.Unbounded _ -> "unbounded")
  in
  Format.fprintf ppf "%6d  %10d  %6d  %9s  %11s  %11s%s" p.budget
    p.span_states p.max_depth
    (if p.certified then "yes" else "NO")
    (opt_int p.worst_case)
    (adversary_cell p.adversary)
    (if p.reused then "  (reused)" else "")

let pp_frontier ppf f =
  Format.fprintf ppf
    "@[<v>budget     span(|T|)   depth  certified  worst-case    adversary@,";
  List.iter (fun p -> Format.fprintf ppf "%a@," pp_point p) f.points;
  (match f.cliff with
  | Some c -> Format.fprintf ppf "cliff: certification flips at budget %d" c
  | None -> Format.fprintf ppf "cliff: none (verdict uniform across sweep)");
  Format.fprintf ppf "@]"
