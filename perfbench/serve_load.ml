(* The serve probe: a [nonmask serve] daemon in its own process at its
   default --jobs, loaded in a closed loop by two client connections
   from this process (one domain each). Every model of the corpus is
   submitted once as a cache miss and then resubmitted as cache hits;
   each client owns a disjoint slice of the corpus, so the hit/miss split
   is exact. It feeds the serve layers of the traced tolerance run: its
   end-to-end latencies follow the host's scheduling latency, which
   drifted by more than 25% within an hour on the reference host, so they
   are not benchmark metrics. *)

open Util

type entry = {
  text : string;  (** .nm source *)
  op : string;
  options : (string * Obs.Json.t) list;
  expect : int list;  (** allowed [result.exit] codes *)
}

let request_line ~id e =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("id", Obs.Json.Int id);
         ("op", Obs.Json.Str e.op);
         ("model", Obs.Json.Str e.text);
         ("options", Obs.Json.Obj e.options);
       ])

let prepare e =
  match Serve.Proto.parse_request (request_line ~id:0 e) with
  | Error (_, msg) -> fail "bad request: %s" msg
  | Ok req -> (
      match Serve.Job.prepare req with
      | Ok p -> p
      | Error (_, msg) -> fail "prepare rejected a corpus model: %s" msg)

(* Example models with their parameter variants: checks and small
   tolerance sweeps that must pass (exit 0). *)
let example_entries () =
  let text name = read_file (Filename.concat "examples/models" (name ^ ".nm")) in
  let ring = text "token_ring" and diffusing = text "diffusing" in
  let params kvs =
    ("params", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs))
  in
  let rings =
    List.concat_map
      (fun n -> List.map (fun k -> [ ("N", n); ("K", k) ]) [ n; n + 1; n + 2 ])
      [ 3; 4 ]
  in
  { text = text "xyz"; op = "check"; options = []; expect = [ 0 ] }
  :: List.map
       (fun n ->
         { text = diffusing; op = "check"; options = [ params [ ("N", n) ] ]; expect = [ 0 ] })
       [ 3; 4; 5; 6 ]
  @ List.map
      (fun p -> { text = ring; op = "check"; options = [ params p ]; expect = [ 0 ] })
      rings
  @ List.map
      (fun p ->
        {
          text = ring;
          op = "tolerance";
          options = [ params p; ("budget_max", Obs.Json.Int 2) ];
          expect = [ 0 ];
        })
      rings

(* Seeded corpus: [clients] disjoint slices of [per_client] distinct jobs
   (distinct cache keys). Examples are dealt round-robin, one every eighth
   slot; the rest are [Gen] models rendered to .nm text, alternating
   check and tolerance jobs, whose random programs may pass (exit 0) or
   not (exit 2). *)
let corpus ~seed ~clients ~per_client ~wrong_pin =
  let root = Prng.create seed in
  let rngs = Array.init clients (fun _ -> Prng.split root) in
  let keys = Hashtbl.create 4096 in
  let fresh e =
    let key = (prepare e).Serve.Job.key in
    if Hashtbl.mem keys key then false
    else begin
      Hashtbl.add keys key ();
      true
    end
  in
  let examples = ref (example_entries ()) in
  (* Self-test hook: pin the examples to a wrong exit code. *)
  if wrong_pin then examples := List.map (fun e -> { e with expect = [ 2 ] }) !examples;
  let slices = Array.make clients [] in
  for i = 0 to per_client - 1 do
    for c = 0 to clients - 1 do
      let rec next () =
        match !examples with
        | e :: rest when i mod 8 = 0 ->
            examples := rest;
            if fresh e then e else next ()
        | _ ->
            let m = Gen.Generate.model rngs.(c) in
            let op = if i mod 2 = 0 then "check" else "tolerance" in
            let e =
              { text = Gen.Emit.model_to_nm m; op; options = []; expect = [ 0; 2 ] }
            in
            if fresh e then e else next ()
      in
      slices.(c) <- next () :: slices.(c)
    done
  done;
  Array.map List.rev slices

(* --- the daemon process --- *)

type daemon = { pid : int; out : Unix.file_descr; port : int }

let read_line_within fd ~timeout =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then fail "daemon did not report its address within %.0fs" timeout;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> fail "daemon exited before listening"
        | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
        | _ ->
            Buffer.add_bytes buf byte;
            go ())
  in
  go ()

let start_daemon ~nonmask =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = [| nonmask; "serve"; "--listen"; "127.0.0.1:0" |] in
  let pid = Unix.create_process nonmask argv devnull out_w Unix.stderr in
  Unix.close out_w;
  Unix.close devnull;
  match read_line_within out_r ~timeout:30. with
  | line ->
      let port =
        match String.rindex_opt line ':' with
        | Some i -> int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> fail "unexpected daemon banner %S" line
      in
      { pid; out = out_r; port }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close out_r;
      raise e

(* SIGTERM drains the daemon; a clean drain exits 0. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  Unix.close d.out;
  status = Unix.WEXITED 0

let connect d =
  match Serve.Client.connect (`Tcp ("127.0.0.1", d.port)) with
  | Ok c -> c
  | Error msg -> fail "connect: %s" msg

let call c json =
  match Serve.Client.request ~timeout:60. c json with
  | Ok reply -> reply
  | Error msg -> fail "request: %s" msg

let ping c =
  match
    Obs.Json.member "ok"
      (call c (Obs.Json.Obj [ ("id", Obs.Json.Int 0); ("op", Obs.Json.Str "ping") ]))
  with
  | Some (Obs.Json.Bool true) -> ()
  | _ -> fail "ping not answered ok"

(* --- one closed-loop client --- *)

type sample = {
  hits : int;
  misses : int;
  attempted : int;
  failed : int;
  errors : string list;
  results : (entry * string) list;
}

let no_sample = { hits = 0; misses = 0; attempted = 0; failed = 0; errors = []; results = [] }

let merge a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    errors = List.filteri (fun i _ -> i < 5) (a.errors @ b.errors);
    results = a.results @ b.results;
  }

let result_of reply = Option.map Obs.Json.to_string (Obs.Json.member "result" reply)

(* Whole jobs (a miss and its resubmissions) until [deadline]. *)
let client c ~deadline ~resubmits slice =
  let hits = ref 0 and misses = ref 0 and attempted = ref 0 and failed = ref 0 in
  let errors = ref [] and results = ref [] in
  let bad msg =
    incr failed;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  let submit e ~id =
    incr attempted;
    let line = Obs.Json.of_string (request_line ~id e) |> Result.get_ok in
    match Serve.Client.request ~timeout:60. c line with
    | Error msg ->
        bad msg;
        None
    | Ok r -> (
        match (Obs.Json.member "ok" r, Obs.Json.member "cached" r, result_of r) with
        | Some (Obs.Json.Bool true), Some (Obs.Json.Bool cached), Some res ->
            Some (cached, res)
        | _ ->
            bad ("error reply: " ^ Obs.Json.to_string r);
            None)
  in
  let rec loop id = function
    | e :: rest when now () < deadline ->
        (match submit e ~id with
        | None -> ()
        | Some (true, _) -> bad "first submission was served from cache"
        | Some (false, res) ->
            incr misses;
            let exit_code =
              Option.bind (Result.to_option (Obs.Json.of_string res)) (fun j ->
                  Option.bind (Obs.Json.member "exit" j) Obs.Json.to_int)
            in
            (match exit_code with
            | Some x when List.mem x e.expect -> ()
            | _ -> bad ("unexpected exit code in " ^ res));
            results := (e, res) :: !results;
            for r = 1 to resubmits do
              match submit e ~id:(id + r) with
              | None -> ()
              | Some (false, _) -> bad "resubmission missed the cache"
              | Some (true, hit) ->
                  incr hits;
                  if hit <> res then bad "hit result differs from the miss result"
            done);
        loop (id + resubmits + 1) rest
    | _ -> ()
  in
  (try loop 1 slice with e -> bad (Printexc.to_string e));
  { hits = !hits; misses = !misses; attempted = !attempted; failed = !failed;
    errors = !errors; results = List.rev !results }

(* --- one load window --- *)

type window = { load : sample; server_metrics : Obs.Json.t }

let window ~nonmask ~seconds ~resubmits slices =
  let d = start_daemon ~nonmask in
  let conns = ref [] in
  let finish () =
    List.iter Serve.Client.close !conns;
    stop_daemon d
  in
  match
    let connect_one () =
      let c = connect d in
      conns := c :: !conns;
      c
    in
    let ctl = connect_one () in
    ping ctl;
    let clients = Array.map (fun slice -> (connect_one (), slice)) slices in
    let deadline = now () +. seconds in
    let domains =
      Array.map
        (fun (c, slice) -> Domain.spawn (fun () -> client c ~deadline ~resubmits slice))
        clients
    in
    let load = Array.fold_left (fun acc dom -> merge acc (Domain.join dom)) no_sample domains in
    (load, call ctl (Obs.Json.Obj [ ("id", Obs.Json.Int 0); ("op", Obs.Json.Str "metrics") ]))
  with
  | exception e ->
      ignore (finish ());
      raise e
  | load, metrics ->
      let load =
        if finish () then load
        else merge load { no_sample with failed = 1; errors = [ "daemon did not drain cleanly" ] }
      in
      { load; server_metrics = Option.value (Obs.Json.member "result" metrics) ~default:Obs.Json.Null }

(* Re-run a sample of miss jobs in this process through the same public
   job pipeline and require byte-identical results. *)
let reverify ~sample checked =
  let pool = Par.Pool.create ~jobs:1 in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      List.filteri (fun i _ -> i < sample) checked
      |> List.filter (fun (e, res) ->
             let o =
               Serve.Job.run ~pool ~obs:Obs.Ctx.disabled ~guard:Rt.Guard.inert (prepare e)
             in
             Obs.Json.to_string o.Serve.Job.result <> res)
      |> List.length)

(* Per-layer replay over the workload's own corpus, from this process. *)
let layers ~server_metrics entries =
  let entries = List.filteri (fun i _ -> i < 400) entries in
  let texts = List.map (fun e -> e.text) entries in
  let lines = List.mapi (fun id e -> request_line ~id e) entries in
  let asts = List.map (fun t -> Lang.Driver.parse_string t) texts in
  let canon = List.map Lang.Canon.model_text asts in
  let prepared = List.map prepare entries in
  let pool = Par.Pool.create ~jobs:1 in
  let outcomes, run_s =
    Fun.protect
      ~finally:(fun () -> Par.Pool.shutdown pool)
      (fun () ->
        timed (fun () ->
            List.map
              (Serve.Job.run ~pool ~obs:Obs.Ctx.disabled ~guard:Rt.Guard.inert)
              prepared))
  in
  let cache = Serve.Cache.create ~entries:1024 in
  List.iter2
    (fun p o -> Serve.Cache.store cache p.Serve.Job.key o.Serve.Job.result)
    prepared outcomes;
  let replies =
    List.map
      (fun o -> Serve.Proto.reply ~id:(Obs.Json.Int 1) ~cached:true ~elapsed_us:1 ~result:o.Serve.Job.result)
      outcomes
  in
  let metric path =
    List.fold_left
      (fun j k -> Option.bind j (Obs.Json.member k))
      (Some server_metrics) path
    |> Fun.flip Option.bind Obs.Json.to_int
    |> Option.value ~default:0
    |> float
  in
  let hits = metric [ "cache"; "hits" ] and misses = metric [ "cache"; "misses" ] in
  [
    ("lang.compile_ms", mean_us (fun t -> Lang.Driver.compile_string t) texts /. 1e3);
    ("proto.parse_us", mean_us Serve.Proto.parse_request lines);
    ("canon.digest_us", mean_us Lang.Canon.model_text asts);
    ("sha256.digest_us", mean_us Lang.Sha256.hex canon);
    ("job.prepare_ms", mean_us (fun p -> Serve.Job.prepare p) (List.filter_map (fun l -> Result.to_option (Serve.Proto.parse_request l)) lines) /. 1e3);
    ("job.run_ms", run_s *. 1e3 /. float (max 1 (List.length prepared)));
    ("cache.find_us", mean_us (fun p -> Serve.Cache.find cache p.Serve.Job.key) prepared);
    ("cache.hit_ratio", hits /. Float.max 1. (hits +. misses));
    ("json.render_us", mean_us Obs.Json.to_string replies);
    ( "serve.queue_wait_ms",
      metric [ "metrics"; "serve.queue_wait_us"; "sum" ]
      /. Float.max 1. (metric [ "metrics"; "serve.queue_wait_us"; "count" ])
      /. 1e3 );
  ]
