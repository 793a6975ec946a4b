(* nmbench: the leg runner of the nonmask benchmark (perfbench/run.py).

   Every invocation is one isolated leg in a fresh process, so each leg
   has its own peak RSS and no heap, pool domains or daemon carry over:

     nmbench leg --workload W --engine E [--size full|tiny] [--trace]
     nmbench serve --nonmask PATH --seed S --seconds T [--size full|tiny]
       [--wrong-pin]
     nmbench calibrate

   and prints one JSON object on stdout. The program is driven only
   through the libraries' public interfaces, from .nm model text. *)

open Util

let serve ~nonmask ~seed ~seconds ~size ~wrong_pin =
  (* The corpus outlasts the window: misses run at well under 500/s per
     client on a 2-core host. *)
  let per_client, resubmits =
    match size with
    | "full" -> (100 + int_of_float (seconds *. 500.), 3)
    | "tiny" -> (24, 2)
    | s -> fail "unknown size %s" s
  in
  let slices = Serve_load.corpus ~seed ~clients:2 ~per_client ~wrong_pin in
  let w = Serve_load.window ~nonmask ~seconds ~resubmits slices in
  let load = w.Serve_load.load in
  let sample = 20 in
  let mismatches = Serve_load.reverify ~sample load.Serve_load.results in
  Obs.Json.Obj
    [
      ("layers", floats (Serve_load.layers ~server_metrics:w.Serve_load.server_metrics slices.(0)));
      ( "attempted",
        Obs.Json.Int (load.Serve_load.attempted + min sample (List.length load.Serve_load.results)) );
      ("failed", Obs.Json.Int (load.Serve_load.failed + mismatches));
      ( "errors",
        Obs.Json.List
          (List.map (fun m -> Obs.Json.Str m)
             ((if mismatches > 0 then [ "re-run result differs from the daemon's" ] else [])
             @ load.Serve_load.errors)) );
      ("hits", Obs.Json.Int load.Serve_load.hits);
      ("misses", Obs.Json.Int load.Serve_load.misses);
    ]

(* The machine-speed yardstick: a fixed, benchmark-owned computation
   with the resource mix of an exploration (hash-table inserts and
   lookups, a random walk over an array larger than the last-level cache,
   integer arithmetic). It links nothing from the repository, so code
   changes cannot move it; run.py scales analysis legs by it to cancel
   the host's speed drift. *)
let calibrate () =
  let (), dt =
    timed (fun () ->
        let n = 100_000 in
        let h = Hashtbl.create 16 in
        for i = 0 to n - 1 do
          Hashtbl.replace h ((i * 2654435761) land 0xffffff) i
        done;
        let hits = ref 0 in
        for i = 0 to n - 1 do
          if Hashtbl.mem h ((i * 40503) land 0xffffff) then incr hits
        done;
        let a = Array.make (4 * 1024 * 1024) 0 in
        let s = ref 1 in
        for _ = 1 to 500_000 do
          s := ((!s * 1103515245) + 12345) land 0x3fffff;
          a.(!s) <- a.(!s) + 1
        done;
        let x = ref !hits in
        for i = 1 to 10_000_000 do
          x := !x lxor (i * 2654435761)
        done;
        if !x = 42 then print_string "")
  in
  Obs.Json.Obj [ ("calibrate_s", Obs.Json.Float dt) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | ("--trace" | "--wrong-pin") as flag :: rest ->
        opts ((String.sub flag 2 (String.length flag - 2), "1") :: acc) rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
        opts ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail "unexpected argument %s" a
  in
  let result =
    try
      let cmd, o =
        match args with
        | cmd :: rest -> (cmd, opts [] rest)
        | [] -> fail "usage: nmbench leg|serve|calibrate [options]"
      in
      let get k d = Option.value (List.assoc_opt k o) ~default:d in
      let size = get "size" "full" in
      match cmd with
      | "leg" ->
          Legs.leg ~workload:(get "workload" "") ~size ~engine:(get "engine" "lazy")
            ~traced:(List.mem_assoc "trace" o)
      | "serve" ->
          serve ~nonmask:(get "nonmask" "_build/default/bin/nonmask_cli.exe")
            ~seed:(int_of_string (get "seed" "1"))
            ~seconds:(float_of_string (get "seconds" "10"))
            ~size ~wrong_pin:(List.mem_assoc "wrong-pin" o)
      | "calibrate" -> calibrate ()
      | c -> fail "unknown command %s (leg|serve|calibrate)" c
    with e -> Obs.Json.Obj [ ("error", Obs.Json.Str (Printexc.to_string e)) ]
  in
  print_endline (Obs.Json.to_string result);
  exit (match Obs.Json.member "error" result with Some _ -> 1 | None -> 0)
