(* Helpers shared by the benchmark's leg runners. *)

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf failwith fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A kB field ("VmHWM", "VmRSS") of /proc/self/status. *)
let status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> fail "no %s in /proc/self/status" field
        | line when String.starts_with ~prefix line ->
            Scanf.sscanf
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
              " %d" Fun.id
        | _ -> scan ()
      in
      scan ())

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Best-of-three nanoseconds per operation of [f], which performs [n]
   operations. *)
let ns_per n f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let (), dt = timed f in
    best := Float.min !best dt
  done;
  !best *. 1e9 /. float (max 1 n)

(* Mean microseconds per call of [f] over [xs]. *)
let mean_us f xs =
  let (), dt = timed (fun () -> List.iter (fun x -> ignore (f x)) xs) in
  dt *. 1e6 /. float (max 1 (List.length xs))

let json_opt_int = function Some i -> Obs.Json.Int i | None -> Obs.Json.Null

let floats kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) kvs)
