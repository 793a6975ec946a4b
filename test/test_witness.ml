(* Witness goldens: CLI outputs whose text depends on the order in which
   the region graph hands out its edges — a livelock witness (DFS order),
   a weak-fairness SCC sample (Tarjan member order), fault-sustained
   cycles (SCC + BFS order) and a tolerance frontier report. Each run's
   stdout (and report file) must match the committed golden byte for
   byte, on every backend that shares the golden. *)

(* `dune runtest` runs with cwd _build/default/test; `dune exec
   test/test_main.exe` from the project root. Probe both. *)
let locate candidates =
  try List.find Sys.file_exists candidates
  with Not_found -> List.hd candidates

let cli () =
  locate [ "../bin/nonmask_cli.exe"; "_build/default/bin/nonmask_cli.exe" ]

let golden name =
  locate [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the CLI with [args]; stdout goes to a temporary file, stderr is
   discarded. Returns the exit code and stdout. *)
let run args =
  let out = Filename.temp_file "nonmask-witness" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd;
            Unix.close null)
          (fun () ->
            Unix.create_process (cli ())
              (Array.of_list (cli () :: args))
              Unix.stdin fd null)
      in
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | _ -> Alcotest.fail "CLI killed by a signal"
      in
      (code, read_file out))

let check_run ~exit_code ~golden_name args =
  let code, out = run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": exit code") exit_code code;
  Alcotest.(check string) (what ^ ": stdout") (read_file (golden golden_name)) out

let engines = [ [ "--engine"; "lazy" ]; [ "--engine"; "parallel"; "--jobs"; "4" ] ]

let test_livelock_witness () =
  List.iter
    (fun engine ->
      check_run ~exit_code:2 ~golden_name:"witness_check_chase.out"
        ([ "check"; golden "chase.nm" ] @ engine))
    ([ "--engine"; "eager" ] :: engines)

(* The chase model's fault-free region fails the weak-fairness criterion
   (an Unknown SCC sample) and its fault region has a fault-sustained
   cycle; node numbering differs between eager and lazy, so each keeps
   its own golden. *)
let test_certify_chase () =
  let args = [ "certify"; golden "chase.nm"; "--faults"; "corrupt:k=1" ] in
  check_run ~exit_code:2 ~golden_name:"witness_certify_chase.eager.out"
    (args @ [ "--engine"; "eager" ]);
  List.iter
    (fun engine ->
      check_run ~exit_code:2 ~golden_name:"witness_certify_chase.lazy.out"
        (args @ engine))
    engines

let test_certify_naive_ring () =
  let args = [ "certify"; "naive-ring"; "--nodes"; "3"; "--faults"; "corrupt:k=1" ] in
  check_run ~exit_code:2 ~golden_name:"witness_certify_naive.eager.out"
    (args @ [ "--engine"; "eager" ]);
  List.iter
    (fun engine ->
      check_run ~exit_code:2 ~golden_name:"witness_certify_naive.lazy.out"
        (args @ engine))
    engines

let test_tolerance_report () =
  List.iter
    (fun engine ->
      let report = Filename.temp_file "nonmask-witness" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove report)
        (fun () ->
          let args =
            [ "tolerance"; "token-ring"; "--nodes"; "4"; "-k"; "5";
              "--budget-max"; "2"; "--adversary"; "--report"; report ]
            @ engine
          in
          (* the table's banner names the engine; the lazy run owns it *)
          if List.mem "lazy" engine then
            check_run ~exit_code:0 ~golden_name:"witness_tolerance.out" args
          else
            Alcotest.(check int) "exit code" 0 (fst (run args));
          Alcotest.(check string) "report JSONL"
            (read_file (golden "witness_tolerance.jsonl"))
            (read_file report)))
    engines

let suite =
  [
    Alcotest.test_case "golden: check livelock witness" `Quick
      test_livelock_witness;
    Alcotest.test_case "golden: certify chase (fair SCC sample, fault cycle)"
      `Quick test_certify_chase;
    Alcotest.test_case "golden: certify naive ring fault cycle" `Quick
      test_certify_naive_ring;
    Alcotest.test_case "golden: tolerance adversary report" `Quick
      test_tolerance_report;
  ]
