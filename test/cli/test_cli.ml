(* Integration tests driving the unigen command-line binary the way a
   user would, checking exit codes and output shapes. *)

(* `dune runtest` executes from the test's build directory;
   `dune exec` from the workspace root — probe both. *)
let binary =
  let candidates =
    [ "../../bin/unigen_cli.exe"; "_build/default/bin/unigen_cli.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "unigen_cli.exe not found; build bin/ first"

let run args =
  let out = Filename.temp_file "unigen_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary) args
         (Filename.quote out))
  in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let temp_cnf contents =
  let path = Filename.temp_file "unigen_cli" ".cnf" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_help () =
  let code, text = run "--help=plain" in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun cmd -> Alcotest.(check bool) cmd true (contains cmd text))
    [ "sample"; "count"; "support"; "bench-gen"; "simplify"; "convert" ];
  (* every subcommand's help renders without a cmdliner markup error *)
  List.iter
    (fun cmd ->
      let code, text = run (cmd ^ " --help=plain") in
      Alcotest.(check int) (cmd ^ " --help exit 0") 0 code;
      Alcotest.(check bool) (cmd ^ " --help has no cmdliner error") false
        (contains "cmdliner error" text))
    [
      "bench-gen"; "client"; "convert"; "count"; "monitor"; "sample"; "serve";
      "simplify"; "support";
    ]

let test_bench_gen_list () =
  let code, text = run "bench-gen --list" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "mentions squaring" true (contains "squaring_7" text);
  Alcotest.(check bool) "mentions tutorial" true (contains "tutorial_xl" text)

let test_sample_on_simple_formula () =
  let path = temp_cnf "p cnf 4 1\nc ind 1 2 0\n1 2 3 0\n" in
  let code, text = run (Printf.sprintf "sample %s -n 5 -s 3 --project" path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "witness lines" true (contains "\nv " ("\n" ^ text));
  Alcotest.(check bool) "reports production" true (contains "produced 5/5" text)

(* Out-of-range arguments are usage errors: each [(command, options,
   message)] exits 1 with [message] and draws nothing, instead of
   escaping as an uncaught exception *)
let rejects cases =
  let path = temp_cnf "p cnf 4 1\nc ind 1 2 0\n1 2 3 0\n" in
  List.iter
    (fun (cmd, opts, says) ->
      let code, text = run (Printf.sprintf "%s %s %s" cmd path opts) in
      let args = cmd ^ " " ^ opts in
      Alcotest.(check int) ("exit 1 for " ^ args) 1 code;
      Alcotest.(check bool) (args ^ " says " ^ says) true (contains says text);
      Alcotest.(check bool) (args ^ " draws nothing") false
        (contains "\nv " ("\n" ^ text));
      Alcotest.(check bool) (args ^ " is not a crash") false
        (contains "uncaught exception" text))
    cases;
  Sys.remove path

(* --jobs counts workers: 0 and negative values are rejected up front
   rather than selecting some other sampling mode *)
let test_sample_rejects_bad_jobs () =
  rejects
    [
      ("sample", "-n 2 --jobs=0", "must be >= 1");
      ("sample", "-n 2 --jobs=-1", "must be >= 1");
    ]

let test_rejects_bad_arguments () =
  rejects
    [
      ("count", "--jobs=0", "must be >= 1");
      ("count", "--jobs=-1", "must be >= 1");
      ("sample", "-n 2 -e 1.5", "error:");
      ("count", "-e 0", "error:");
      ("count", "-d 1.5", "error:");
    ]

(* 5696 witnesses, close enough to a q boundary that the draw order
   of the ApproxMC median loop decides q: at seed 9, a loop that read
   one stream across all iterations derives q = 8 where the
   stream-per-iteration loop derives q = 9 *)
let near_q_boundary =
  "p cnf 13 7\n\
   c ind 1 2 3 4 5 6 7 8 9 10 11 12 13 0\n\
   13 -7 -1 -5 9 0\n\
   -9 -3 5 -12 0\n\
   5 2 12 -6 0\n\
   9 -8 -12 13 0\n\
   -12 11 -13 -1 8 0\n\
   4 -3 -9 -8 0\n\
   -2 -5 -9 -12 -13 0\n"

let lines_with prefix text =
  List.filter (String.starts_with ~prefix) (String.split_on_char '\n' text)

(* The worker count never changes the output: one pool serves both
   the preparation and the draws of [sample], and [count] runs the
   same stream-per-iteration loop at every --jobs *)
let test_jobs_bit_identical () =
  let path = temp_cnf near_q_boundary in
  let at jobs fmt prefix =
    let code, text = run (Printf.sprintf fmt path jobs) in
    Alcotest.(check int) (Printf.sprintf "exit 0 at -j %d" jobs) 0 code;
    lines_with prefix text
  in
  let sample jobs = at jobs "sample %s -n 8 -s 9 -j %d" "v " in
  let w1 = sample 1 in
  Alcotest.(check int) "8 witnesses" 8 (List.length w1);
  Alcotest.(check (list string)) "sample -j 1 = -j 2" w1 (sample 2);
  let count jobs = at jobs "count %s -e 0.8 -d 0.8 -s 9 -j %d" "s mc" in
  let c1 = count 1 in
  Alcotest.(check int) "one estimate" 1 (List.length c1);
  Alcotest.(check (list string)) "count -j 1 = -j 2" c1 (count 2);
  Sys.remove path

(* The daemon and [sample] prepare on the same ApproxMC loop and draw
   witness i from stream (seed, i), so a daemon answer is what [sample]
   prints for the same formula, ε, seeds and max_attempts *)
let test_daemon_equals_sample () =
  let path = temp_cnf near_q_boundary in
  let dir = Filename.temp_file "unigen_cli" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "daemon.sock" in
  let pid_file = Filename.concat dir "daemon.pid" in
  ignore
    (Sys.command
       (Printf.sprintf "%s serve --socket %s > %s 2>&1 & echo $! > %s"
          (Filename.quote binary) (Filename.quote socket)
          (Filename.quote (Filename.concat dir "daemon.log"))
          (Filename.quote pid_file)));
  Fun.protect
    ~finally:(fun () ->
      ignore (run ("client --shutdown --socket " ^ Filename.quote socket));
      (* a daemon that never answered is killed, not left behind *)
      ignore
        (Sys.command
           (Printf.sprintf "kill $(cat %s) 2>/dev/null; rm -rf %s"
              (Filename.quote pid_file) (Filename.quote dir)));
      Sys.remove path)
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket);
  let code, text =
    run
      (Printf.sprintf
         "client %s --socket %s -e 6 --prepare-seed 9 -s 9 -n 8 --max-attempts 20"
         path (Filename.quote socket))
  in
  Alcotest.(check int) "client exit 0" 0 code;
  let daemon = lines_with "v " text in
  Alcotest.(check int) "8 witnesses from the daemon" 8 (List.length daemon);
  let code, text = run (Printf.sprintf "sample %s -e 6 -n 8 -s 9" path) in
  Alcotest.(check int) "sample exit 0" 0 code;
  Alcotest.(check (list string)) "daemon = sample" (lines_with "v " text) daemon

let test_sample_unsat_exit_code () =
  let path = temp_cnf "p cnf 1 2\n1 0\n-1 0\n" in
  let code, text = run (Printf.sprintf "sample %s -n 1" path) in
  Sys.remove path;
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "says unsat" true (contains "UNSATISFIABLE" text)

let test_count_matches_truth () =
  (* 3 free vars, one clause: 7 witnesses, below the exact threshold *)
  let path = temp_cnf "p cnf 3 1\n1 2 3 0\n" in
  let code, text = run (Printf.sprintf "count %s -s 2" path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "s mc 7" true (contains "s mc 7" text)

let test_support_verifies_and_minimizes () =
  (* v3 = v1 xor v2 via CNF; declared support {1,2,3} minimizes to 2 *)
  let path =
    temp_cnf
      "p cnf 3 4\nc ind 1 2 3 0\n-3 1 2 0\n-3 -1 -2 0\n3 -1 2 0\n3 1 -2 0\n"
  in
  let code, text = run (Printf.sprintf "support %s -m" path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "minimized to 2" true (contains "(2 variables" text);
  Alcotest.(check bool) "emits c ind" true (contains "c ind" text)

let test_simplify_roundtrip () =
  let path = temp_cnf "p cnf 3 3\nc ind 1 2 0\n1 0\n-1 2 3 0\n2 3 0\n" in
  let out = Filename.temp_file "unigen_cli" ".simp.cnf" in
  let code, text = run (Printf.sprintf "simplify %s -o %s" path out) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports reduction" true (contains "clauses" text);
  (* the output must be a parseable DIMACS file *)
  let code2, text2 = run (Printf.sprintf "count %s" out) in
  Sys.remove out;
  Alcotest.(check int) "count on simplified" 0 code2;
  Alcotest.(check bool) "has a count" true (contains "s mc" text2)

let test_convert_blif () =
  let blif = Filename.temp_file "unigen_cli" ".blif" in
  let oc = open_out blif in
  output_string oc
    ".model and2\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";
  close_out oc;
  let out = Filename.temp_file "unigen_cli" ".cnf" in
  let code, text = run (Printf.sprintf "convert %s -o %s" blif out) in
  Sys.remove blif;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports sampling set" true
    (contains "sampling set = 2" text);
  (* AND with asserted output: exactly one witness *)
  let code2, text2 = run (Printf.sprintf "count %s" out) in
  Sys.remove out;
  Alcotest.(check int) "count ok" 0 code2;
  Alcotest.(check bool) "one witness" true (contains "s mc 1" text2)

let test_missing_file_error () =
  let code, _ = run "sample /nonexistent.cnf" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let test_malformed_dimacs_error () =
  let path = temp_cnf "not a cnf file\n" in
  let code, text = run (Printf.sprintf "count %s" path) in
  Sys.remove path;
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "error message" true (contains "error" text)

let test_bench_gen_unknown_instance () =
  let code, text = run "bench-gen no_such_instance" in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "suggests --list" true (contains "--list" text)

let () =
  Alcotest.run "cli"
    [
      ( "commands",
        [
          Alcotest.test_case "help" `Quick test_help;
          Alcotest.test_case "bench-gen list" `Quick test_bench_gen_list;
          Alcotest.test_case "sample" `Quick test_sample_on_simple_formula;
          Alcotest.test_case "sample unsat" `Quick test_sample_unsat_exit_code;
          Alcotest.test_case "bad arguments exit 1" `Quick
            test_rejects_bad_arguments;
          Alcotest.test_case "jobs bit-identical" `Quick test_jobs_bit_identical;
          Alcotest.test_case "daemon = sample" `Quick test_daemon_equals_sample;
          Alcotest.test_case "sample rejects bad jobs" `Quick
            test_sample_rejects_bad_jobs;
          Alcotest.test_case "count" `Quick test_count_matches_truth;
          Alcotest.test_case "support" `Quick test_support_verifies_and_minimizes;
          Alcotest.test_case "simplify" `Quick test_simplify_roundtrip;
          Alcotest.test_case "convert" `Quick test_convert_blif;
          Alcotest.test_case "missing file" `Quick test_missing_file_error;
          Alcotest.test_case "malformed dimacs" `Quick test_malformed_dimacs_error;
          Alcotest.test_case "unknown instance" `Quick test_bench_gen_unknown_instance;
        ] );
    ]
