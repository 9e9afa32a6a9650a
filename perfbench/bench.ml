(* Workload driver of the repository benchmark.

   [bench.exe WORKLOAD --seed N --seconds S --trace 0|1 --work DIR]
   runs one workload against the public library interfaces and writes
   its raw measurements to DIR/raw.json; perfbench/run.py turns them
   into the reported metrics. Witness checks run after the timed
   phase, so they never count towards a latency. *)

let now = Unix.gettimeofday

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref false
let work = ref ".perfbench"

let () =
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 traced run");
      ("--work", Arg.Set_string work, "scratch directory");
    ]
    (fun w -> workload := w)
    "bench.exe WORKLOAD [--seed N] [--seconds S] [--trace 0|1] [--work DIR]"

(* ------------------------------------------------------------------ *)
(* Seeded formulas. Base circuits come from Circuits.Generators on
   fixed generator streams (one per workload and slot), so every seed
   exercises the same shapes with the same witness counts. The
   workload seed then picks an isomorphic copy — a variable
   permutation plus shuffled clause, XOR and literal order — so each
   seed sends the program different DIMACS text, fingerprints and
   witness streams without changing how hard the formulas are. *)

type shape =
  | Case of { inputs : int; gates : int }
  | Sketch of { controls : int; data : int; tests : int }
  | Dag of { inputs : int; gates : int; outputs : int; conditions : int }

let shape_name = function
  | Case { inputs; gates } -> Printf.sprintf "case(%d,%d)" inputs gates
  | Sketch { controls; data; tests } ->
      Printf.sprintf "sketch(%d,%d,%d)" controls data tests
  | Dag { inputs; gates; outputs; conditions } ->
      Printf.sprintf "dag(%d,%d,%d,%d)" inputs gates outputs conditions

let case_s1 = Case { inputs = 14; gates = 50 }
let case_s2 = Case { inputs = 16; gates = 70 }
let case_m1 = Case { inputs = 18; gates = 110 }
let sk_login = Sketch { controls = 16; data = 6; tests = 2 }
let dag150 = Dag { inputs = 18; gates = 150; outputs = 8; conditions = 3 }

let build shape rng =
  match shape with
  | Case { inputs; gates } ->
      Circuits.Generators.case_formula ~rng ~num_inputs:inputs ~num_gates:gates
  | Sketch { controls; data; tests } ->
      let nl =
        Circuits.Generators.sketch ~rng ~name:"sketch" ~control_bits:controls
          ~data_bits:data ~num_tests:tests
      in
      (Circuits.Tseitin.encode nl).Circuits.Tseitin.formula
  | Dag { inputs; gates; outputs; conditions } ->
      let nl =
        Circuits.Generators.random_dag ~rng ~name:"dag" ~num_inputs:inputs
          ~num_gates:gates ~num_outputs:outputs
      in
      (Circuits.Tseitin.with_output_parity ~rng ~num_conditions:conditions nl)
        .Circuits.Tseitin.formula

let satisfiable f =
  match Sat.Solver.solve ~conflict_limit:200_000 (Sat.Solver.create f) with
  | Sat.Solver.Sat -> true
  | Sat.Solver.Unsat | Sat.Solver.Unknown -> false

(* The sampling set keeps its relative order (hash rows are drawn over
   it in ascending order, so a fixed preparation seed hashes the same
   structural inputs and ApproxMC reaches the same estimate); every
   other variable lands anywhere. *)
let relabel rng (f : Cnf.Formula.t) =
  let n = f.Cnf.Formula.num_vars in
  let sampling = Cnf.Formula.sampling_vars f in
  let slots = Array.init n (fun i -> i + 1) in
  Rng.shuffle rng slots;
  let targets = Array.sub slots 0 (Array.length sampling) in
  Array.sort compare targets;
  let perm = Array.make n 0 in
  Array.iteri (fun i v -> perm.(v - 1) <- targets.(i)) sampling;
  let rest = ref (Array.length sampling) in
  Array.iteri
    (fun i t ->
      if t = 0 then begin
        perm.(i) <- slots.(!rest);
        incr rest
      end)
    perm;
  let var v = perm.(v - 1) in
  let lit l = if l > 0 then var l else -var (-l) in
  let clauses =
    Array.map
      (fun c ->
        let ls = List.map lit (Cnf.Clause.to_dimacs c) in
        Cnf.Clause.of_dimacs (if Rng.bool rng then List.rev ls else ls))
      f.Cnf.Formula.clauses
  in
  Rng.shuffle rng clauses;
  let xors =
    Array.map
      (fun (x : Cnf.Xor_clause.t) ->
        Cnf.Xor_clause.make (Array.to_list (Array.map var x.vars)) x.rhs)
      f.Cnf.Formula.xors
  in
  Rng.shuffle rng xors;
  Cnf.Formula.create_with_xors
    ~sampling_set:(List.map var (Array.to_list (Cnf.Formula.sampling_vars f)))
    ~num_vars:n (Array.to_list clauses) (Array.to_list xors)

type input = { shape : shape; text : string; num_vars : int; sampling : int }

(* Copy [copy] of slot [slot] of workload stream [stream], as the
   DIMACS text the program receives; fails the run when no satisfiable
   instance turns up. *)
let generate ?(copy = 0) ~stream ~slot shape =
  let rec go attempt =
    if attempt >= 32 then
      failwith (Printf.sprintf "no satisfiable %s formula" (shape_name shape));
    let base = build shape (Rng.of_stream ~seed:stream ((slot * 32) + attempt)) in
    let f = relabel (Rng.of_stream ~seed:!seed ((stream * 10_000) + (copy * 100) + slot)) base in
    if satisfiable f then
      {
        shape;
        text = Cnf.Dimacs.to_string f;
        num_vars = f.Cnf.Formula.num_vars;
        sampling = Array.length (Cnf.Formula.sampling_vars f);
      }
    else go (attempt + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o700;
  path

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let prefix = "VmHWM:" in
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) @@ fun ic ->
  let rec go () =
    match In_channel.input_line ic with
    | None -> 0.0
    | Some line when String.starts_with ~prefix line ->
        let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
        float_of_string (List.nth fields 1) /. 1024.0
    | Some _ -> go ()
  in
  go ()

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let span ?args name f = Obs.Trace.span ~cat:"bench" ?args name f

(* Host speed probe. The shared host's speed drifts by 20-30% over
   minutes, far more than the regressions the bounds must catch, so
   every run interleaves a fixed reference computation (stdlib only,
   none of the program's code) with its work and records when it ran
   and how long it took. run.py scales each time by the probes around
   it against a fixed nominal, which cancels the drift; the raw times
   are kept too. The probe sorts and hashes an integer array (branches,
   array walks, like the solver) and streams short lists through the
   minor heap (the sampler allocates ~2 M words per draw). Nothing it
   allocates survives a minor collection, so it does no major-heap work
   on the program's behalf. Times are seconds since the start of the
   process. *)
let origin = now ()
let clock () = now () -. origin
let probe_n = 4096
let probe_src = Array.init probe_n (fun i -> ((i * 7919) + 13) land 0xffff)

(* one buffer pair per domain of a pool of 2, which probe at once *)
let probe_bufs = Array.init 2 (fun _ -> Array.make probe_n 0)
let probe_tables = Array.init 2 (fun _ -> Array.make (2 * probe_n) (-1))

let probe ?(slot = 0) () =
  let probe_buf = probe_bufs.(slot) and probe_table = probe_tables.(slot) in
  let t0 = now () in
  let mask = Array.length probe_table - 1 in
  for i = 0 to probe_n - 1 do
    probe_buf.(i) <- (probe_src.(i) * 40503) land 0xfffff
  done;
  Array.sort Int.compare probe_buf;
  Array.fill probe_table 0 (mask + 1) (-1);
  for i = 0 to probe_n - 1 do
    let k = probe_buf.(i) in
    let h = ref ((k * 0x9E3779B1) land mask) in
    while probe_table.(!h) <> -1 && probe_table.(!h) <> k do
      h := (!h + 1) land mask
    done;
    probe_table.(!h) <- k
  done;
  let s = ref 0 in
  for i = 1 to 20_000 do
    s := !s + List.fold_left ( + ) 0 (List.rev [ i; i + 1; i + 2; i + 3 ])
  done;
  ignore (Sys.opaque_identity !s);
  (t0 -. origin, now () -. t0)

(* the first runs fault in pages and caches *)
let () =
  for _ = 1 to 20 do
    ignore (probe ())
  done

let probes = ref []
let probes_lock = Mutex.create ()

let record_probe ?slot () =
  let p = probe ?slot () in
  Mutex.protect probes_lock (fun () -> probes := p :: !probes)

let probe_burst ?(slot = 0) () =
  for _ = 1 to 8 do
    record_probe ~slot ()
  done

(* a burst on each domain of a pool of 2 at once, so the probes see
   both cores the pool's work runs on *)
let pool_probe_burst pool = Parallel.Domain_pool.iteri pool (fun _ slot -> probe_burst ~slot ()) [| 0; 1 |]

(* [f ()] with probe bursts on either side; the interval is recorded
   in [into]. *)
let probed into f =
  probe_burst ();
  let t0 = clock () in
  let v = f () in
  into := (t0, clock ()) :: !into;
  probe_burst ();
  v

(* The traced half of a run: trace and metrics on, plus an instant
   carrying the absolute clock so run.py can line the trace up with
   wall-clock windows. *)
let start_trace path =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Obs.Trace.enable_file path;
  Obs.Trace.instant ~cat:"bench" "bench.clock"
    ~args:[ ("abs_us", Printf.sprintf "%.3f" (Obs.Trace.now_us ())) ]

let stop_trace () =
  Obs.Trace.close ();
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  snap

let invalid = ref 0

let check_model f m = if not (Cnf.Model.satisfies f m) then incr invalid

let check_outcomes f outs =
  Array.iter (function Ok m -> check_model f m | Error _ -> ()) outs

let count_errors outs =
  Array.fold_left (fun a o -> if Result.is_error o then a + 1 else a) 0 outs

(* Digest of a witness stream: DIMACS literals, one witness per line;
   a failed slot is an empty line. *)
let digest_of_witnesses ws =
  let b = Buffer.create 4096 in
  List.iter
    (fun w ->
      List.iter (fun l -> Buffer.add_string b (string_of_int l); Buffer.add_char b ' ') w;
      Buffer.add_char b '\n')
    ws;
  Digest.to_hex (Digest.string (Buffer.contents b))

let outcome_lits = function Ok m -> Cnf.Model.to_dimacs m | Error _ -> []

(* ------------------------------------------------------------------ *)
(* Raw output *)

module J = Service.Json

let floats l = J.List (List.map (fun x -> J.Float x) l)
let ms l = floats (List.map (fun s -> s *. 1000.0) l)
let pairs l = J.List (List.map (fun (a, b) -> J.List [ J.Float a; J.Float b ]) l)

let snapshot_json (s : Obs.Metrics.snapshot) =
  J.Obj
    (List.map (fun (k, v) -> (k, J.Int v)) s.Obs.Metrics.counters
    @ List.map (fun (k, v) -> (k, J.Float v)) s.Obs.Metrics.gauges)

let stats_json (s : Sampling.Sampler.run_stats) =
  J.Obj
    [
      ("samples_requested", J.Int s.samples_requested);
      ("samples_produced", J.Int s.samples_produced);
      ("xor_rows", J.Int s.xor_rows);
      ("xor_vars", J.Int s.xor_vars);
      ("conflicts", J.Int s.conflicts);
      ("propagations", J.Int s.propagations);
      ("xor_propagations", J.Int s.xor_propagations);
      ("reuse_hits", J.Int s.reuse_hits);
    ]

let shapes_json inputs =
  J.List
    (List.map
       (fun i ->
         J.Obj
           [
             ("shape", J.Str (shape_name i.shape));
             ("vars", J.Int i.num_vars);
             ("sampling", J.Int i.sampling);
           ])
       inputs)

let write_raw fields =
  Out_channel.with_open_bin (Filename.concat !work "raw.json") @@ fun oc ->
  output_string oc
    (J.to_string
       (J.Obj
          (fields
          @ [
              ("invalid", J.Int !invalid);
              ("ocaml", J.Str Sys.ocaml_version);
              ("probes", pairs (List.rev_map (fun (t, d) -> (t, d *. 1000.0)) !probes));
            ])))

let trace_path () = Filename.concat !work "trace.json"

(* In a traced run the first half of the budget runs untraced and the
   second half repeats the same amount of work traced. *)
let budget () = if !traced then !seconds /. 2.0 else !seconds

(* ------------------------------------------------------------------ *)
(* offline_sample: `unigen sample -n 20 --jobs 2` in-process, once per
   formula, in complete rounds over four shapes until the time is up.
   Each round relabels the same four base circuits afresh, so rounds
   are distinct formulas of equal cost and the round count cannot skew
   the percentiles. *)

let offline_shapes = [| case_s1; case_s2; case_m1; sk_login |]
let offline_rounds = 6

(* three rounds give every shape three samples in the percentiles *)
let min_rounds = 3
let witnesses_per_formula = 20

type offline_pass = {
  o_ops : float list;
  o_starts : float list;
  o_wall : float;
  o_rounds : int;
  o_results : (Cnf.Formula.t * Sampling.Sampler.outcome array) list;
  o_parse : float list;
  o_prepare : float list;
  o_batch : float list;
  o_stats : Sampling.Sampler.run_stats;
}

let offline () =
  let gen () =
    Array.init offline_rounds (fun r ->
        Array.mapi
          (fun j shape -> generate ~copy:r ~stream:1 ~slot:j shape)
          offline_shapes)
  in
  (* set-up is cheap here, so it is repeated more often for a steady
     median *)
  let setups = ref [] in
  for _ = 1 to 15 do
    ignore (probed setups gen)
  done;
  let inputs = gen () in
  let pass ~rounds =
    let ops = ref [] and parse = ref [] and prep = ref [] and batch = ref [] in
    let results = ref [] and starts = ref [] and probing = ref 0.0 in
    let stats = Sampling.Sampler.fresh_stats () in
    let t0 = now () in
    let r = ref 0 and i = ref 0 in
    span "bench.run" (fun () ->
        Parallel.Domain_pool.with_pool ~jobs:2 @@ fun pool ->
        while
          match rounds with
          | Some n -> !r < n
          | None -> !r < min_rounds || now () -. t0 < budget ()
        do
          Array.iter
            (fun input ->
              let draw_seed = (!seed * 1009) + !i and prepare_seed = 1 + (!i mod 4) in
              incr i;
              if rounds = None then probing := !probing +. snd (timed (fun () -> pool_probe_burst pool));
              let t1 = now () in
              starts := (t1 -. origin) :: !starts;
              span "bench.formula" ~args:[ ("sampling", string_of_int input.sampling) ]
              @@ fun () ->
              let f, dp =
                timed (fun () -> span "bench.parse" (fun () -> Cnf.Dimacs.parse_string input.text))
              in
              let p, dq =
                timed (fun () ->
                    span "bench.prepare" (fun () ->
                        Sampling.Unigen.prepare ~pool ~rng:(Rng.create prepare_seed) ~epsilon:6.0 f))
              in
              let p =
                match p with Ok p -> p | Error _ -> failwith "offline_sample: prepare failed"
              in
              let outs, db =
                timed (fun () ->
                    span "bench.batch" (fun () ->
                        Sampling.Unigen.sample_batch ~pool ~max_attempts:20 ~seed:draw_seed p
                          witnesses_per_formula))
              in
              ops := (now () -. t1) :: !ops;
              parse := dp :: !parse;
              prep := dq :: !prep;
              batch := db :: !batch;
              Sampling.Sampler.merge_into ~into:stats (Sampling.Unigen.stats p);
              results := (f, outs) :: !results)
            inputs.(!r mod offline_rounds);
          incr r
        done);
    {
      o_ops = List.rev !ops;
      o_starts = List.rev !starts;
      o_wall = now () -. t0 -. !probing;
      o_rounds = !r;
      o_results = List.rev !results;
      o_parse = List.rev !parse;
      o_prepare = List.rev !prep;
      o_batch = List.rev !batch;
      o_stats = stats;
    }
  in
  let a = pass ~rounds:None in
  List.iter (fun (f, outs) -> check_outcomes f outs) a.o_results;
  let first_round = List.filteri (fun i _ -> i < Array.length offline_shapes) a.o_results in
  let digest =
    digest_of_witnesses
      (List.concat_map (fun (_, outs) -> List.map outcome_lits (Array.to_list outs)) first_round)
  in
  let failed = List.fold_left (fun acc (_, outs) -> acc + count_errors outs) 0 a.o_results in
  let slots = List.length a.o_ops * witnesses_per_formula in
  let traced_fields =
    if not !traced then []
    else begin
      start_trace (trace_path ());
      let b = pass ~rounds:(Some a.o_rounds) in
      let snap = stop_trace () in
      List.iter (fun (f, outs) -> check_outcomes f outs) b.o_results;
      [
        ("untraced_wall_s", J.Float a.o_wall);
        ("traced_wall_s", J.Float b.o_wall);
        ("traces", J.List [ J.Str (trace_path ()) ]);
        ("parse_ms", ms b.o_parse);
        ("prepare_s", floats b.o_prepare);
        ("batch_s", floats b.o_batch);
        ("run_stats", stats_json b.o_stats);
        ("metrics", snapshot_json snap);
        ("pool_jobs", J.Int 2);
      ]
    end
  in
  write_raw
    ([
       ("workload", J.Str "offline_sample");
       ("setups", pairs (List.rev !setups));
       ("ops_ms", ms a.o_ops);
       ("ops_t", floats a.o_starts);
       ("ops_class", J.List (List.mapi (fun i _ -> J.Int (i mod Array.length offline_shapes)) a.o_ops));
       ("wall_s", J.Float a.o_wall);
       ("witnesses", J.Int (slots - failed));
       ("attempted", J.Int slots);
       ("failed", J.Int failed);
       ("digest", J.Str digest);
       ("shapes", shapes_json (Array.to_list inputs.(0)));
     ]
    @ traced_fields
    @ [ ("peak_rss_mb", J.Float (peak_rss_mb "self")) ])

(* ------------------------------------------------------------------ *)
(* warm_draws: two prepared formulas of contrasting shape, then serial
   [sample_index] calls alternating between them. *)

let warm_shapes = [| case_m1; dag150 |]
let digest_draws = 200

type warm_pass = {
  w_lat : float list;
  w_starts : float list;
  w_wall : float;
  w_outs : (int * Sampling.Sampler.outcome) list;
  w_stats : Sampling.Sampler.run_stats;
  w_minor : float;
}

let warm () =
  let setup () =
    Array.mapi
      (fun j shape ->
        let input = generate ~stream:2 ~slot:j shape in
        let f = Cnf.Dimacs.parse_string input.text in
        let p =
          Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
              Sampling.Unigen.prepare ~pool ~rng:(Rng.create (1 + j)) ~epsilon:6.0 f)
        in
        match p with
        | Ok p -> (input, f, p)
        | Error _ -> failwith "warm_draws: prepare failed")
      warm_shapes
  in
  let setups = ref [] in
  let prepared = List.nth (List.init 3 (fun _ -> probed setups setup)) 2 in
  let draw_seed = !seed * 7 in
  (* draws from index [first] on, until the budget or exactly [count] *)
  let pass ~first ~count =
    let lat = ref [] and outs = ref [] and minor = ref 0.0 in
    let starts = ref [] and probing = ref 0.0 in
    let stats = Sampling.Sampler.fresh_stats () in
    let t0 = now () in
    let k = ref 0 in
    span "bench.run" (fun () ->
        while
          match count with
          | Some c -> !k < c
          | None -> !k < digest_draws || now () -. t0 < budget ()
        do
          let j = !k mod 2 in
          let _, _, p = prepared.(j) in
          let w0 = Gc.minor_words () in
          let t1 = now () in
          starts := (t1 -. origin) :: !starts;
          let o, st =
            span "bench.sample_index" (fun () ->
                Sampling.Unigen.sample_index ~max_attempts:20 ~seed:draw_seed p (first + (!k / 2)))
          in
          lat := (now () -. t1) :: !lat;
          minor := !minor +. (Gc.minor_words () -. w0);
          if count = None then probing := !probing +. snd (timed record_probe);
          Sampling.Sampler.merge_into ~into:stats st;
          outs := (j, o) :: !outs;
          incr k
        done);
    {
      w_lat = List.rev !lat;
      w_starts = List.rev !starts;
      w_wall = now () -. t0 -. !probing;
      w_outs = List.rev !outs;
      w_stats = stats;
      w_minor = !minor;
    }
  in
  let check outs =
    List.iter
      (fun (j, o) ->
        let _, f, _ = prepared.(j) in
        match o with Ok m -> check_model f m | Error _ -> ())
      outs
  in
  let a = pass ~first:0 ~count:None in
  check a.w_outs;
  let digest =
    digest_of_witnesses
      (List.filteri (fun i _ -> i < digest_draws) a.w_outs |> List.map (fun (_, o) -> outcome_lits o))
  in
  let failed = List.length (List.filter (fun (_, o) -> Result.is_error o) a.w_outs) in
  let n = List.length a.w_lat in
  let traced_fields =
    if not !traced then []
    else begin
      start_trace (trace_path ());
      let b = pass ~first:((n + 1) / 2) ~count:(Some n) in
      let snap = stop_trace () in
      (* solver sessions keep warming up, so the untraced reference for
         the overhead ratio is a third pass after the traced one *)
      let c = pass ~first:(n + 1) ~count:(Some n) in
      check b.w_outs;
      check c.w_outs;
      [
        ("untraced_wall_s", J.Float c.w_wall);
        ("traced_wall_s", J.Float b.w_wall);
        ("traces", J.List [ J.Str (trace_path ()) ]);
        ("run_stats", stats_json b.w_stats);
        ("minor_words", J.Float b.w_minor);
        ("draws", J.Int n);
        ("metrics", snapshot_json snap);
      ]
    end
  in
  write_raw
    ([
       ("workload", J.Str "warm_draws");
       ("setups", pairs (List.rev !setups));
       ("ops_ms", ms a.w_lat);
       ("ops_t", floats a.w_starts);
       ("ops_class", J.List (List.mapi (fun i _ -> J.Int (i mod 2)) a.w_lat));
       ("wall_s", J.Float a.w_wall);
       ("witnesses", J.Int (n - failed));
       ("attempted", J.Int n);
       ("failed", J.Int failed);
       ("digest", J.Str digest);
       ("shapes", shapes_json (Array.to_list (Array.map (fun (i, _, _) -> i) prepared)));
     ]
    @ traced_fields
    @ [ ("peak_rss_mb", J.Float (peak_rss_mb "self")) ])

(* ------------------------------------------------------------------ *)
(* daemon_mix: a forked Service.Server daemon (jobs 2, durable spill,
   LRU smaller than the formula set) driven by two closed-loop
   clients with a skewed formula mix. *)

let daemon_shapes =
  [|
    Case { inputs = 12; gates = 40 };
    Case { inputs = 13; gates = 45 };
    Case { inputs = 12; gates = 40 };
    Case { inputs = 13; gates = 45 };
  |]
let daemon_stream = 4

(* The skewed mix, as exact counts per block of 20 requests; each
   block's order is shuffled by the seed, so every run sends the same
   proportions. *)
let daemon_block = [| 8; 6; 4; 2 |]
let request_n = 5
let min_requests_per_client = 150
let digest_requests = 50

type daemon = { pid : int; socket : string }

let start_daemon ~dir ~spill ~trace =
  let socket = Filename.concat dir "d.sock" in
  let scheduler =
    {
      Service.Scheduler.default_config with
      Service.Scheduler.jobs = 2;
      cache_capacity = 3;
      spill_dir = Some spill;
    }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          (match trace with
          | Some (trace_file, log_file) ->
              start_trace trace_file;
              Obs.Log.enable_file log_file
          | None -> ());
          span "bench.daemon" (fun () ->
              Service.Server.run
                { (Service.Server.default_config ~socket_path:socket) with Service.Server.scheduler });
          Obs.Trace.close ();
          Obs.Log.close ();
          0
        with e ->
          prerr_endline ("daemon: " ^ Printexc.to_string e);
          3
      in
      Unix._exit code
  | pid ->
      let deadline = now () +. 20.0 in
      while (not (Sys.file_exists socket)) && now () < deadline do
        ignore (Unix.select [] [] [] 0.01)
      done;
      { pid; socket }

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* Graceful stop; anything but a clean exit 0 fails the run. *)
let stop_daemon d =
  (match Service.Client.call ~socket_path:d.socket Service.Wire.Shutdown with
  | Service.Wire.Bye -> ()
  | _ -> failwith "daemon refused shutdown");
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon exited uncleanly"

let sample_req ~text ~seed ~trace_id =
  Service.Wire.Sample
    {
      Service.Wire.default_sample_req with
      Service.Wire.formula_text = text;
      n = request_n;
      seed;
      trace_id = Some trace_id;
    }

(* Client [c]'s [k]-th request: formula by the skewed mix and a fresh
   draw seed, a pure function of (seed, c, k). *)
let plan c k =
  let size = Array.fold_left ( + ) 0 daemon_block in
  let block = Array.concat (Array.to_list (Array.mapi (fun fi n -> Array.make n fi) daemon_block)) in
  Rng.shuffle (Rng.of_stream ~seed:(!seed + 77) ((c * 1_000_000) + (k / size))) block;
  (block.(k mod size), (!seed * 100_003) + (c * 10_000) + k + 1)

type reply = {
  c : int;
  k : int;
  fi : int;
  draw_seed : int;
  sent : float;
  rtt : float;
  response : Service.Wire.response;
}

let status_of = function
  | Service.Wire.Ok_sample _ -> "ok"
  | Service.Wire.Rejected _ -> "rejected"
  | Service.Wire.Deadline_miss _ -> "deadline_miss"
  | Service.Wire.Cancelled _ -> "cancelled"
  | Service.Wire.Unsat _ -> "unsat"
  | Service.Wire.Error_msg _ -> "error"
  | _ -> "other"

let witnesses r =
  match r.response with Service.Wire.Ok_sample ok -> ok.Service.Wire.witnesses | _ -> []

(* [f 0] and [f 1] on two threads; a thread's exception is re-raised
   here instead of dying with the thread. *)
let on_two_threads f =
  let results = Array.make 2 (Error Exit) in
  let threads =
    List.init 2 (fun c ->
        Thread.create (fun () -> results.(c) <- (try Ok (f c ()) with e -> Error e)) ())
  in
  List.iter Thread.join threads;
  List.map (function Ok v -> v | Error e -> raise e) (Array.to_list results)

(* Two closed-loop client threads (threads, not domains: the process
   forks further daemons later, which OCaml forbids once a domain was
   ever spawned); each runs until the budget is spent
   and it has sent its minimum, or exactly [counts.(c)] requests. *)
let drive d inputs ~counts =
  let t0 = now () in
  let client c () =
    Service.Client.with_connection ~socket_path:d.socket @@ fun conn ->
    let replies = ref [] in
    let k = ref 0 in
    let hard_stop = t0 +. 90.0 in
    while
      (match counts with
      | Some a -> !k < a.(c)
      | None -> !k < min_requests_per_client || now () -. t0 < budget ())
      && now () < hard_stop
    do
      let fi, draw_seed = plan c !k in
      let req =
        sample_req ~text:inputs.(fi).text ~seed:draw_seed ~trace_id:(Printf.sprintf "c%d-%d" c !k)
      in
      let t1 = now () in
      let response = Service.Client.request conn req in
      replies := { c; k = !k; fi; draw_seed; sent = t1 -. origin; rtt = now () -. t1; response } :: !replies;
      incr k
    done;
    List.rev !replies
  in
  (* in the untraced pass a third thread probes the host's speed every
     50 ms; it holds the runtime lock for a probe's 2 ms at most *)
  let probing = ref (counts = None) in
  let prober =
    Thread.create
      (fun () ->
        while !probing do
          record_probe ();
          Thread.delay 0.05
        done)
      ()
  in
  let replies =
    Fun.protect
      ~finally:(fun () ->
        probing := false;
        Thread.join prober)
      (fun () -> on_two_threads client)
  in
  (replies, now () -. t0)

let daemon_status d =
  match Service.Client.call ~socket_path:d.socket Service.Wire.Status with
  | Service.Wire.Metrics { values; _ } -> values
  | _ -> failwith "status op failed"

let check_pins values =
  match List.assoc_opt "service.cache_pins" values with
  | Some p when p <> 0.0 -> failwith "service.cache_pins non-zero after the timed phase"
  | _ -> ()

(* One request per formula from two client threads (formulas 0, 2
   and 1, 3): cold (prepare and spill) on a fresh spill directory,
   disk-warm on a used one. *)
let first_requests d inputs =
  let client c () =
    Service.Client.with_connection ~socket_path:d.socket @@ fun conn ->
    Array.iteri
      (fun fi input ->
        if fi mod 2 = c then
          match
            Service.Client.request conn
              (sample_req ~text:input.text ~seed:1 ~trace_id:(Printf.sprintf "setup-%d" fi))
          with
          | Service.Wire.Ok_sample _ -> ()
          | r -> failwith ("set-up request failed: " ^ status_of r))
      inputs
  in
  ignore (on_two_threads client : unit list)

let model_of n lits =
  let a = Array.make n false in
  List.iter (fun l -> if l > 0 then a.(l - 1) <- true) lits;
  Cnf.Model.of_bool_array a

(* Offline [sample_batch] on the canonical formula must reproduce the
   daemon's witnesses bit for bit; returns the mismatch count. *)
let compare_offline formulas subset =
  let prepared = Hashtbl.create 4 in
  List.fold_left
    (fun mismatches r ->
      let p =
        match Hashtbl.find_opt prepared r.fi with
        | Some p -> p
        | None ->
            let canon = Service.Registry.canonical formulas.(r.fi) in
            let p =
              match Sampling.Unigen.prepare ~rng:(Rng.create 1) ~epsilon:6.0 canon with
              | Ok p -> p
              | Error _ -> failwith "offline prepare failed"
            in
            Hashtbl.replace prepared r.fi p;
            p
      in
      let outs = Sampling.Unigen.sample_batch ~max_attempts:20 ~seed:r.draw_seed p request_n in
      let offline = Array.to_list outs |> List.filter_map (function Ok m -> Some (Cnf.Model.to_dimacs m) | Error _ -> None) in
      if offline = witnesses r then mismatches else mismatches + 1)
    0 subset

let values_json values = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) values)

let reply_json r =
  let base = [ ("trace_id", J.Str (Printf.sprintf "c%d-%d" r.c r.k)); ("rtt_ms", J.Float (r.rtt *. 1000.0)); ("status", J.Str (status_of r.response)) ] in
  match r.response with
  | Service.Wire.Ok_sample ok ->
      J.Obj
        (base
        @ [
            ("cache", J.Str (Service.Wire.cache_source_to_string ok.Service.Wire.cache));
            ("queue_ms", J.Float (ok.Service.Wire.queue_wait_s *. 1000.0));
            ("produced", J.Int ok.Service.Wire.produced);
            ("requested", J.Int ok.Service.Wire.requested);
          ])
  | _ -> J.Obj base

let daemon_mix () =
  let root = fresh_dir (Filename.concat !work "daemon") in
  let live = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter kill_daemon !live;
      rm_rf root)
  @@ fun () ->
  let launch name ~spill ~trace =
    let d = start_daemon ~dir:(fresh_dir (Filename.concat root name)) ~spill ~trace in
    live := d :: !live;
    if not (Sys.file_exists d.socket) then failwith "daemon did not start";
    d
  in
  let stop d =
    stop_daemon d;
    live := List.filter (fun d' -> d'.pid <> d.pid) !live
  in
  (* set-up: generate, fork, one cold request per formula; three times
     over fresh spill directories, the last daemon serves the timed
     phase *)
  let setups = ref [] in
  let setup i =
    probed setups @@ fun () ->
    let inputs = Array.mapi (fun j shape -> generate ~stream:daemon_stream ~slot:j shape) daemon_shapes in
    let spill = fresh_dir (Filename.concat root (Printf.sprintf "spill%d" i)) in
    let d = launch (Printf.sprintf "a%d" i) ~spill ~trace:None in
    first_requests d inputs;
    (inputs, spill, d)
  in
  let runs = List.init 3 setup in
  List.iteri (fun i (_, _, d) -> if i < 2 then stop d) runs;
  let inputs, spill, d = List.nth runs 2 in
  let replies, wall = drive d inputs ~counts:None in
  let status_a = daemon_status d in
  check_pins status_a;
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop d;
  let all = List.concat replies in
  let formulas = Array.map (fun i -> Cnf.Dimacs.parse_string i.text) inputs in
  List.iter
    (fun r -> List.iter (fun w -> check_model formulas.(r.fi) (model_of inputs.(r.fi).num_vars w)) (witnesses r))
    all;
  let subset = List.filter (fun r -> status_of r.response = "ok" && r.k mod 20 = 0) all in
  let mismatches = compare_offline formulas subset in
  let digest =
    digest_of_witnesses
      (List.concat_map
         (fun rs -> List.concat_map witnesses (List.filter (fun r -> r.k < digest_requests) rs))
         replies)
  in
  let produced = List.fold_left (fun a r -> a + List.length (witnesses r)) 0 all in
  let traced_fields =
    if not !traced then []
    else begin
      (* a second, traced daemon over the same spill directory: the
         same first requests (now disk-warm) rebuild the same LRU
         order, then the same per-client request sequences run *)
      let trace_file = trace_path () and log_file = Filename.concat !work "log.jsonl" in
      let d = launch "b" ~spill ~trace:(Some (trace_file, log_file)) in
      first_requests d inputs;
      let status_before = daemon_status d in
      let counts = Array.of_list (List.map List.length replies) in
      let t_start = Obs.Trace.now_us () in
      let replies', wall' = drive d inputs ~counts:(Some counts) in
      let t_end = Obs.Trace.now_us () in
      let status = daemon_status d in
      check_pins status;
      stop d;
      (* per-request parse and fingerprint cost of each formula text,
         the work the daemon's select loop does before admission *)
      let parse_ms = ref [] and fp_ms = ref [] in
      for _ = 1 to 5 do
        Array.iter
          (fun i ->
            let f, dp = timed (fun () -> Cnf.Dimacs.parse_string i.text) in
            let _, df = timed (fun () -> Service.Registry.fingerprint f) in
            parse_ms := dp :: !parse_ms;
            fp_ms := df :: !fp_ms)
          inputs
      done;
      [
        ("untraced_wall_s", J.Float wall);
        ("traced_wall_s", J.Float wall');
        ("traces", J.List [ J.Str trace_file ]);
        ("log", J.Str log_file);
        ("window_us", floats [ t_start; t_end ]);
        ("replies", J.List (List.map reply_json (List.concat replies')));
        ("parse_ms", ms !parse_ms);
        ("fingerprint_ms", ms !fp_ms);
        ("status_before", values_json status_before);
        ("status", values_json status);
        ("executor_workers", J.Int 2);
      ]
    end
  in
  write_raw
    ([
       ("workload", J.Str "daemon_mix");
       ("setups", pairs (List.rev !setups));
       ("ops_ms", ms (List.map (fun r -> r.rtt) all));
       ("ops_t", floats (List.map (fun r -> r.sent) all));
       ("ops_class", J.List (List.map (fun r -> J.Int r.fi) all));
       ("wall_s", J.Float wall);
       ("witnesses", J.Int produced);
       ("attempted", J.Int (List.length all));
       ("replies_untraced", J.List (List.map reply_json all));
       ("digest", J.Str digest);
       ("compared", J.Int (List.length subset));
       ("mismatches", J.Int mismatches);
       ("shapes", shapes_json (Array.to_list inputs));
       ("peak_rss_mb", J.Float rss);
       ("status_untraced", values_json status_a);
     ]
    @ traced_fields)

let () =
  match !workload with
  | "offline_sample" -> offline ()
  | "warm_draws" -> warm ()
  | "daemon_mix" -> daemon_mix ()
  | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
