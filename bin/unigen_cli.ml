(* Command-line front end, mirroring the original UniGen tool's usage:
   sample witnesses of a DIMACS CNF file (with optional `c ind`
   sampling-set lines), approximately count models, compute independent
   supports, and emit the bundled benchmark instances. *)

open Cmdliner

let read_formula path =
  try Ok (Cnf.Dimacs.parse_file path) with
  | Cnf.Dimacs.Parse_error msg -> Error msg
  | Sys_error msg -> Error msg

let print_witness m sampling =
  let restricted = Cnf.Model.restrict m sampling in
  let parts = List.map string_of_int (Cnf.Model.to_dimacs restricted) in
  print_endline ("v " ^ String.concat " " parts ^ " 0")

(* ------------------------------------------------------------------ *)
(* Observability plumbing shared by sample and count: --trace FILE
   (Chrome trace_event JSON, load in chrome://tracing or Perfetto),
   --metrics-json FILE (structured run report), --stats (same report,
   as comment lines). Instrumentation is enabled before any solver or
   worker domain exists and the trace sink is closed on every exit
   path. *)

let with_observability ~trace ~metrics_json ~show_stats f =
  if show_stats || metrics_json <> None || trace <> None then
    Obs.Metrics.enable ();
  (match trace with Some path -> Obs.Trace.enable_file path | None -> ());
  Fun.protect ~finally:Obs.Trace.close f

(* Emit the finished report on the channels the flags asked for. *)
let emit_report ~metrics_json ~show_stats sections =
  if show_stats || metrics_json <> None then begin
    let report = Obs.Report.create () in
    List.iter (fun (title, fields) -> Obs.Report.add_section report title fields)
      sections;
    List.iter (fun (title, fields) -> Obs.Report.add_section report title fields)
      (Obs.Report.metrics_sections (Obs.Metrics.snapshot ()));
    if show_stats then Obs.Report.pp Format.std_formatter report;
    match metrics_json with
    | Some path -> Obs.Report.write_json path report
    | None -> ()
  end

(* The ["solver"] report section of [sample] and [count], and
   [sample]'s ["prepare_solver"]: one field list, so every section
   reports the same counters under the same keys. *)
let solver_section ?(name = "solver") (st : Sat.Solver.stats) ~reuse_hits =
  ( name,
    Obs.Report.
      [
        ("conflicts", Int st.conflicts);
        ("decisions", Int st.decisions);
        ("propagations", Int st.propagations);
        ("xor_propagations", Int st.xor_propagations);
        ("restarts", Int st.restarts);
        ("learnts", Int st.learnts);
        ("reuse_hits", Int reuse_hits);
      ] )

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run (solver \
           calls, XOR layer swaps, BSAT enumerations, ApproxMC \
           iterations, UniGen draws, worker lifecycles) to $(docv); open \
           it in chrome://tracing or Perfetto.")

let metrics_json_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write the structured run report (run accounting, solver \
           counters, per-phase wall time, host info) as JSON to $(docv).")

let audit_arg =
  Cmdliner.Arg.(
    value
    & flag
    & info [ "audit" ]
        ~doc:
          "Enable the correctness-audit subsystem: sampled invariant \
           sweeps of the live CDCL/XOR solver state, re-evaluation of \
           every witness against all clauses and XOR constraints, \
           blocking-set disjointness checking, and domain-ownership \
           tracking. A detected violation aborts with a structured \
           state dump. Equivalent to setting UNIGEN_AUDIT=1; tune the \
           sweep sampling period with UNIGEN_AUDIT_PERIOD (default 64).")

(* ------------------------------------------------------------------ *)
(* unigen sample *)

let sample_cmd =
  let run file num epsilon seed timeout project_only jobs show_stats audit trace
      metrics_json =
    if audit then Audit.enable ();
    if jobs < 1 then begin
      Printf.eprintf "error: --jobs must be >= 1\n";
      1
    end
    else
      match read_formula file with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok f ->
          with_observability ~trace ~metrics_json ~show_stats @@ fun () ->
          let rng = Rng.create seed in
          let deadline = Unix.gettimeofday () +. timeout in
          (* one pool for preparation and draws: the count runs on the
             stream-per-iteration loop at every worker count, and a
             [jobs = 1] pool spawns no domain *)
          Parallel.Domain_pool.with_pool ~jobs @@ fun pool ->
          match Sampling.Unigen.prepare ~deadline ~pool ~rng ~epsilon f with
          | exception Invalid_argument msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Error Sampling.Unigen.Unsat_formula ->
              print_endline "s UNSATISFIABLE";
              2
          | Error Sampling.Unigen.Prepare_timeout | Error Sampling.Unigen.Count_failed ->
              Printf.eprintf "error: preparation timed out\n";
              1
          | Ok prepared ->
              let sampling =
                if project_only then Cnf.Formula.sampling_vars f
                else Array.init f.Cnf.Formula.num_vars (fun i -> i + 1)
              in
              Printf.printf "c UniGen: epsilon=%.2f kappa=%.3f pivot=%d |S|=%d%s jobs=%d\n"
                epsilon
                (Sampling.Unigen.kappa prepared)
                (Sampling.Unigen.pivot prepared)
                (Array.length (Cnf.Formula.sampling_vars f))
                (if Sampling.Unigen.is_easy prepared then " (easy case)" else "")
                jobs;
              (* sample i consumes stream (seed, i), so the printed
                 witness list is bit-identical for every --jobs value
                 (and across reruns with the same seed) *)
              let outcomes =
                Sampling.Unigen.sample_batch ~deadline ~max_attempts:20 ~pool
                  ~seed prepared num
              in
              let produced = ref 0 in
              Array.iter
                (function
                  | Ok m ->
                      incr produced;
                      print_witness m sampling
                  | Error _ -> ())
                outcomes;
              let st = Sampling.Unigen.stats prepared in
              Printf.printf
                "c produced %d/%d witnesses in %d attempts (avg %.4f s, avg xor len %.1f)\n"
                !produced num st.Sampling.Sampler.samples_requested
                (Sampling.Sampler.average_seconds_per_sample st)
                (Sampling.Sampler.average_xor_length st);
              emit_report ~metrics_json ~show_stats
                [
                  ( "config",
                    Obs.Report.
                      [
                        ("command", String "sample");
                        ("file", String file);
                        ("epsilon", Float epsilon);
                        ("seed", Int seed);
                        ("jobs", Int jobs);
                      ] );
                  ("run", Sampling.Sampler.report_fields st);
                  solver_section
                    (Sampling.Sampler.solver_stats st)
                    ~reuse_hits:st.Sampling.Sampler.reuse_hits;
                  (let st, reuse_hits = Sampling.Unigen.prepare_solver prepared in
                   solver_section ~name:"prepare_solver" st ~reuse_hits);
                ];
              if !produced = num then 0 else 1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let num =
    Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc:"Number of witnesses.")
  in
  let epsilon =
    Arg.(value & opt float 6.0 & info [ "e"; "epsilon" ] ~doc:"Tolerance (> 1.71).")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Random seed.") in
  let timeout =
    Arg.(value & opt float 600.0 & info [ "t"; "timeout" ] ~doc:"Overall timeout (s).")
  in
  let project =
    Arg.(value & flag & info [ "project" ] ~doc:"Print only sampling-set variables.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ]
             ~doc:"Parallel sampling workers (>= 1). Witness i is drawn from \
                   stream (seed, i), so the output is bit-identical for \
                   every worker count.")
  in
  let show_stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the structured run report (run accounting, solver \
                   counters including decisions and restarts, per-phase \
                   wall time) as comment lines.")
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Draw almost-uniform witnesses of a DIMACS CNF file")
    Term.(const run $ file $ num $ epsilon $ seed $ timeout $ project $ jobs
          $ show_stats $ audit_arg $ trace_arg $ metrics_json_arg)

(* ------------------------------------------------------------------ *)
(* unigen count *)

let count_cmd =
  let run file epsilon delta seed timeout jobs show_stats audit trace
      metrics_json =
    if audit then Audit.enable ();
    if jobs < 1 then begin
      Printf.eprintf "error: --jobs must be >= 1\n";
      1
    end
    else
      match read_formula file with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok f ->
          with_observability ~trace ~metrics_json ~show_stats @@ fun () ->
          let rng = Rng.create seed in
          let deadline = Unix.gettimeofday () +. timeout in
          (* a [jobs = 1] pool spawns no domain; the library owns the
             ranges of ε and δ *)
          Parallel.Domain_pool.with_pool ~jobs @@ fun pool ->
          match Counting.Approxmc.count ~deadline ~pool ~rng ~epsilon ~delta f with
          | exception Invalid_argument msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Error Counting.Approxmc.Unsat ->
              print_endline "s UNSATISFIABLE";
              2
          | Error Counting.Approxmc.Timed_out ->
              Printf.eprintf "error: timed out\n";
              1
          | Ok r ->
              Printf.printf "s mc %.0f\n" r.Counting.Approxmc.estimate;
              Printf.printf "c log2(count) = %.2f%s (%d core iterations, %d failed)\n"
                r.Counting.Approxmc.log2_estimate
                (if r.Counting.Approxmc.exact then ", exact" else "")
                r.Counting.Approxmc.core_iterations r.Counting.Approxmc.failed_iterations;
              emit_report ~metrics_json ~show_stats
                [
                  ( "config",
                    Obs.Report.
                      [
                        ("command", String "count");
                        ("file", String file);
                        ("epsilon", Float epsilon);
                        ("delta", Float delta);
                        ("seed", Int seed);
                        ("jobs", Int jobs);
                      ] );
                  ( "count",
                    Obs.Report.
                      [
                        ("estimate", Float r.Counting.Approxmc.estimate);
                        ("log2_estimate", Float r.Counting.Approxmc.log2_estimate);
                        ("exact", Bool r.Counting.Approxmc.exact);
                        ("core_iterations", Int r.Counting.Approxmc.core_iterations);
                        ( "failed_iterations",
                          Int r.Counting.Approxmc.failed_iterations );
                      ] );
                  solver_section r.Counting.Approxmc.solver_stats
                    ~reuse_hits:r.Counting.Approxmc.reuse_hits;
                ];
              0
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let epsilon =
    Arg.(value & opt float 0.8 & info [ "e"; "epsilon" ] ~doc:"Tolerance.")
  in
  let delta =
    Arg.(value & opt float 0.2 & info [ "d"; "delta" ] ~doc:"1 - confidence.")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Random seed.") in
  let timeout =
    Arg.(value & opt float 600.0 & info [ "t"; "timeout" ] ~doc:"Timeout (s).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ]
             ~doc:"Parallel counting workers (>= 1). Iteration i runs on \
                   stream (master, i), so the estimate is identical for \
                   every worker count, and equal to the one $(b,sample) \
                   prepares with for the same seed at tolerance 0.8 and \
                   confidence 0.8.")
  in
  let show_stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the structured run report (estimator output, \
                   solver counters, per-phase wall time) as comment lines.")
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Approximately count witnesses (ApproxMC)")
    Term.(const run $ file $ epsilon $ delta $ seed $ timeout $ jobs
          $ show_stats $ audit_arg $ trace_arg $ metrics_json_arg)

(* ------------------------------------------------------------------ *)
(* unigen support *)

let support_cmd =
  let run file minimize =
    match read_formula file with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok f ->
        let declared = Array.to_list (Cnf.Formula.sampling_vars f) in
        (match Sat.Indsupport.check f declared with
        | Sat.Indsupport.Dependent ->
            Printf.printf "c declared set of %d variables is NOT an independent support\n"
              (List.length declared);
            1
        | Sat.Indsupport.Unknown ->
            Printf.printf "c could not decide independence within budget\n";
            1
        | Sat.Indsupport.Independent ->
            let final =
              if minimize then Sat.Indsupport.minimize f declared else declared
            in
            Printf.printf "c independent support (%d variables%s)\n"
              (List.length final)
              (if minimize then ", minimized" else "");
            Printf.printf "c ind %s 0\n"
              (String.concat " " (List.map string_of_int final));
            0)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let minimize =
    Arg.(value & flag & info [ "m"; "minimize" ] ~doc:"Greedily minimize the support.")
  in
  Cmd.v
    (Cmd.info "support"
       ~doc:"Verify (and optionally minimize) the declared sampling set")
    Term.(const run $ file $ minimize)

(* ------------------------------------------------------------------ *)
(* unigen bench-gen *)

let bench_gen_cmd =
  let run name out list_only =
    if list_only then begin
      List.iter
        (fun (i : Workload.Suite.instance) ->
          Printf.printf "%-16s %s\n" i.Workload.Suite.name i.Workload.Suite.domain)
        Workload.Suite.table2;
      0
    end
    else
      match name with
      | None ->
          Printf.eprintf "error: provide an instance name or --list\n";
          1
      | Some name -> begin
          match Workload.Suite.by_name name with
          | None ->
              Printf.eprintf "error: unknown instance %s (try --list)\n" name;
              1
          | Some i ->
              let f = Lazy.force i.Workload.Suite.formula in
              let path =
                match out with Some p -> p | None -> name ^ ".cnf"
              in
              Cnf.Dimacs.write_file path f;
              Printf.printf "wrote %s: %d vars, %d clauses, |S|=%d\n" path
                f.Cnf.Formula.num_vars
                (Cnf.Formula.num_clauses f)
                (Array.length (Cnf.Formula.sampling_vars f));
              0
        end
  in
  let inst_name = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List instances.") in
  Cmd.v
    (Cmd.info "bench-gen" ~doc:"Emit a bundled benchmark instance as DIMACS")
    Term.(const run $ inst_name $ out $ list_only)

(* ------------------------------------------------------------------ *)
(* unigen convert: BLIF / AIGER -> CNF with sampling set *)

let convert_cmd =
  let run file out parity seed =
    let netlist =
      try
        if Filename.check_suffix file ".blif" then Ok (Circuits.Blif.parse_file file)
        else if Filename.check_suffix file ".aag" then Ok (Circuits.Aiger.parse_file file)
        else Error "expected a .blif or .aag input"
      with
      | Circuits.Blif.Parse_error msg | Circuits.Aiger.Parse_error msg -> Error msg
      | Sys_error msg -> Error msg
    in
    match netlist with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok nl ->
        let enc =
          if parity then
            Circuits.Tseitin.with_output_parity ~rng:(Rng.create seed) nl
          else Circuits.Tseitin.encode nl
        in
        let f = enc.Circuits.Tseitin.formula in
        let path =
          match out with
          | Some p -> p
          | None -> Filename.remove_extension file ^ ".cnf"
        in
        Cnf.Dimacs.write_file path f;
        Printf.printf
          "wrote %s: %d vars, %d clauses, sampling set = %d circuit inputs\n" path
          f.Cnf.Formula.num_vars (Cnf.Formula.num_clauses f)
          (Array.length enc.Circuits.Tseitin.input_vars);
        0
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let parity =
    Arg.(value & flag
         & info [ "parity" ]
             ~doc:"Add random parity conditions on the outputs (ISCAS-style \
                   instance construction) instead of asserting them true.")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Parity seed.") in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Tseitin-encode a BLIF or ASCII-AIGER circuit to DIMACS with a `c ind` \
             sampling set")
    Term.(const run $ file $ out $ parity $ seed)

(* ------------------------------------------------------------------ *)
(* unigen serve: the long-lived sampling daemon *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix domain socket the daemon listens on (created on start, \
              unlinked on shutdown).")

let serve_cmd =
  let run socket queue_capacity max_batch cache_capacity jobs audit show_stats
      trace metrics_json log_file slow_ms spill_dir spill_budget_mb =
    if audit then Audit.enable ();
    with_observability ~trace ~metrics_json ~show_stats @@ fun () ->
    (* one structured JSON line per request (see Obs.Log): to the given
       file, or stderr so it never interleaves with protocol output *)
    (match log_file with
    | Some path -> Obs.Log.enable_file path
    | None -> Obs.Log.enable_stderr ());
    Fun.protect ~finally:Obs.Log.close @@ fun () ->
    let config =
      {
        Service.Server.socket_path = socket;
        scheduler =
          {
            Service.Scheduler.queue_capacity;
            max_batch;
            cache_capacity;
            jobs;
            slow_ms;
            spill_dir;
            spill_budget_bytes = spill_budget_mb * 1024 * 1024;
          };
        log = (fun msg -> Printf.printf "c %s\n%!" msg);
      }
    in
    match Service.Server.run config with
    | () ->
        emit_report ~metrics_json ~show_stats
          [
            ( "config",
              Obs.Report.
                [
                  ("command", String "serve");
                  ("socket", String socket);
                  ("queue_capacity", Int queue_capacity);
                  ("max_batch", Int max_batch);
                  ("cache_capacity", Int cache_capacity);
                  ("jobs", Int jobs);
                  ( "spill_dir",
                    String (Option.value spill_dir ~default:"-") );
                ] );
          ];
        0
    | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | exception Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "error: %s: %s %s\n" fn (Unix.error_message e) arg;
        1
  in
  let queue_capacity =
    Arg.(value & opt int 64
         & info [ "queue-capacity" ]
             ~doc:"Admission queue bound; further requests are rejected \
                   with a retry-after hint (backpressure).")
  in
  let max_batch =
    Arg.(value & opt int 10_000
         & info [ "max-batch" ] ~doc:"Per-request sample budget.")
  in
  let cache_capacity =
    Arg.(value & opt int 16
         & info [ "cache-capacity" ]
             ~doc:"Prepared-state LRU entries kept hot (0 disables the \
                   cache; every request then re-pays preparation).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains executing requests, sharded by formula \
                   fingerprint — concurrent clients on distinct formulas \
                   never contend. 1 means one worker domain: the daemon's \
                   own loop never runs a request, so it keeps answering \
                   clients while a preparation runs. Witnesses are \
                   bit-identical for every value.")
  in
  let show_stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the structured service report (request, cache and \
                   queue counters) on shutdown.")
  in
  let log_file =
    Arg.(value & opt (some string) None
         & info [ "log-file" ] ~docv:"PATH"
             ~doc:"Write the structured JSON event log (one line per \
                   request: trace id, outcome, queue/prepare/draw \
                   milliseconds) to $(docv) instead of stderr.")
  in
  let slow_ms =
    Arg.(value & opt float 1000.0
         & info [ "slow-ms" ]
             ~doc:"Requests slower than this many milliseconds log at \
                   warn level, so `grep '\"level\": \"warn\"'` finds them.")
  in
  let spill_dir =
    Arg.(value & opt (some string) None
         & info [ "spill-dir" ] ~docv:"DIR"
             ~doc:"Durable prepared-state store: every preparation is \
                   spilled to $(docv) (crash-safe, checksummed) and RAM \
                   cache misses are served from it, so a restarted daemon \
                   — or another daemon process sharing the directory — \
                   answers known formulas without re-running the \
                   approximate count.")
  in
  let spill_budget_mb =
    Arg.(value & opt int 256
         & info [ "spill-budget-mb" ]
             ~doc:"Disk budget of --spill-dir in MiB; least-recently-used \
                   entries are evicted past it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sampling service daemon: content-addressed formula \
             registry, prepared-state cache and deadline-aware scheduler \
             behind a Unix-socket JSON protocol")
    Term.(const run $ socket_arg $ queue_capacity $ max_batch $ cache_capacity
          $ jobs $ audit_arg $ show_stats
          $ trace_arg $ metrics_json_arg $ log_file $ slow_ms $ spill_dir
          $ spill_budget_mb)

(* ------------------------------------------------------------------ *)
(* unigen client: talk to a running daemon *)

let client_cmd =
  let run socket file num seed prepare_seed epsilon timeout_s max_attempts
      tag trace_id status shutdown cancel retries =
    (* jitter for with_retry's backoff: seeded, so retry schedules are
       reproducible like everything else in the pipeline *)
    let rng = Rng.create seed in
    let call req =
      try
        Ok
          (Service.Client.with_retry ~max_attempts:(max 1 retries) ~rng
             (fun () -> Service.Client.call ~socket_path:socket req))
      with
      | Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot reach daemon at %s: %s" socket
               (Unix.error_message e))
      | Service.Client.Protocol_error m -> Error ("protocol error: " ^ m)
    in
    let fail msg =
      Printf.eprintf "error: %s\n" msg;
      1
    in
    if status then (
      match call Service.Wire.Status with
      | Error m -> fail m
      | Ok (Service.Wire.Metrics { values; info }) ->
          List.iter (fun (k, v) -> Printf.printf "c %s = %s\n" k v) info;
          List.iter (fun (k, v) -> Printf.printf "c %s = %g\n" k v) values;
          0
      | Ok _ -> fail "unexpected response to status")
    else if shutdown then (
      match call Service.Wire.Shutdown with
      | Error m -> fail m
      | Ok Service.Wire.Bye ->
          print_endline "c daemon shutting down";
          0
      | Ok _ -> fail "unexpected response to shutdown")
    else
      match cancel with
      | Some t -> (
          match call (Service.Wire.Cancel t) with
          | Error m -> fail m
          | Ok (Service.Wire.Cancel_result true) ->
              Printf.printf "c cancel %s: cancelled\n" t;
              0
          | Ok (Service.Wire.Cancel_result false) ->
              Printf.printf "c cancel %s: not found\n" t;
              1
          | Ok _ -> fail "unexpected response to cancel")
      | None -> (
          match file with
          | None -> fail "provide a CNF FILE, or --status/--shutdown/--cancel"
          | Some path -> (
              match
                try Ok (In_channel.with_open_bin path In_channel.input_all)
                with Sys_error m -> Error m
              with
              | Error m -> fail m
              | Ok formula_text -> (
                  let req =
                    {
                      Service.Wire.default_sample_req with
                      Service.Wire.formula_text;
                      n = num;
                      seed;
                      prepare_seed;
                      epsilon;
                      timeout_s;
                      max_attempts;
                      tag;
                      trace_id;
                    }
                  in
                  match call (Service.Wire.Sample req) with
                  | Error m -> fail m
                  | Ok (Service.Wire.Ok_sample r) ->
                      Printf.printf
                        "c service: fingerprint=%s cache=%s queue_wait=%.1fms \
                         trace_id=%s\n"
                        r.Service.Wire.fingerprint
                        (Service.Wire.cache_source_to_string r.Service.Wire.cache)
                        (r.Service.Wire.queue_wait_s *. 1000.0)
                        r.Service.Wire.rsp_trace_id;
                      List.iter
                        (fun w ->
                          print_endline
                            ("v "
                            ^ String.concat " " (List.map string_of_int w)
                            ^ " 0"))
                        r.Service.Wire.witnesses;
                      Printf.printf "c produced %d/%d witnesses\n"
                        r.Service.Wire.produced r.Service.Wire.requested;
                      if r.Service.Wire.produced = r.Service.Wire.requested
                      then 0
                      else 1
                  | Ok (Service.Wire.Unsat _) ->
                      print_endline "s UNSATISFIABLE";
                      2
                  | Ok (Service.Wire.Rejected { reason; retry_after_s }) ->
                      Printf.eprintf "rejected: %s (retry after %.0f ms)\n"
                        (Service.Wire.reject_reason_to_string reason)
                        (retry_after_s *. 1000.0);
                      3
                  | Ok (Service.Wire.Deadline_miss _) ->
                      Printf.eprintf "deadline missed\n";
                      4
                  | Ok (Service.Wire.Cancelled _) ->
                      Printf.eprintf "cancelled\n";
                      5
                  | Ok (Service.Wire.Error_msg m) -> fail m
                  | Ok _ -> fail "unexpected response")))
  in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let num =
    Arg.(value & opt int 10 & info [ "n"; "samples" ] ~doc:"Number of witnesses.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "s"; "seed" ]
             ~doc:"Draw seed: witness $(i,i) comes from stream (seed, i), \
                   bit-identical to an offline run with the same seed.")
  in
  let prepare_seed =
    Arg.(value & opt int 1
         & info [ "prepare-seed" ]
             ~doc:"Preparation (ApproxMC) seed. Kept separate from the draw \
                   seed so requests differing only in --seed share one \
                   cached preparation.")
  in
  let epsilon =
    Arg.(value & opt float 6.0 & info [ "e"; "epsilon" ] ~doc:"Tolerance (> 1.71).")
  in
  let timeout_s =
    Arg.(value & opt (some float) None
         & info [ "t"; "timeout" ]
             ~doc:"Request deadline in seconds, measured from admission.")
  in
  let max_attempts =
    Arg.(value & opt int 20
         & info [ "max-attempts" ] ~doc:"Cell-failure retries per witness.")
  in
  let tag =
    Arg.(value & opt (some string) None
         & info [ "tag" ] ~docv:"TAG"
             ~doc:"Client-chosen request id, echoed in the response and \
                   usable with --cancel from another connection.")
  in
  let trace_id =
    Arg.(value & opt (some string) None
         & info [ "trace-id" ] ~docv:"ID"
             ~doc:"Correlation id: every span and log line the daemon \
                   produces for this request carries $(docv), so one grep \
                   of the event log or Chrome trace follows the request \
                   across worker domains. Minted server-side when omitted.")
  in
  let status =
    Arg.(value & flag
         & info [ "status" ] ~doc:"Print the daemon's metrics snapshot and exit.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the daemon to drain in-flight requests and exit.")
  in
  let cancel =
    Arg.(value & opt (some string) None
         & info [ "cancel" ] ~docv:"TAG"
             ~doc:"Cancel the pending request submitted with --tag TAG.")
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of the daemon to talk to.")
  in
  let retries =
    Arg.(value & opt int 1
         & info [ "retries" ]
             ~doc:"Attempts per request: rejections (backpressure) and \
                   transient connection failures retry with the daemon's \
                   retry-after hint and capped exponential backoff, \
                   jittered from --seed. 1 disables retrying.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Submit sampling requests to a running unigen daemon")
    Term.(const run $ socket $ file $ num $ seed $ prepare_seed $ epsilon
          $ timeout_s $ max_attempts $ tag $ trace_id $ status $ shutdown
          $ cancel $ retries)

(* ------------------------------------------------------------------ *)
(* unigen monitor: live dashboard over the daemon's rolling window *)

let monitor_cmd =
  let render ~socket (w : Service.Wire.window_report) =
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    let pct num den =
      if den = 0 then "-" else Printf.sprintf "%d%%" (100 * num / den)
    in
    line "unigen daemon  %s" socket;
    line "up %.0fs  jobs %d  ocaml %s" w.Service.Wire.uptime_s
      w.Service.Wire.jobs w.Service.Wire.ocaml_version;
    line "";
    line "last %.0fs:  %d requests  (%.2f/s)   deadline misses %d"
      w.Service.Wire.window_s w.Service.Wire.w_requests
      w.Service.Wire.rate_per_s w.Service.Wire.w_deadline_misses;
    line "latency ms   p50 %8.1f  p90 %8.1f  p99 %8.1f"
      w.Service.Wire.p50_ms w.Service.Wire.p90_ms w.Service.Wire.p99_ms;
    line "queue ms     p50 %8.1f  p90 %8.1f  p99 %8.1f"
      w.Service.Wire.queue_p50_ms w.Service.Wire.queue_p90_ms
      w.Service.Wire.queue_p99_ms;
    line "cache        %d hits / %d misses  (%s hit)" w.Service.Wire.w_hits
      w.Service.Wire.w_misses
      (pct w.Service.Wire.w_hits
         (w.Service.Wire.w_hits + w.Service.Wire.w_misses));
    line "now          %d in flight, %d queued" w.Service.Wire.w_in_flight
      w.Service.Wire.w_queued;
    if w.Service.Wire.per_fp <> [] then begin
      line "";
      line "%-16s %6s %5s %6s %9s %9s %9s" "fingerprint" "req" "hit" "miss"
        "p50ms" "p90ms" "p99ms";
      List.iteri
        (fun i (f : Service.Wire.fp_window) ->
          if i < 16 then
            let short =
              if String.length f.Service.Wire.fp > 16 then
                String.sub f.Service.Wire.fp 0 16
              else f.Service.Wire.fp
            in
            line "%-16s %6d %5d %6d %9.1f %9.1f %9.1f" short
              f.Service.Wire.fp_requests f.Service.Wire.fp_hits
              f.Service.Wire.fp_misses f.Service.Wire.fp_p50_ms
              f.Service.Wire.fp_p90_ms f.Service.Wire.fp_p99_ms)
        w.Service.Wire.per_fp;
      let n = List.length w.Service.Wire.per_fp in
      if n > 16 then line "... and %d more fingerprints" (n - 16)
    end;
    Buffer.contents b
  in
  let run socket once interval =
    let fetch () =
      try Ok (Service.Client.call ~socket_path:socket Service.Wire.Window) with
      | Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot reach daemon at %s: %s" socket
               (Unix.error_message e))
      | Service.Client.Protocol_error m -> Error ("protocol error: " ^ m)
    in
    let rec loop first =
      match fetch () with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          1
      | Ok (Service.Wire.Window_report w) ->
          let body = render ~socket w in
          if once then print_string body
          else begin
            (* ANSI clear-and-home between refreshes; the first frame
               clears too so a scrolled terminal starts clean *)
            ignore first;
            print_string "\027[2J\027[H";
            print_string body;
            flush stdout
          end;
          if once then 0
          else begin
            Unix.sleepf interval;
            loop false
          end
      | Ok _ ->
          Printf.eprintf "error: unexpected response to metrics\n";
          1
    in
    loop true
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print one report and exit instead of refreshing.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let socket_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET"
          ~doc:"Unix domain socket of the running daemon.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Live dashboard over a running daemon: request rate, rolling \
             p50/p90/p99 latency, deadline misses, cache hit ratio and the \
             busiest formula fingerprints, via the `metrics` wire op")
    Term.(const run $ socket_pos $ once $ interval)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "almost-uniform SAT witness generation (UniGen, DAC 2014)" in
  let info = Cmd.info "unigen" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ sample_cmd; count_cmd; support_cmd; bench_gen_cmd; convert_cmd;
            serve_cmd; client_cmd; monitor_cmd ]))
