(* Benchmark harness: regenerates every table and figure of the paper
   plus the ablation studies listed in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 # the standard run (all
                                              # experiments, scaled)
     dune exec bench/main.exe -- table1       # just Table 1
     dune exec bench/main.exe -- table2 figure1 epsilon
     dune exec bench/main.exe -- full         # larger budgets
     dune exec bench/main.exe -- micro        # Bechamel micro benches

   Budgets are scaled so the default run finishes in minutes on a
   laptop; EXPERIMENTS.md records settings and committed outputs. The
   paper used a cluster, 2500 s BSAT timeouts and 20 h totals — the
   `full` mode raises budgets in that direction. *)

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* One UniGen attempt (lines 12-22 once) on stream (seed, i), counted in
   [Unigen.stats p] the way the paper's tables count attempts *)
let draw_once ?deadline ~seed p i =
  let outcome, st =
    Sampling.Unigen.sample_index ?deadline ~max_attempts:1 ~seed p i
  in
  Sampling.Sampler.merge_into ~into:(Sampling.Unigen.stats p) st;
  outcome

type budget = {
  unigen_samples : int;
  uniwit_samples : int;
  per_call_timeout : float;
  overall_timeout : float;
  count_iterations : int option;
  figure_samples : int;
}

let quick_budget =
  {
    unigen_samples = 40;
    uniwit_samples = 4;
    per_call_timeout = 15.0;
    overall_timeout = 90.0;
    count_iterations = Some 9;
    figure_samples = 60_000;
  }

let full_budget =
  {
    unigen_samples = 200;
    uniwit_samples = 10;
    per_call_timeout = 120.0;
    overall_timeout = 900.0;
    count_iterations = None (* faithful: 67 iterations at delta 0.8 *);
    figure_samples = 400_000;
  }

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2 *)

let run_table ~budget ~name instances =
  section
    (Printf.sprintf
       "%s: runtime comparison UniGen vs UniWit (eps=6, %d/%d samples, %gs/%gs timeouts)"
       name budget.unigen_samples budget.uniwit_samples budget.per_call_timeout
       budget.overall_timeout);
  let rows =
    List.map
      (fun (i : Workload.Suite.instance) ->
        Printf.printf "  running %-16s ...%!" i.Workload.Suite.name;
        let t0 = Unix.gettimeofday () in
        (* the large-Tseitin instances carry the paper's scalability
           headline; give them the budget headroom the paper's 20 h
           runs stand for *)
        let scale = if i.Workload.Suite.domain = "large-tseitin" then 4.0 else 1.0 in
        let row =
          Workload.Experiment.run_row ~epsilon:6.0
            ~unigen_samples:budget.unigen_samples
            ~uniwit_samples:budget.uniwit_samples
            ~per_call_timeout:(budget.per_call_timeout *. scale)
            ~overall_timeout:(budget.overall_timeout *. scale)
            ?count_iterations:budget.count_iterations
            ~rng:(Rng.create (Hashtbl.hash i.Workload.Suite.name))
            i
        in
        Printf.printf " done (%.1fs)\n%!" (Unix.gettimeofday () -. t0);
        row)
      instances
  in
  print_newline ();
  Workload.Experiment.pp_table Format.std_formatter rows;
  Format.print_flush ();
  (* the paper's headline ratio *)
  let ratios =
    List.filter_map
      (fun (r : Workload.Experiment.row) ->
        if
          (not r.Workload.Experiment.unigen_failed)
          && (not r.Workload.Experiment.uniwit_failed)
          (* sub-0.5ms UniGen rows (easy case) would make the ratio
             meaningless *)
          && r.Workload.Experiment.unigen_avg_seconds >= 5e-4
        then
          Some
            (r.Workload.Experiment.uniwit_avg_seconds
            /. r.Workload.Experiment.unigen_avg_seconds)
        else None)
      rows
  in
  (match ratios with
  | [] -> ()
  | _ ->
      Printf.printf
        "\nUniWit/UniGen per-witness time ratio: min %.1fx, median %.1fx, max %.1fx\n"
        (List.fold_left min infinity ratios)
        (List.nth (List.sort compare ratios) (List.length ratios / 2))
        (List.fold_left max 0.0 ratios));
  let uw_timeouts =
    List.length (List.filter (fun (r : Workload.Experiment.row) -> r.Workload.Experiment.uniwit_failed) rows)
  in
  if uw_timeouts > 0 then
    Printf.printf
      "UniWit produced no witness within budget on %d/%d instances (the paper's '-')\n"
      uw_timeouts (List.length rows)

(* ------------------------------------------------------------------ *)
(* Figure 1 *)

let run_figure1 ~budget () =
  section
    (Printf.sprintf "Figure 1: uniformity, UniGen vs ideal sampler US (%d samples)"
       budget.figure_samples);
  let f = Lazy.force Workload.Suite.uniformity_case.Workload.Suite.formula in
  let r =
    Workload.Experiment.run_uniformity ~epsilon:6.0
      ~samples:budget.figure_samples
      ?count_iterations:budget.count_iterations
      ~rng:(Rng.create 110) f
  in
  Workload.Experiment.pp_uniformity Format.std_formatter r;
  Format.print_flush ();
  (* coarse ASCII rendering of the two count distributions *)
  let render name series =
    Printf.printf "\n%s count distribution (bucketed):\n" name;
    let bucket = 8 in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (c, w) ->
        let b = c / bucket * bucket in
        Hashtbl.replace tbl b (w + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
      series;
    Hashtbl.fold (fun b w acc -> (b, w) :: acc) tbl []
    |> List.sort compare
    |> List.iter (fun (b, w) ->
           Printf.printf "  %4d-%-4d %5d %s\n" b (b + bucket - 1) w
             (String.make (min 60 (w / 4)) '#'))
  in
  render "UniGen" r.Workload.Experiment.unigen_series;
  render "US" r.Workload.Experiment.us_series

(* ------------------------------------------------------------------ *)
(* The epsilon knob (Section 4, "Trading scalability with uniformity") *)

let run_epsilon ~budget () =
  section "Epsilon sweep: tolerance vs time vs distribution distance";
  let f = Lazy.force Workload.Suite.uniformity_case.Workload.Suite.formula in
  let us = Sampling.Us.create f in
  let rf = Sampling.Us.size us in
  let sampling = Cnf.Formula.sampling_vars f in
  Printf.printf "%8s %8s %8s %12s %12s %10s %10s %8s\n" "epsilon" "kappa" "pivot"
    "s/sample" "succ prob" "TV dist" "chi2 p" "hi-lo";
  List.iter
    (fun epsilon ->
      let rng = Rng.create 55 in
      match
        Sampling.Unigen.prepare ?count_iterations:budget.count_iterations ~rng
          ~epsilon f
      with
      | Error _ -> Printf.printf "%8.2f preparation failed\n" epsilon
      | Ok p ->
          let samples = 4000 in
          let keys = ref [] in
          let drawn = ref 0 and attempts = ref 0 in
          while !drawn < samples do
            incr attempts;
            match draw_once ~seed:55 p !attempts with
            | Ok m ->
                incr drawn;
                keys := Cnf.Model.key (Cnf.Model.restrict m sampling) :: !keys
            | Error _ -> ()
          done;
          let h = Sampling.Stats.histogram_of_keys !keys in
          let tv =
            Sampling.Stats.total_variation_from_uniform ~num_outcomes:rf
              ~num_samples:samples h
          in
          let pvalue =
            Sampling.Stats.uniformity_pvalue ~num_outcomes:rf ~num_samples:samples h
          in
          let st = Sampling.Unigen.stats p in
          Printf.printf "%8.2f %8.3f %8d %12.5f %12.2f %10.4f %10.4f %8.1f\n%!"
            epsilon
            (Sampling.Unigen.kappa p) (Sampling.Unigen.pivot p)
            (Sampling.Sampler.average_seconds_per_sample st)
            (Sampling.Sampler.success_probability st)
            tv pvalue
            (Sampling.Unigen.hi_thresh p -. Sampling.Unigen.lo_thresh p))
    [ 1.9; 3.0; 6.0; 12.0; 20.0 ];
  Printf.printf
    "(at %d samples over %d witnesses the TV statistic is noise-dominated;\n\
    \ the chi2 p-value is the calibrated test)\n"
    4000 rf;
  print_endline
    "\nsmaller epsilon -> larger pivot/hiThresh -> more BSAT work per sample\n\
     but tighter uniformity (the paper's scalability/uniformity knob)"

(* ------------------------------------------------------------------ *)
(* Ablation X2: hashing over S vs over the full support X *)

let run_ablation_support ~budget () =
  section "Ablation: hash over sampling set S vs full support X (UniGen core insight)";
  let instance =
    match Workload.Suite.by_name "s_lfsr16_3" with
    | Some i -> i
    | None -> failwith "instance missing"
  in
  let f = Lazy.force instance.Workload.Suite.formula in
  let full_support = List.init f.Cnf.Formula.num_vars (fun i -> i + 1) in
  let variants =
    [ ("hash over S", f); ("hash over X", Cnf.Formula.with_sampling_set f full_support) ]
  in
  Printf.printf "%14s %8s %12s %12s %10s\n" "variant" "|set|" "s/sample"
    "avg xor len" "succ prob";
  List.iter
    (fun (label, g) ->
      let rng = Rng.create 77 in
      match
        Sampling.Unigen.prepare ?count_iterations:budget.count_iterations ~rng
          ~epsilon:6.0 g
      with
      | Error _ -> Printf.printf "%14s preparation failed\n" label
      | Ok p ->
          for i = 1 to 30 do
            let deadline = Unix.gettimeofday () +. budget.per_call_timeout in
            ignore (draw_once ~deadline ~seed:77 p i)
          done;
          let st = Sampling.Unigen.stats p in
          Printf.printf "%14s %8d %12.5f %12.1f %10.2f\n%!" label
            (Array.length (Cnf.Formula.sampling_vars g))
            (Sampling.Sampler.average_seconds_per_sample st)
            (Sampling.Sampler.average_xor_length st)
            (Sampling.Sampler.success_probability st))
    variants

(* ------------------------------------------------------------------ *)
(* Ablation X4: blocking clauses over S vs over X *)

let run_ablation_blocking () =
  section "Ablation: BSAT blocking clauses restricted to S vs full X";
  let instance =
    match Workload.Suite.by_name "case_m2" with
    | Some i -> i
    | None -> failwith "instance missing"
  in
  let f = Lazy.force instance.Workload.Suite.formula in
  let s_vars = Cnf.Formula.sampling_vars f in
  let x_vars = Array.init f.Cnf.Formula.num_vars (fun i -> i + 1) in
  let time_enumeration label blocking =
    let t0 = Unix.gettimeofday () in
    let out = Sat.Bsat.enumerate ~blocking_vars:blocking ~limit:1000 f in
    Printf.printf "%22s: %4d witnesses in %.3fs (%d conflicts)\n%!" label
      (List.length out.Sat.Bsat.models)
      (Unix.gettimeofday () -. t0)
      out.Sat.Bsat.stats.Sat.Solver.conflicts
  in
  time_enumeration "blocking over S" s_vars;
  time_enumeration "blocking over X" x_vars;
  print_endline
    "(over X the enumeration distinguishes assignments that differ only\n\
     in dependent variables, and each blocking clause is |X| long)"

(* ------------------------------------------------------------------ *)
(* Ablation: amortised multi-sample mode vs one-shot *)

let run_ablation_amortise ~budget () =
  section "Ablation: amortised preparation (lines 1-11 once) vs one-shot UniGen";
  let instance =
    match Workload.Suite.by_name "case_m2" with
    | Some i -> i
    | None -> failwith "instance missing"
  in
  let f = Lazy.force instance.Workload.Suite.formula in
  let n = 15 in
  (* amortised: prepare once *)
  let rng = Rng.create 21 in
  let t0 = Unix.gettimeofday () in
  (match
     Sampling.Unigen.prepare ?count_iterations:budget.count_iterations ~rng
       ~epsilon:6.0 f
   with
  | Error _ -> print_endline "prepare failed"
  | Ok p ->
      for i = 1 to n do
        ignore (draw_once ~seed:21 p i)
      done;
      Printf.printf "%18s: %d samples in %.2fs total\n%!" "amortised" n
        (Unix.gettimeofday () -. t0));
  (* one-shot: re-run preparation for every sample *)
  let rng = Rng.create 22 in
  let t0 = Unix.gettimeofday () in
  let produced = ref 0 in
  for i = 1 to n do
    match
      Sampling.Unigen.prepare ?count_iterations:budget.count_iterations ~rng
        ~epsilon:6.0 f
    with
    | Ok p -> ( match draw_once ~seed:22 p i with Ok _ -> incr produced | _ -> ())
    | Error _ -> ()
  done;
  Printf.printf "%18s: %d samples in %.2fs total\n%!" "one-shot" !produced
    (Unix.gettimeofday () -. t0);
  print_endline
    "(unlike UniWit's leapfrogging, UniGen's amortisation keeps Theorem 1 intact)"

(* ------------------------------------------------------------------ *)
(* Related-work shoot-out: uniformity and cost of every sampler *)

let run_baselines ~budget () =
  section "Baselines: uniformity and per-witness cost of every sampler";
  let f = Lazy.force Workload.Suite.uniformity_case.Workload.Suite.formula in
  let us = Sampling.Us.create f in
  let rf = Sampling.Us.size us in
  let sampling = Cnf.Formula.sampling_vars f in
  let key_of m = Cnf.Model.key (Cnf.Model.restrict m sampling) in
  let samples = 3000 in
  Printf.printf "|R_F| = %d, %d samples per sampler\n\n" rf samples;
  Printf.printf "%14s %12s %10s %10s %12s %10s\n" "sampler" "s/sample" "TV dist"
    "chi2 p" "succ prob" "coverage";
  let report name stats keys attempted =
    let drawn = List.length keys in
    let h = Sampling.Stats.histogram_of_keys keys in
    let tv =
      Sampling.Stats.total_variation_from_uniform ~num_outcomes:rf
        ~num_samples:drawn h
    in
    let p = Sampling.Stats.uniformity_pvalue ~num_outcomes:rf ~num_samples:drawn h in
    Printf.printf "%14s %12.5f %10.4f %10.4f %12.2f %9.1f%%\n%!" name
      (Sampling.Sampler.average_seconds_per_sample stats)
      tv p
      (float_of_int drawn /. float_of_int attempted)
      (100.0 *. float_of_int (Hashtbl.length h) /. float_of_int rf)
  in
  let collect name next =
    let stats = Sampling.Sampler.fresh_stats () in
    let keys = ref [] and drawn = ref 0 and attempts = ref 0 in
    while !drawn < samples && !attempts < samples * 10 do
      incr attempts;
      match next stats with
      | Some m ->
          incr drawn;
          keys := key_of m :: !keys
      | None -> ()
    done;
    report name stats !keys !attempts
  in
  (* US *)
  let rng = Rng.create 61 in
  collect "US (ideal)" (fun stats ->
      stats.Sampling.Sampler.samples_requested <-
        stats.Sampling.Sampler.samples_requested + 1;
      let t0 = Unix.gettimeofday () in
      let m = Sampling.Us.sample ~rng us in
      stats.Sampling.Sampler.wall_seconds <-
        stats.Sampling.Sampler.wall_seconds +. (Unix.gettimeofday () -. t0);
      stats.Sampling.Sampler.samples_produced <-
        stats.Sampling.Sampler.samples_produced + 1;
      Some m);
  (* UniGen *)
  let rng = Rng.create 62 in
  (match
     Sampling.Unigen.prepare ?count_iterations:budget.count_iterations ~rng
       ~epsilon:6.0 f
   with
  | Error _ -> print_endline "UniGen preparation failed"
  | Ok p ->
      let keys = ref [] and drawn = ref 0 and attempts = ref 0 in
      while !drawn < samples && !attempts < samples * 10 do
        incr attempts;
        match draw_once ~seed:62 p !attempts with
        | Ok m ->
            incr drawn;
            keys := key_of m :: !keys
        | Error _ -> ()
      done;
      report "UniGen" (Sampling.Unigen.stats p) !keys !attempts);
  (* UniWit (few samples: it re-searches hash sizes every draw) *)
  let rng = Rng.create 63 in
  let uniwit_samples = min samples 300 in
  let stats = Sampling.Sampler.fresh_stats () in
  let keys = ref [] in
  for _ = 1 to uniwit_samples do
    match Sampling.Uniwit.sample ~stats ~rng f with
    | Ok m -> keys := key_of m :: !keys
    | Error _ -> ()
  done;
  report
    (Printf.sprintf "UniWit(%d)" uniwit_samples)
    stats !keys uniwit_samples;
  (* XORSample' with s tuned from the true count *)
  let rng = Rng.create 64 in
  let s_guess =
    int_of_float (Float.round (Float.log (float_of_int rf) /. Float.log 2.0)) - 3
  in
  collect
    (Printf.sprintf "XORSample'(%d)" s_guess)
    (fun stats ->
      match Sampling.Xorsample.sample ~stats ~rng ~s:s_guess f with
      | Ok m -> Some m
      | Error _ -> None);
  (* MCMC *)
  let rng = Rng.create 65 in
  collect "MCMC" (fun stats ->
      match Sampling.Mcmc.sample ~steps:4000 ~restarts:3 ~stats ~rng f with
      | Ok m -> Some m
      | Error _ -> None);
  print_endline
    "\ncoverage = fraction of distinct witnesses seen; low chi2 p-values\n\
     reject uniformity (the paper's related-work claim: MCMC and\n\
     heuristic samplers are fast but skewed; UniGen matches US)"

(* ------------------------------------------------------------------ *)
(* Parallel sampling engine: throughput and speedup per --jobs *)

let run_parallel ~budget () =
  section
    (Printf.sprintf
       "Parallel sampling: per-jobs throughput and speedup (medium Tseitin \
        suite, %d samples/batch)"
       budget.unigen_samples);
  Printf.printf
    "host reports %d usable core(s); speedup is bounded by physical \
     parallelism\n\n"
    (Domain.recommended_domain_count ());
  let jobs_levels = [ 1; 2; 4 ] in
  Printf.printf "%14s %6s %12s %12s %10s %14s\n" "instance" "jobs" "batch s"
    "samples/s" "speedup" "bit-identical";
  List.iter
    (fun name ->
      match Workload.Suite.by_name name with
      | None -> ()
      | Some instance ->
          let f = Lazy.force instance.Workload.Suite.formula in
          let rng = Rng.create 97 in
          (match
             Sampling.Unigen.prepare ?count_iterations:budget.count_iterations
               ~rng ~epsilon:6.0 f
           with
          | Error _ -> Printf.printf "%14s preparation failed\n" name
          | Ok p ->
              let n = budget.unigen_samples in
              let reference = ref [||] in
              let serial_time = ref Float.nan in
              List.iter
                (fun jobs ->
                  (* the pool's start-up and shutdown are part of the
                     timed batch *)
                  let t0 = Unix.gettimeofday () in
                  let out =
                    Parallel.Domain_pool.with_pool ~jobs (fun pool ->
                        Sampling.Unigen.sample_batch ~pool ~max_attempts:20
                          ~seed:4242 p n)
                  in
                  let dt = Unix.gettimeofday () -. t0 in
                  let keys =
                    Array.map
                      (function
                        | Ok m -> Cnf.Model.key m
                        | Error _ -> "<fail>")
                      out
                  in
                  if jobs = 1 then begin
                    reference := keys;
                    serial_time := dt
                  end;
                  let produced =
                    Array.fold_left
                      (fun acc o -> match o with Ok _ -> acc + 1 | Error _ -> acc)
                      0 out
                  in
                  Printf.printf "%14s %6d %12.3f %12.1f %10.2f %14s\n%!" name
                    jobs dt
                    (float_of_int produced /. dt)
                    (!serial_time /. dt)
                    (if keys = !reference then "yes" else "NO"))
                jobs_levels))
    [ "case_m1"; "case_m2"; "s_lfsr16_3"; "s_fsm12_3" ];
  print_endline
    "\nbit-identical = the --jobs N outcome array equals the --jobs 1 array\n\
     element for element (sample i always consumes stream (seed, i));\n\
     leaf sampling re-runs lines 12-22 per sample, so Theorem 1 is\n\
     preserved at every jobs level"

(* ------------------------------------------------------------------ *)
(* Observability layer: instrumented ApproxMC+UniGen run. Asserts that
   the sampled witness stream is bit-identical with tracing/metrics on
   vs off (instrumentation must be behaviourally inert) and writes
   BENCH_obs.json with the per-phase wall-time breakdown. *)

let run_obs ~budget () =
  section
    "Observability: instrumented ApproxMC+UniGen run (differential check, \
     writes BENCH_obs.json)";
  let instance =
    match Workload.Suite.by_name "case_m1" with
    | Some i -> i
    | None -> failwith "instance missing"
  in
  let f = Lazy.force instance.Workload.Suite.formula in
  let samples = min budget.unigen_samples 40 in
  (* One full workload: ApproxMC count followed by a parallel UniGen
     batch (jobs=2 so worker-domain metric shards and their merge at
     pool join are exercised even on a 1-core host). Returns the
     wall time, the count estimate and the witness-stream digest. *)
  let workload () =
    let t0 = Unix.gettimeofday () in
    let rng = Rng.create 11 in
    let estimate =
      match
        Counting.Approxmc.count ?iterations:budget.count_iterations ~rng
          ~epsilon:0.8 ~delta:0.8 f
      with
      | Ok r -> r.Counting.Approxmc.estimate
      | Error _ -> Float.nan
    in
    let digest =
      let rng = Rng.create 12 in
      match
        Sampling.Unigen.prepare ?count_iterations:budget.count_iterations ~rng
          ~epsilon:6.0 f
      with
      | Error _ -> "<prepare fail>"
      | Ok p ->
          Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
              Sampling.Unigen.sample_batch ~pool ~max_attempts:20 ~seed:4242 p
                samples)
          |> Array.to_list
          |> List.map (function
               | Ok m -> Cnf.Model.key m
               | Error _ -> "<fail>")
          |> String.concat ";" |> Digest.string |> Digest.to_hex
    in
    (Unix.gettimeofday () -. t0, estimate, digest)
  in
  (* reference: observability fully off *)
  let off_s, off_estimate, off_digest = workload () in
  Printf.printf "  uninstrumented: %.2fs (estimate %.0f)\n%!" off_s off_estimate;
  (* instrumented: the full telemetry stack on — metrics, trace AND the
     structured log, so the bit-identity claim covers every layer the
     service daemon enables in production *)
  let trace_file = "BENCH_obs_trace.json" in
  let log_file = "BENCH_obs_log.jsonl" in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.Trace.enable_file trace_file;
  Obs.Log.enable_file log_file;
  Obs.Log.event "bench.obs.start"
    [ ("instance", Obs.Report.String instance.Workload.Suite.name) ];
  let on_s, on_estimate, on_digest = workload () in
  Obs.Log.event "bench.obs.finish"
    Obs.Report.
      [ ("wall_s", Float on_s); ("witness_digest", String on_digest) ];
  Obs.Log.close ();
  Obs.Trace.close ();
  Obs.Metrics.disable ();
  let snapshot = Obs.Metrics.snapshot () in
  Printf.printf "  instrumented:   %.2fs (estimate %.0f, trace in %s)\n%!" on_s
    on_estimate trace_file;
  let equal = off_digest = on_digest && off_estimate = on_estimate in
  Printf.printf "  bit-identical witnesses on/off: %s\n%!"
    (if equal then "yes" else "NO");
  (* per-phase breakdown on stdout *)
  let phases = Obs.Report.phase_fields snapshot in
  Printf.printf "\n  %-28s %12s\n" "phase" "wall s";
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Report.Float s -> Printf.printf "  %-28s %12.4f\n" name s
      | _ -> ())
    phases;
  (* roll the measured phase times through a rolling window, so the
     window algebra is exercised on real data and its percentiles land
     in the report like the daemon's `metrics` op would serve them *)
  let lat_window = Obs.Window.create () in
  let wnow = Unix.gettimeofday () in
  Obs.Window.observe lat_window ~now:wnow on_s;
  List.iter
    (fun (_, v) ->
      match v with
      | Obs.Report.Float s when s > 0.0 ->
          Obs.Window.observe lat_window ~now:wnow s
      | _ -> ())
    phases;
  let window_hist = Obs.Window.snapshot lat_window ~now:wnow in
  (* count the structured log lines the instrumented leg produced *)
  let log_lines =
    let ic = open_in log_file in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  (* overhead microbench: every telemetry site must stay ~one atomic
     load when its layer is disabled (trace/metrics/log are all off at
     this point), and the enabled window/log paths are bounded-cost *)
  let ns_per_op ?(n = 200_000) f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  let disabled_span_ns =
    ns_per_op (fun () -> Obs.Trace.span "bench.noop" (fun () -> ()))
  in
  let disabled_log_ns =
    ns_per_op (fun () ->
        if Obs.Log.is_enabled () then Obs.Log.event "bench.noop" [])
  in
  let window_observe_ns =
    let w = Obs.Window.create () in
    ns_per_op (fun () -> Obs.Window.observe w ~now:wnow 0.001)
  in
  let log_event_ns =
    let path = Filename.temp_file "bench_obs" ".jsonl" in
    Obs.Log.enable_file path;
    let v =
      ns_per_op ~n:20_000 (fun () ->
          Obs.Log.event "bench.overhead" [ ("i", Obs.Report.Int 1) ])
    in
    Obs.Log.close ();
    Sys.remove path;
    v
  in
  Printf.printf
    "\n  overhead: disabled span %.0f ns, disabled log %.0f ns, window \
     observe %.0f ns, log event %.0f ns\n%!"
    disabled_span_ns disabled_log_ns window_observe_ns log_event_ns;
  let report = Obs.Report.create () in
  Obs.Report.add_section report "workload"
    Obs.Report.
      [
        ("instance", String instance.Workload.Suite.name);
        ("samples", Int samples);
        ("jobs", Int 2);
        ("uninstrumented_wall_s", Float off_s);
        ("instrumented_wall_s", Float on_s);
        ("estimate", Float off_estimate);
        ("witness_digest", String off_digest);
        ("bit_identical", Bool equal);
        ("log_lines", Int log_lines);
      ];
  Obs.Report.add_section report "window"
    Obs.Report.
      [
        ("observations", Int (Obs.Window.count lat_window ~now:wnow));
        ("span_s", Float (Obs.Window.span_s lat_window));
        ("p50_s", Float (Obs.Metrics.Hist.quantile window_hist 0.5));
        ("p90_s", Float (Obs.Metrics.Hist.quantile window_hist 0.9));
        ("p99_s", Float (Obs.Metrics.Hist.quantile window_hist 0.99));
      ];
  Obs.Report.add_section report "overhead"
    Obs.Report.
      [
        ("disabled_span_ns", Float disabled_span_ns);
        ("disabled_log_check_ns", Float disabled_log_ns);
        ("window_observe_ns", Float window_observe_ns);
        ("log_event_ns", Float log_event_ns);
      ];
  List.iter
    (fun (title, fields) -> Obs.Report.add_section report title fields)
    (Obs.Report.metrics_sections snapshot);
  Obs.Report.write_json "BENCH_obs.json" report;
  Printf.printf
    "\nwrote BENCH_obs.json (phase times, window percentiles, overhead), %s \
     (structured log) and %s (open in chrome://tracing or \
     https://ui.perfetto.dev)\n"
    log_file trace_file;
  if not equal then begin
    prerr_endline "FAILURE: instrumentation changed the sampled witnesses";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Sampling service daemon: cold vs warm request latency against a
   live forked daemon (the warm request reuses the cached preparation,
   so the gap is the amortised ApproxMC cost), then queue wait under
   concurrent pipelined clients. Writes BENCH_service.json. *)

let with_service_daemon ~scheduler f =
  let dir = Filename.temp_file "unigen_bench_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "bench.sock" in
  match Unix.fork () with
  | 0 ->
      (try
         Service.Server.run
           {
             (Service.Server.default_config ~socket_path) with
             Service.Server.scheduler;
           }
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
           with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
          (try Sys.remove socket_path with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
      do
        ignore (Unix.select [] [] [] 0.02)
      done;
      if not (Sys.file_exists socket_path) then failwith "daemon did not start";
      let result = f socket_path in
      (match Service.Client.call ~socket_path Service.Wire.Shutdown with
      | Service.Wire.Bye -> ()
      | _ -> failwith "service bench: shutdown refused");
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "service bench: daemon exited uncleanly");
      result

let queue_wait_of_response = function
  | Service.Wire.Ok_sample ok -> ok.Service.Wire.queue_wait_s
  | _ -> failwith "service bench: unexpected response"

(* [clients] connections each pipeline [per_client] requests before
   reading anything back, so the daemon's admission queue genuinely
   fills. [request_for ci r] names client [ci]'s [r]-th request.
   Returns (wall seconds, queue waits). *)
let pipelined_burst ~socket_path ~clients ~per_client request_for =
  let fds =
    List.init clients (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        fd)
  in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun ci fd ->
      for r = 0 to per_client - 1 do
        Service.Wire.write_frame fd
          (Service.Json.to_string
             (Service.Wire.request_to_json (request_for ci r)))
      done)
    fds;
  let waits = ref [] in
  List.iter
    (fun fd ->
      for _ = 1 to per_client do
        match Service.Wire.read_frame fd with
        | Some payload ->
            waits :=
              queue_wait_of_response
                (Service.Wire.response_of_json (Service.Json.of_string payload))
              :: !waits
        | None -> failwith "service bench: daemon closed mid-burst"
      done)
    fds;
  let burst_s = Unix.gettimeofday () -. t0 in
  List.iter Unix.close fds;
  (burst_s, !waits)

let wait_stats waits =
  let n = List.length waits in
  let avg = List.fold_left ( +. ) 0.0 waits /. float_of_int (max 1 n) in
  let sorted = List.sort compare waits in
  let p90 = if n = 0 then 0.0 else List.nth sorted (min (n - 1) (n * 9 / 10)) in
  let max_w = List.fold_left Float.max 0.0 waits in
  (avg, p90, max_w)

let run_service ~budget () =
  section
    "Sampling service daemon (cold vs warm latency, scaling by worker \
     domains, writes BENCH_service.json)";
  let instance =
    match Workload.Suite.by_name "case_m1" with
    | Some i -> i
    | None -> failwith "instance missing"
  in
  let formula_text =
    Cnf.Dimacs.to_string (Lazy.force instance.Workload.Suite.formula)
  in
  let n = min budget.unigen_samples 20 in
  let clients = 4 and per_client = 5 in
  let sample_req seed =
    Service.Wire.Sample
      { Service.Wire.default_sample_req with Service.Wire.formula_text; n; seed }
  in
  let report = Obs.Report.create () in
  (* cold, then repeated warm draws with fresh draw seeds (all share
     the one cached preparation) on a single connection, plus the
     historical one-formula burst — all against the default (jobs 1)
     daemon *)
  let cold_s, warm_median_s, base_burst_s, base_waits =
    with_service_daemon ~scheduler:Service.Scheduler.default_config
    @@ fun socket_path ->
    let cold_s, warm_median_s =
      Service.Client.with_connection ~socket_path @@ fun conn ->
      let timed seed =
        let t0 = Unix.gettimeofday () in
        let resp = Service.Client.request conn (sample_req seed) in
        ignore (queue_wait_of_response resp : float);
        Unix.gettimeofday () -. t0
      in
      let cold = timed 1 in
      let warm = List.init 5 (fun i -> timed (2 + i)) in
      let sorted = List.sort compare warm in
      (cold, List.nth sorted (List.length sorted / 2))
    in
    let burst_s, waits =
      pipelined_burst ~socket_path ~clients ~per_client (fun ci r ->
          sample_req (100 + (ci * per_client) + r))
    in
    (cold_s, warm_median_s, burst_s, waits)
  in
  Printf.printf "  cold request:        %8.1f ms (prepare + %d draws)\n%!"
    (cold_s *. 1000.) n;
  Printf.printf "  warm request median: %8.1f ms (%d draws, cache hit)\n%!"
    (warm_median_s *. 1000.) n;
  Printf.printf "  amortisation factor: %8.1fx\n%!" (cold_s /. warm_median_s);
  let wait_avg, _, wait_max = wait_stats base_waits in
  Printf.printf
    "  burst: %d clients x %d requests in %.1f ms (queue wait avg %.1f ms, \
     max %.1f ms)\n%!"
    clients per_client (base_burst_s *. 1000.) (wait_avg *. 1000.)
    (wait_max *. 1000.);
  Obs.Report.add_section report "service"
    Obs.Report.
      [
        ("instance", String instance.Workload.Suite.name);
        ("samples_per_request", Int n);
        ("jobs", Int Service.Scheduler.default_config.Service.Scheduler.jobs);
        ("cold_ms", Float (cold_s *. 1000.));
        ("warm_ms_median", Float (warm_median_s *. 1000.));
        ("amortisation_factor", Float (cold_s /. warm_median_s));
        ("concurrent_clients", Int clients);
        ("requests_per_client", Int per_client);
        ("burst_wall_ms", Float (base_burst_s *. 1000.));
        ("queue_wait_ms_avg", Float (wait_avg *. 1000.));
        ("queue_wait_ms_max", Float (wait_max *. 1000.));
      ];
  (* durable-tier latency ladder: cold (ApproxMC + spill), disk-warm
     (a restarted daemon decodes and imports the spilled preparation —
     no ApproxMC), ram-warm (plain LRU hit). Witnesses must be
     bit-identical on all three rungs. *)
  section "Durable store tier (cold vs disk-warm vs ram-warm latency)";
  let spill_dir = Filename.temp_file "unigen_bench_spill" "" in
  Sys.remove spill_dir;
  Unix.mkdir spill_dir 0o700;
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun name -> rm_rf (Filename.concat path name))
          (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> rm_rf spill_dir) @@ fun () ->
  let spill_scheduler =
    {
      Service.Scheduler.default_config with
      Service.Scheduler.spill_dir = Some spill_dir;
    }
  in
  let timed_call socket_path seed =
    let t0 = Unix.gettimeofday () in
    match Service.Client.call ~socket_path (sample_req seed) with
    | Service.Wire.Ok_sample ok ->
        ( Unix.gettimeofday () -. t0,
          ok.Service.Wire.cache,
          ok.Service.Wire.witnesses )
    | _ -> failwith "service bench: unexpected response"
  in
  let store_cold_s, cold_witnesses =
    with_service_daemon ~scheduler:spill_scheduler @@ fun socket_path ->
    let s, src, w = timed_call socket_path 1 in
    if src <> Service.Wire.Cache_miss then
      failwith "service bench: expected a cold miss";
    (s, w)
  in
  let disk_warm_s, ram_warm_s =
    (* a second daemon generation over the same spill directory: the
       restarted-daemon path *)
    with_service_daemon ~scheduler:spill_scheduler @@ fun socket_path ->
    let s1, src1, w1 = timed_call socket_path 1 in
    if src1 <> Service.Wire.Cache_disk then
      failwith "service bench: expected a disk-warm hit";
    if w1 <> cold_witnesses then
      failwith "service bench: disk-warm witnesses drifted";
    let s2, src2, w2 = timed_call socket_path 1 in
    if src2 <> Service.Wire.Cache_ram then
      failwith "service bench: expected a ram-warm hit";
    if w2 <> cold_witnesses then
      failwith "service bench: ram-warm witnesses drifted";
    (s1, s2)
  in
  Printf.printf "  cold (prepare + spill):   %8.1f ms\n%!"
    (store_cold_s *. 1000.);
  Printf.printf "  disk-warm (restart, load): %7.1f ms\n%!"
    (disk_warm_s *. 1000.);
  Printf.printf "  ram-warm (LRU hit):       %8.1f ms\n%!"
    (ram_warm_s *. 1000.);
  Printf.printf "  restart saves:            %8.1fx\n%!"
    (store_cold_s /. disk_warm_s);
  Obs.Report.add_section report "service_durable_store"
    Obs.Report.
      [
        ("instance", String instance.Workload.Suite.name);
        ("samples_per_request", Int n);
        ("cold_ms", Float (store_cold_s *. 1000.));
        ("disk_warm_ms", Float (disk_warm_s *. 1000.));
        ("ram_warm_ms", Float (ram_warm_s *. 1000.));
        ("cold_vs_disk_warm_factor", Float (store_cold_s /. disk_warm_s));
        ("disk_vs_ram_warm_factor", Float (disk_warm_s /. ram_warm_s));
      ];
  (* scaling by worker domains: each client hammers its own formula
     (distinct fingerprints — the sharded-parallelism regime), one
     fresh daemon per jobs level. On a 1-core host the series
     degenerates to a scheduling-overhead check: jobs=1 must not
     regress, and higher jobs levels must stay within noise. *)
  section "Service scaling by worker domains (one formula per client)";
  let scaling_instances = Workload.Suite.quick in
  if List.length scaling_instances < clients then
    failwith "service bench: quick suite too small for the scaling series";
  let texts =
    Array.of_list
      (List.map
         (fun i -> Cnf.Dimacs.to_string (Lazy.force i.Workload.Suite.formula))
         scaling_instances)
  in
  let scaling_n = min n 10 in
  List.iter
    (fun jobs ->
      let scheduler =
        { Service.Scheduler.default_config with Service.Scheduler.jobs }
      in
      let burst_s, waits =
        with_service_daemon ~scheduler @@ fun socket_path ->
        pipelined_burst ~socket_path ~clients ~per_client (fun ci r ->
            Service.Wire.Sample
              {
                Service.Wire.default_sample_req with
                Service.Wire.formula_text = texts.(ci mod Array.length texts);
                n = scaling_n;
                seed = 500 + (ci * per_client) + r;
              })
      in
      let wait_avg, wait_p90, wait_max = wait_stats waits in
      Printf.printf
        "  jobs=%d: %d clients x %d requests in %8.1f ms (queue wait avg \
         %.1f ms, p90 %.1f ms, max %.1f ms)\n%!"
        jobs clients per_client (burst_s *. 1000.) (wait_avg *. 1000.)
        (wait_p90 *. 1000.) (wait_max *. 1000.);
      Obs.Report.add_section report
        (Printf.sprintf "service_scaling_jobs_%d" jobs)
        Obs.Report.
          [
            ("jobs", Int jobs);
            ("concurrent_clients", Int clients);
            ("requests_per_client", Int per_client);
            ("distinct_formulas", Int (Array.length texts));
            ("samples_per_request", Int scaling_n);
            ("burst_wall_ms", Float (burst_s *. 1000.));
            ("queue_wait_ms_avg", Float (wait_avg *. 1000.));
            ("queue_wait_ms_p90", Float (wait_p90 *. 1000.));
            ("queue_wait_ms_max", Float (wait_max *. 1000.));
          ])
    [ 1; 2; 4 ];
  Obs.Report.write_json "BENCH_service.json" report;
  Printf.printf "\nwrote BENCH_service.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro benchmarks *)

let run_micro () =
  section "Micro benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let small_f =
    Cnf.Formula.create ~num_vars:24
      (List.init 30 (fun i ->
           let v = (i mod 22) + 1 in
           Cnf.Clause.of_dimacs [ v; -(v + 1); v + 2 ]))
  in
  let vars40 = Array.init 40 (fun i -> i + 1) in
  let hash_rng = Rng.create 3 in
  let solve_once () =
    let s = Sat.Solver.create small_f in
    ignore (Sat.Solver.solve s)
  in
  let prepared =
    match
      Sampling.Unigen.prepare ~count_iterations:5 ~rng:(Rng.create 4) ~epsilon:6.0
        (Cnf.Formula.create ~num_vars:12 [])
    with
    | Ok p -> p
    | Error _ -> failwith "micro prepare failed"
  in
  let sample_index = ref 0 in
  (* the per-witness audit of BSAT on a solver model of case(18,110)
     (128 variables): the closure oracle and the byte dispatch *)
  let rec case_model seed =
    let f =
      Circuits.Generators.case_formula ~rng:(Rng.create seed) ~num_inputs:18
        ~num_gates:110
    in
    let s = Sat.Solver.create f in
    match Sat.Solver.solve s with
    | Sat.Solver.Sat -> (f, Sat.Solver.model s)
    | _ -> case_model (seed + 1)
  in
  let case_f, case_m = case_model 6 in
  Printf.printf "  audit rows: case(18,110), %d vars, %d clauses, %d xors\n"
    case_f.Cnf.Formula.num_vars (Cnf.Formula.num_clauses case_f)
    (Array.length case_f.Cnf.Formula.xors);
  let tests =
    [
      Test.make ~name:"rng/bits64" (Staged.stage (fun () -> Rng.bits64 hash_rng));
      Test.make ~name:"hxor/sample m=20 n=40"
        (Staged.stage (fun () -> Hashing.Hxor.sample hash_rng ~vars:vars40 ~m:20));
      Test.make ~name:"solver/solve 24v30c" (Staged.stage solve_once);
      Test.make ~name:"unigen/sample 2^12"
        (Staged.stage (fun () ->
             incr sample_index;
             Sampling.Unigen.sample_index ~max_attempts:1 ~seed:5 prepared
               !sample_index));
      Test.make ~name:"cnf/audit Formula.eval"
        (Staged.stage (fun () -> Cnf.Formula.eval case_f (Cnf.Model.value case_m)));
      Test.make ~name:"cnf/audit bytes"
        (Staged.stage (fun () -> Cnf.Model.satisfies case_f case_m));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"unigen" tests) in
  let results =
    List.map (fun i -> Analyze.all ols i raw) instances |> Analyze.merge ols instances
  in
  Hashtbl.iter
    (fun label tbl ->
      if label = Measure.label Toolkit.Instance.monotonic_clock then
        Hashtbl.to_seq tbl |> List.of_seq
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (name, ols_result) ->
               match Analyze.OLS.estimates ols_result with
               | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n" name est
               | _ -> Printf.printf "  %-32s (no estimate)\n" name))
    results

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let budget = if List.mem "full" args then full_budget else quick_budget in
  let targets = List.filter (fun a -> a <> "full") args in
  let all =
    [ "table1"; "table2"; "figure1"; "epsilon"; "baselines"; "parallel";
      "ablation-support"; "ablation-blocking"; "ablation-amortise"; "obs";
      "service"; "micro" ]
  in
  let default = [ "table1"; "figure1"; "epsilon"; "baselines"; "parallel";
                  "obs"; "service"; "ablation-support"; "ablation-blocking";
                  "ablation-amortise"; "micro" ]
  in
  let targets = if targets = [] then default else targets in
  List.iter
    (fun t ->
      if not (List.mem t all) then begin
        Printf.eprintf "unknown target %s (available: %s, plus 'full')\n" t
          (String.concat ", " all);
        exit 1
      end)
    targets;
  (* OCaml 5 refuses Unix.fork once any domain has been spawned, and
     "service" forks its daemons while most other targets spawn domain
     pools: run it first. *)
  let forks, rest = List.partition (String.equal "service") targets in
  let targets = forks @ rest in
  let t0 = Unix.gettimeofday () in
  List.iter
    (function
      | "table1" -> run_table ~budget ~name:"Table 1" Workload.Suite.table1
      | "table2" -> run_table ~budget ~name:"Table 2" Workload.Suite.table2
      | "figure1" -> run_figure1 ~budget ()
      | "epsilon" -> run_epsilon ~budget ()
      | "baselines" -> run_baselines ~budget ()
      | "parallel" -> run_parallel ~budget ()
      | "obs" -> run_obs ~budget ()
      | "service" -> run_service ~budget ()
      | "ablation-support" -> run_ablation_support ~budget ()
      | "ablation-blocking" -> run_ablation_blocking ()
      | "ablation-amortise" -> run_ablation_amortise ~budget ()
      | "micro" -> run_micro ()
      | _ -> ())
    targets;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
