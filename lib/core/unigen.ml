type phase =
  | Easy of Cnf.Model.t array
      (** |R_F| ≤ hiThresh: all witnesses enumerated up front *)
  | Hashed of { q : int; count_estimate : float }

type prepared = {
  sampling : int array;
  kappa : float;
  pivot : int;
  hi : float; (* hiThresh *)
  lo : float; (* loThresh *)
  hi_limit : int; (* BSAT enumeration limit: floor(hi) + 1 *)
  phase : phase;
  warm : Counting.Warm.table;
      (* one warm worker per domain that counted or drew: a domain
         draws on the worker it counted with, and any other starts
         fresh (as every domain does after [import]: the workers live
         in RAM only); dropping the state frees them, whatever domains
         touched it *)
  prepare_solver : Sat.Solver.stats * int;
      (* the preparation's solver counters and session reuse hits: the
         easy enumeration's plus the count's (RAM only: zeros after
         [import]) *)
  stats : Sampler.run_stats;
}

let make_prepared ?(prepare_solver = (Sat.Solver.stats_zero, 0)) ~kappa ~pivot
    ~formula ~warm phase =
  let hi = Kappa_pivot.hi_thresh ~kappa ~pivot in
  {
    sampling = Cnf.Formula.sampling_vars formula;
    kappa;
    pivot;
    hi;
    lo = Kappa_pivot.lo_thresh ~kappa ~pivot;
    hi_limit = int_of_float (Float.floor hi) + 1;
    phase;
    warm;
    prepare_solver;
    stats = Sampler.fresh_stats ();
  }

type prepare_error = Unsat_formula | Prepare_timeout | Count_failed

let log2 x = Float.log x /. Float.log 2.0

let prepare ?deadline ?count_iterations ?pool ~rng ~epsilon formula =
  Obs.Trace.span ~cat:"sampling" "unigen.prepare"
    ~args:
      [
        ("epsilon", string_of_float epsilon);
        ("vars", string_of_int formula.Cnf.Formula.num_vars);
      ]
  @@ fun () ->
  let kappa, pivot = Kappa_pivot.compute epsilon in
  let hi = Kappa_pivot.hi_thresh ~kappa ~pivot in
  let hi_limit = int_of_float (Float.floor hi) + 1 in
  let warm = Counting.Warm.table formula in
  let make prepare_solver =
    make_prepared ~prepare_solver ~kappa ~pivot ~formula ~warm
  in
  (* lines 4-7: the easy case, enumerated far enough to serve as the
     count's easy check too (hi_limit falls below its pivot + 1 at
     very large ε) *)
  let limit = max hi_limit (Counting.Approxmc.pivot_of_epsilon 0.8 + 1) in
  let out = Sat.Bsat.enumerate ?deadline ~limit formula in
  if out.Sat.Bsat.timed_out then Error Prepare_timeout
  else begin
    let models = Array.of_list out.Sat.Bsat.models in
    if Array.length models = 0 then Error Unsat_formula
    else if out.Sat.Bsat.exhausted && float_of_int (Array.length models) <= hi
    then Ok (make (out.Sat.Bsat.stats, 0) (Easy models))
    else begin
      (* lines 9-10: approximate count on the state's own workers, then
         q = ⌈log C + log 1.8 − log pivot⌉ *)
      match
        Counting.Approxmc.count_from ?deadline ?iterations:count_iterations ?pool
          ~rng ~epsilon:0.8 ~delta:0.8 ~easy:out warm
      with
      | Error Counting.Approxmc.Unsat -> Error Unsat_formula
      | Error Counting.Approxmc.Timed_out -> Error Count_failed
      | Ok c ->
          let q =
            int_of_float
              (Float.ceil (c.Counting.Approxmc.log2_estimate +. log2 1.8 -. log2 (float_of_int pivot)))
          in
          Ok
            (make
               (c.Counting.Approxmc.solver_stats, c.Counting.Approxmc.reuse_hits)
               (Hashed { q; count_estimate = c.Counting.Approxmc.estimate }))
    end
  end

let timeout_retries = 3

let c_cells_from_known = Obs.Metrics.counter "unigen.cells_from_known"
let c_models_from_known = Obs.Metrics.counter "unigen.models_from_known"

(* lines 12-22. [stats] is passed explicitly so that parallel workers
   can record into private accounting instead of racing on [t.stats].
   Each drawn cell goes through the domain's warm worker
   ({!Counting.Warm.draw_cell}): hi_limit cached members prove it
   oversized with no solver call, otherwise the session enumerates
   only what the cache cannot supply. (count, exhausted) and an
   accepted cell's witnesses are what a plain enumeration with limit
   hi_limit gives, and the cache draws nothing from [rng], so the
   outcome does not depend on what it held. *)
let sample_once ?deadline ~rng ~stats t =
  Obs.Trace.span ~cat:"sampling" "unigen.draw" @@ fun () ->
  match t.phase with
  | Easy models -> Ok (Rng.choose rng models)
  | Hashed { q; _ } ->
      let worker = Counting.Warm.mine t.warm in
      let accept count =
        let n = float_of_int count in
        n >= t.lo && n <= t.hi && count > 0
      in
      let rec try_size i retries =
        if i > q then Error Sampler.Cell_failure
        else if i < 1 then try_size (i + 1) timeout_retries
          (* m ≤ 0 would leave the whole solution space as one cell,
             necessarily oversized: an automatic failure of this size *)
        else begin
          let h = Hashing.Hxor.sample rng ~vars:t.sampling ~m:i in
          Sampler.record_hash stats h;
          let cell =
            Counting.Warm.draw_cell ?deadline ~accept ~limit:t.hi_limit worker
              (Hashing.Hxor.constraints h)
          in
          Option.iter (Sampler.record_solve stats) cell.Counting.Warm.solved;
          match (cell.Counting.Warm.solved, cell.Counting.Warm.witnesses) with
          | None, _ ->
              Obs.Metrics.incr c_cells_from_known;
              stats.Sampler.cells_from_known <- stats.Sampler.cells_from_known + 1;
              stats.Sampler.cells_oversized <- stats.Sampler.cells_oversized + 1;
              try_size (i + 1) timeout_retries
          | Some { Sat.Bsat.timed_out = true; _ }, _ ->
              (* the paper repeats lines 14-16 on a BSAT timeout without
                 incrementing i *)
              let expired =
                match deadline with
                | Some d -> Unix.gettimeofday () > d
                | None -> false
              in
              if retries > 0 && not expired then try_size i (retries - 1)
              else Error Sampler.Timed_out
          | Some _, Some models ->
              let j = cell.Counting.Warm.reused in
              stats.Sampler.cells_accepted <- stats.Sampler.cells_accepted + 1;
              Obs.Metrics.incr ~by:j c_models_from_known;
              stats.Sampler.models_from_known <- stats.Sampler.models_from_known + j;
              Ok (Rng.choose rng models)
          | Some _, None ->
              if float_of_int cell.Counting.Warm.count > t.hi then
                stats.Sampler.cells_oversized <- stats.Sampler.cells_oversized + 1
              else stats.Sampler.cells_undersized <- stats.Sampler.cells_undersized + 1;
              try_size (i + 1) timeout_retries
        end
      in
      try_size (q - 3) timeout_retries

let sample_with_stats ?deadline ~rng ~stats t =
  stats.Sampler.samples_requested <- stats.Sampler.samples_requested + 1;
  let start = Unix.gettimeofday () in
  let result = sample_once ?deadline ~rng ~stats t in
  stats.Sampler.wall_seconds <-
    stats.Sampler.wall_seconds +. (Unix.gettimeofday () -. start);
  (match result with
  | Ok _ -> stats.Sampler.samples_produced <- stats.Sampler.samples_produced + 1
  | Error Sampler.Cell_failure ->
      stats.Sampler.cell_failures <- stats.Sampler.cell_failures + 1
  | Error Sampler.Timed_out -> stats.Sampler.timeouts <- stats.Sampler.timeouts + 1
  | Error Sampler.Unsat -> ());
  result

(* ------------------------------------------------------------------ *)
(* Parallel leaf sampling. Sample [i] of a batch consumes the private
   stream (seed, i) — see Rng.of_stream — so the witness drawn for a
   given (seed, index) pair is a pure function of that pair: running
   the batch on 1 worker or N produces bit-identical outcome arrays.
   Theorem 1 is untouched because each sample re-runs lines 12-22
   against an independently drawn hash, exactly as in serial operation;
   parallelism only changes which OS core executes the draw. *)

let sample_index ?deadline ?(max_attempts = 10) ~seed t index =
  let rng = Rng.of_stream ~seed index in
  let stats = Sampler.fresh_stats () in
  let rec go n =
    match sample_with_stats ?deadline ~rng ~stats t with
    | Error Sampler.Cell_failure when n < max_attempts -> go (n + 1)
    | outcome -> outcome
  in
  let outcome = go 1 in
  (outcome, stats)

let sample_batch ?deadline ?max_attempts ?pool ~seed t n =
  if n < 0 then invalid_arg "Unigen.sample_batch: negative batch size";
  let one index = sample_index ?deadline ?max_attempts ~seed t index in
  let indices = Array.init n Fun.id in
  let results =
    match pool with
    | Some p -> Parallel.Domain_pool.map p one indices
    | None -> Array.map one indices
  in
  (* fold the private per-sample stats back in index order, so the
     shared accounting is identical whatever the worker count *)
  Array.iter (fun (_, s) -> Sampler.merge_into ~into:t.stats s) results;
  Array.map fst results

(* ------------------------------------------------------------------ *)
(* Portable view: everything a prepared state carries that cannot be
   recomputed for free. The warm workers, the stats and the
   preparation's solver counters are rebuilt empty on import;
   kappa/pivot determine hi/lo/hi_limit, so the thresholds are
   re-derived rather than trusted from the serialized form. Draws
   depend only on (phase, sampling set, thresholds, formula), all of
   which the round trip preserves exactly — witnesses from an imported
   state are bit-identical to the original's (the durable-store
   differential tests enforce this). *)

type portable_phase =
  | Portable_easy of { num_vars : int; models : int list list }
      (** enumerated witnesses in DIMACS-literal form, original array
          order (cell choice indexes into it) *)
  | Portable_hashed of { q : int; count_estimate : float }

type portable = {
  p_kappa : float;
  p_pivot : int;
  p_phase : portable_phase;
}

let export t =
  {
    p_kappa = t.kappa;
    p_pivot = t.pivot;
    p_phase =
      (match t.phase with
      | Easy models ->
          Portable_easy
            {
              num_vars = Cnf.Model.num_vars models.(0);
              models =
                Array.to_list (Array.map Cnf.Model.to_dimacs models);
            }
      | Hashed { q; count_estimate } -> Portable_hashed { q; count_estimate });
  }

let import ~formula p =
  let phase =
    match p.p_phase with
    | Portable_easy { num_vars; models } ->
        if num_vars < 0 then invalid_arg "Unigen.import: negative num_vars";
        Easy
          (Array.of_list
             (List.map
                (fun lits ->
                  let tab = Array.make (num_vars + 1) false in
                  List.iter
                    (fun l ->
                      let v = abs l in
                      if v < 1 || v > num_vars then
                        invalid_arg "Unigen.import: literal out of range";
                      if l > 0 then tab.(v) <- true)
                    lits;
                  Cnf.Model.make num_vars (fun v -> tab.(v)))
                models))
    | Portable_hashed { q; count_estimate } -> Hashed { q; count_estimate }
  in
  make_prepared ~kappa:p.p_kappa ~pivot:p.p_pivot ~formula
    ~warm:(Counting.Warm.table formula) phase

let stats t = t.stats
let prepare_solver t = t.prepare_solver
let kappa t = t.kappa
let pivot t = t.pivot
let hi_thresh t = t.hi
let lo_thresh t = t.lo

let q_range t =
  match t.phase with Easy _ -> None | Hashed { q; _ } -> Some (q - 3, q)

let is_easy t = match t.phase with Easy _ -> true | Hashed _ -> false

let count_estimate t =
  match t.phase with
  | Easy models -> float_of_int (Array.length models)
  | Hashed { count_estimate; _ } -> count_estimate
