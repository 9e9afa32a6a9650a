type phase =
  | Easy of Cnf.Model.t array
      (** |R_F| ≤ hiThresh: all witnesses enumerated up front *)
  | Hashed of { q : int; count_estimate : float }

type domain_state = {
  session : Sat.Bsat.Session.t;
  known : Counting.Known.t; (* witnesses this domain has found, or copied *)
}

type prepared = {
  sampling : int array;
  kappa : float;
  pivot : int;
  hi : float; (* hiThresh *)
  lo : float; (* loThresh *)
  hi_limit : int; (* BSAT enumeration limit: floor(hi) + 1 *)
  hash_density : float;
  phase : phase;
  formula : Cnf.Formula.t;
  seed : Counting.Known.t option;
      (* ApproxMC's cache of found witnesses, which every
         domain's cache starts as a copy of. Nothing adds to it. [None]
         in the easy phase and after [import]: it lives in RAM only. *)
  sessions : (int, domain_state) Hashtbl.t;
      (* One solver session and one cache of found witnesses per
         domain that has drawn from this state, keyed by
         [Domain.self ()] and created lazily, so every worker warms its
         own solver and cache across the draws it executes and neither
         is ever shared between domains. The table lives and dies with
         the prepared state: dropping the state frees its sessions and
         caches, whatever domains touched it. The sampled witnesses are
         bit-identical either way: an accepted cell is exhausted, so
         with S an independent support its witnesses (cached ones and
         enumerated ones alike) are the cell as a set, taken in
         canonical order, whatever the session's history or the
         cache's content. *)
  sessions_lock : Mutex.t; (* guards [sessions] only, never a draw *)
  stats : Sampler.run_stats;
}

let make_prepared ?seed ~sampling ~kappa ~pivot ~hash_density ~formula phase =
  let hi = Kappa_pivot.hi_thresh ~kappa ~pivot in
  {
    sampling;
    kappa;
    pivot;
    hi;
    lo = Kappa_pivot.lo_thresh ~kappa ~pivot;
    hi_limit = int_of_float (Float.floor hi) + 1;
    hash_density;
    phase;
    formula;
    seed;
    sessions = Hashtbl.create 4;
    sessions_lock = Mutex.create ();
    stats = Sampler.fresh_stats ();
  }

(* The calling domain's session and cache, created on its first draw. *)
let domain_state t =
  let id = (Domain.self () :> int) in
  Mutex.protect t.sessions_lock (fun () ->
      match Hashtbl.find_opt t.sessions id with
      | Some d -> d
      | None ->
          let d =
            {
              session = Sat.Bsat.Session.create ~blocking_vars:t.sampling t.formula;
              known =
                (match t.seed with
                | Some k -> Counting.Known.copy k
                | None -> Counting.Known.create t.formula);
            }
          in
          Hashtbl.replace t.sessions id d;
          d)

type prepare_error = Unsat_formula | Prepare_timeout | Count_failed

let log2 x = Float.log x /. Float.log 2.0

let prepare ?deadline ?count_iterations ?(hash_density = 0.5) ?pool ~rng ~epsilon
    formula =
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
  let make ?seed =
    make_prepared ?seed ~sampling:(Cnf.Formula.sampling_vars formula) ~kappa ~pivot
      ~hash_density ~formula
  in
  (* lines 4-7: the easy case *)
  let out = Sat.Bsat.enumerate ?deadline ~limit:hi_limit formula in
  if out.Sat.Bsat.timed_out then Error Prepare_timeout
  else begin
    let models = Array.of_list out.Sat.Bsat.models in
    if Array.length models = 0 then Error Unsat_formula
    else if out.Sat.Bsat.exhausted && float_of_int (Array.length models) <= hi
    then Ok (make (Easy models))
    else begin
      (* lines 9-10: approximate count, then q = ⌈log C + log 1.8 − log pivot⌉ *)
      match
        Counting.Approxmc.count ?deadline ?iterations:count_iterations ?pool
          ~rng ~epsilon:0.8 ~delta:0.8 formula
      with
      | Error Counting.Approxmc.Unsat -> Error Unsat_formula
      | Error Counting.Approxmc.Timed_out -> Error Count_failed
      | Ok c ->
          let q =
            int_of_float
              (Float.ceil (c.Counting.Approxmc.log2_estimate +. log2 1.8 -. log2 (float_of_int pivot)))
          in
          Ok
            (make ~seed:c.Counting.Approxmc.known
               (Hashed { q; count_estimate = c.Counting.Approxmc.estimate }))
    end
  end

let timeout_retries = 3

let c_cells_from_known = Obs.Metrics.counter "unigen.cells_from_known"
let c_models_from_known = Obs.Metrics.counter "unigen.models_from_known"

(* lines 12-22. [stats] is passed explicitly so that parallel workers
   can record into private accounting instead of racing on [t.stats].
   Each drawn cell is first measured against the domain's cache of
   found witnesses: hi_limit cached members prove it oversized, and no
   solver runs. Otherwise the session enumerates only the rest of the
   cell, with the j cached members whose witness the cache kept
   blocked and limit hi_limit - j, and the new witnesses join the
   cache. (j + found, exhausted) is what a plain enumeration with
   limit hi_limit gives, and an accepted cell is exhausted, so its
   reused and found witnesses are the whole cell:
   sorted canonically, they are the array a plain enumeration returns.
   The cache draws nothing from [rng], so the outcome does not depend
   on what it held. *)
let sample_once ?deadline ~rng ~stats t =
  Obs.Trace.span ~cat:"sampling" "unigen.draw" @@ fun () ->
  match t.phase with
  | Easy models -> Ok (Rng.choose rng models)
  | Hashed { q; _ } ->
      let { session; known } = domain_state t in
      (* under audit, every cell decided with cached members is
         checked against a fresh enumeration *)
      let audit ?models xors k decided =
        if k > 0 && Audit.is_enabled () then
          Counting.Known.audit_cell ?deadline
            ?models:(Option.map Array.to_list models)
            ~who:"Unigen" ~limit:t.hi_limit ~known:k t.formula xors decided
      in
      let rec try_size i retries =
        if i > q then Error Sampler.Cell_failure
        else if i < 1 then try_size (i + 1) timeout_retries
          (* m ≤ 0 would leave the whole solution space as one cell,
             necessarily oversized: an automatic failure of this size *)
        else begin
          let h =
            Hashing.Hxor.sample ~density:t.hash_density rng ~vars:t.sampling ~m:i
          in
          Sampler.record_hash stats h;
          let xors = Hashing.Hxor.constraints h in
          let members, k = Counting.Known.in_cell known ~limit:t.hi_limit xors in
          if k >= t.hi_limit then begin
            Obs.Metrics.incr c_cells_from_known;
            stats.Sampler.cells_from_known <- stats.Sampler.cells_from_known + 1;
            stats.Sampler.cells_oversized <- stats.Sampler.cells_oversized + 1;
            audit xors k (k, false);
            try_size (i + 1) timeout_retries
          end
          else begin
            (* the members whose witness the cache kept are blocked;
               the rest of the cell, members without one included, is
               enumerated *)
            let reused, rest = List.partition (Counting.Known.has_model known) members in
            let j = List.length reused in
            (* warm per-domain session: the hash layer and the j
               members' blocking clauses are pushed as one retractable
               group and popped after the call, leaving base-formula
               learnt clauses for the next draw *)
            let out =
              Sat.Bsat.Session.enumerate ?deadline ~xors
                ~known:(List.map (Counting.Known.values known) reused)
                ~limit:(t.hi_limit - j) session
            in
            Sampler.record_solve stats out;
            (* [members] lists every cached member of the cell, so a
               model found is new unless it is one of [rest] *)
            List.iter
              (fun m ->
                if not (List.exists (fun r -> Counting.Known.holds known r m) rest) then
                  Counting.Known.add known m)
              out.Sat.Bsat.models;
            if out.Sat.Bsat.timed_out then begin
              (* the paper repeats lines 14-16 on a BSAT timeout without
                 incrementing i *)
              let expired =
                match deadline with
                | Some d -> Unix.gettimeofday () > d
                | None -> false
              in
              if retries > 0 && not expired then try_size i (retries - 1)
              else Error Sampler.Timed_out
            end
            else begin
              let count = j + List.length out.Sat.Bsat.models in
              let n = float_of_int count in
              if out.Sat.Bsat.exhausted && n >= t.lo && n <= t.hi && count > 0 then begin
                stats.Sampler.cells_accepted <- stats.Sampler.cells_accepted + 1;
                Obs.Metrics.incr ~by:j c_models_from_known;
                stats.Sampler.models_from_known <- stats.Sampler.models_from_known + j;
                let models =
                  Array.of_list
                    (List.rev_append
                       (List.rev_map (Counting.Known.model known) reused)
                       out.Sat.Bsat.models)
                in
                Array.sort Cnf.Model.compare models;
                audit ~models xors k (count, true);
                Ok (Rng.choose rng models)
              end
              else begin
                audit xors k (count, out.Sat.Bsat.exhausted);
                if n > t.hi then
                  stats.Sampler.cells_oversized <- stats.Sampler.cells_oversized + 1
                else stats.Sampler.cells_undersized <- stats.Sampler.cells_undersized + 1;
                try_size (i + 1) timeout_retries
              end
            end
          end
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
   recomputed for free. The solver sessions, draw-cell caches (and
   the ApproxMC cache they start from) and stats are rebuilt empty on
   import; kappa/pivot determine hi/lo/hi_limit, so the thresholds are
   re-derived rather than trusted from the serialized form. Draws
   depend only on (phase, hash_density, sampling set, thresholds,
   formula), all of which the round trip preserves
   exactly — witnesses from an imported state are bit-identical to the
   original's (the durable-store differential tests enforce this). *)

type portable_phase =
  | Portable_easy of { num_vars : int; models : int list list }
      (** enumerated witnesses in DIMACS-literal form, original array
          order (cell choice indexes into it) *)
  | Portable_hashed of { q : int; count_estimate : float }

type portable = {
  p_kappa : float;
  p_pivot : int;
  p_hash_density : float;
  p_phase : portable_phase;
}

let export t =
  {
    p_kappa = t.kappa;
    p_pivot = t.pivot;
    p_hash_density = t.hash_density;
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
  make_prepared ~sampling:(Cnf.Formula.sampling_vars formula) ~kappa:p.p_kappa
    ~pivot:p.p_pivot ~hash_density:p.p_hash_density ~formula phase

let stats t = t.stats
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
