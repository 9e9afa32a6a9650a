type result = {
  estimate : float;
  log2_estimate : float;
  exact : bool;
  core_iterations : int;
  failed_iterations : int;
  solver_stats : Sat.Solver.stats;
  reuse_hits : int;
}

type error = Unsat | Timed_out

let pivot_of_epsilon epsilon =
  if epsilon <= 0.0 then invalid_arg "Approxmc: epsilon must be positive";
  int_of_float (Float.ceil (2.0 *. Float.exp 1.5 *. ((1.0 +. (1.0 /. epsilon)) ** 2.0)))

let iterations_of_delta delta =
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Approxmc: delta in (0,1)";
  int_of_float (Float.ceil (35.0 *. (Float.log (3.0 /. delta) /. Float.log 2.0)))

let median l =
  match List.sort Float.compare l with
  | [] -> invalid_arg "median of empty list"
  | sorted ->
      let n = List.length sorted in
      List.nth sorted (n / 2)

exception Deadline

let check_deadline deadline =
  match deadline with
  | Some d when Unix.gettimeofday () > d -> raise Deadline
  | _ -> ()

type core_out = {
  co_res : float option; (* the iteration's estimate, or failure *)
  co_stats : Sat.Solver.stats;
  co_reuse : int;
}

let c_hash_draws = Obs.Metrics.counter "approxmc.hash_draws"
let c_cells_from_known = Obs.Metrics.counter "approxmc.cells_from_known"
let h_cell_size = Obs.Metrics.histogram "approxmc.cell_size"

(* One ApproxMCCore run, on the calling domain's warm worker. Its
   session serves every hash size [i] of the try_size loop, and every
   core iteration the domain runs: only the XOR layer is swapped
   between cells, so clauses learnt about the base formula at one cell
   speed up the next. Each cell is first measured against the
   worker's cache: k >= pivot+1 cached members decide it as cut with
   no solver call; otherwise the session enumerates the rest of the
   cell (all k members blocked, up to pivot+1-k more) and its new
   models join the cache. The outcome (min(|cell|, pivot+1),
   exhausted) is the one a plain enumeration with limit pivot+1 gives,
   so the estimate does not depend on what the cache held or on what
   the session learnt before. *)
let core ?deadline ~rng ~pivot (w : Warm.t) =
  Obs.Trace.span ~cat:"counting" "approxmc.core" @@ fun () ->
  let f = Sat.Bsat.Session.formula w.Warm.session in
  let sampling = Cnf.Formula.sampling_vars f in
  let n = Array.length sampling in
  let known = w.Warm.known in
  let stats = ref Sat.Solver.stats_zero in
  let reuse = ref 0 in
  let cell i =
    Obs.Trace.span ~cat:"counting" "approxmc.hash_size"
      ~args:[ ("m", string_of_int i) ]
    @@ fun () ->
    Obs.Metrics.incr c_hash_draws;
    let xors = Hashing.Hxor.constraints (Hashing.Hxor.sample rng ~vars:sampling ~m:i) in
    let members, k = Known.in_cell known ~limit:(pivot + 1) xors in
    let decided =
      if k > pivot then begin
        Obs.Metrics.incr c_cells_from_known;
        (k, false)
      end
      else begin
        let out =
          Sat.Bsat.Session.enumerate ?deadline ~xors
            ~known:(List.map (Known.blocking_clause known) members)
            ~limit:(pivot + 1 - k) w.Warm.session
        in
        stats := Sat.Solver.stats_add !stats out.Sat.Bsat.stats;
        if out.Sat.Bsat.reused then incr reuse;
        if out.Sat.Bsat.timed_out then raise Deadline;
        List.iter (Known.add known) out.Sat.Bsat.models;
        (k + List.length out.Sat.Bsat.models, out.Sat.Bsat.exhausted)
      end
    in
    if k > 0 && Audit.is_enabled () then
      Known.audit_cell ?deadline ~who:"Approxmc" ~limit:(pivot + 1) ~known:k f xors
        decided;
    Obs.Metrics.observe h_cell_size (float_of_int (fst decided));
    decided
  in
  let rec try_size i =
    check_deadline deadline;
    if i > n then None
    else
      let count, exhausted = cell i in
      if count >= 1 && count <= pivot && exhausted then
        Some (float_of_int count *. (2.0 ** float_of_int i))
      else try_size (i + 1)
  in
  let res = try_size 1 in
  { co_res = res; co_stats = !stats; co_reuse = !reuse }

(* The t ApproxMCCore iterations are mutually independent XOR-hashed
   counts: iteration [i] runs on the private stream (master, i) and the
   median is taken over the index-ordered successes, so the estimate is
   a pure function of the master seed — the same on the calling domain
   as on a pool of any size. Each domain runs its iterations on its
   worker in [workers], which outlives the call. An iteration that hits
   the deadline comes back as [None] rather than raising across
   domains. *)
let iterate ?deadline ?pool ~rng ~pivot ~t workers =
  let master = Int64.to_int (Rng.bits64 rng) land max_int in
  let one index =
    let rng = Rng.of_stream ~seed:master index in
    try Some (core ?deadline ~rng ~pivot (Warm.mine workers)) with Deadline -> None
  in
  let indices = Array.init t Fun.id in
  match pool with
  | Some p -> Parallel.Domain_pool.map p one indices
  | None -> Array.map one indices

let count_from ?deadline ?iterations ?pool ~rng ~epsilon ~delta ~easy workers =
  Obs.Trace.span ~cat:"counting" "approxmc.count" @@ fun () ->
  (match iterations with
  | Some t when t < 1 -> invalid_arg "Approxmc.count: iterations must be >= 1"
  | _ -> ());
  let pivot = pivot_of_epsilon epsilon in
  let t = match iterations with Some t -> t | None -> iterations_of_delta delta in
  let n0 = List.length easy.Sat.Bsat.models in
  if easy.Sat.Bsat.timed_out then Error Timed_out
  else if n0 = 0 then Error Unsat
  else if easy.Sat.Bsat.exhausted && n0 <= pivot then
    (* Easy case: few enough witnesses to enumerate exactly. *)
    Ok
      {
        estimate = float_of_int n0;
        log2_estimate = Float.log (float_of_int n0) /. Float.log 2.0;
        exact = true;
        core_iterations = 0;
        failed_iterations = 0;
        solver_stats = easy.Sat.Bsat.stats;
        reuse_hits = 0;
      }
  else
    try
      (* the easy check's witnesses start the calling domain's cache *)
      List.iter (Known.add (Warm.mine workers).Warm.known) easy.Sat.Bsat.models;
      let estimates = ref [] in
      let failures = ref 0 in
      let agg_stats = ref easy.Sat.Bsat.stats in
      let reuse_hits = ref 0 in
      Array.iter
        (function
          | None -> raise Deadline
          | Some co ->
              agg_stats := Sat.Solver.stats_add !agg_stats co.co_stats;
              reuse_hits := !reuse_hits + co.co_reuse;
              (match co.co_res with
              | Some e -> estimates := e :: !estimates
              | None -> incr failures))
        (iterate ?deadline ?pool ~rng ~pivot ~t workers);
      match !estimates with
      | [] -> Error Timed_out (* all iterations failed: no usable estimate *)
      | es ->
          let est = median es in
          Ok
            {
              estimate = est;
              log2_estimate = Float.log est /. Float.log 2.0;
              exact = false;
              core_iterations = List.length es;
              failed_iterations = !failures;
              solver_stats = !agg_stats;
              reuse_hits = !reuse_hits;
            }
    with Deadline -> Error Timed_out

let count ?deadline ?iterations ?pool ~rng ~epsilon ~delta f =
  let easy = Sat.Bsat.enumerate ?deadline ~limit:(pivot_of_epsilon epsilon + 1) f in
  count_from ?deadline ?iterations ?pool ~rng ~epsilon ~delta ~easy (Warm.table f)
