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

(* One ApproxMCCore run. A single solver session serves every hash
   size [i] of the try_size loop: only the XOR layer is swapped between
   sizes, so clauses learnt about the base formula at size i speed up
   size i+1. Each cell is first measured against [known]: k >= pivot+1
   cached members decide it as cut with no solver call; otherwise the
   session enumerates the rest of the cell (the k members blocked, up
   to pivot+1-k more) and its new models join [known]. The outcome
   (min(|cell|, pivot+1), exhausted) is the one a plain enumeration
   with limit pivot+1 gives, so the estimate does not depend on what
   the cache held. *)
let core ?deadline ~rng ~pivot ~known f =
  Obs.Trace.span ~cat:"counting" "approxmc.core" @@ fun () ->
  let sampling = Cnf.Formula.sampling_vars f in
  let n = Array.length sampling in
  let session = Sat.Bsat.Session.create f in
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
            ~known:(List.map (Known.values known) members)
            ~limit:(pivot + 1 - k) session
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
   as on a pool of any size. Each domain keeps its own cache of found
   projections, taken from a mutex-guarded table keyed by
   [Domain.self ()]; the lock covers the lookup only. An iteration
   that hits the deadline comes back as [None] rather than raising
   across domains. *)
let iterate ?deadline ?pool ~rng ~pivot ~t ~fresh_known f =
  let master = Int64.to_int (Rng.bits64 rng) land max_int in
  let caches = Hashtbl.create 4 in
  let caches_lock = Mutex.create () in
  let known () =
    let id = (Domain.self () :> int) in
    Mutex.protect caches_lock (fun () ->
        match Hashtbl.find_opt caches id with
        | Some k -> k
        | None ->
            let k = fresh_known () in
            Hashtbl.replace caches id k;
            k)
  in
  let one index =
    let rng = Rng.of_stream ~seed:master index in
    try Some (core ?deadline ~rng ~pivot ~known:(known ()) f)
    with Deadline -> None
  in
  let indices = Array.init t Fun.id in
  match pool with
  | Some p -> Parallel.Domain_pool.map p one indices
  | None -> Array.map one indices

let count ?deadline ?iterations ?pool ~rng ~epsilon ~delta f =
  Obs.Trace.span ~cat:"counting" "approxmc.count" @@ fun () ->
  (match iterations with
  | Some t when t < 1 -> invalid_arg "Approxmc.count: iterations must be >= 1"
  | _ -> ());
  let pivot = pivot_of_epsilon epsilon in
  let t = match iterations with Some t -> t | None -> iterations_of_delta delta in
  try
    (* Easy case: few enough witnesses to enumerate exactly. *)
    let out = Sat.Bsat.enumerate ?deadline ~limit:(pivot + 1) f in
    if out.Sat.Bsat.timed_out then Error Timed_out
    else begin
      let n0 = List.length out.Sat.Bsat.models in
      if n0 = 0 then Error Unsat
      else if out.Sat.Bsat.exhausted then
        Ok
          {
            estimate = float_of_int n0;
            log2_estimate = Float.log (float_of_int n0) /. Float.log 2.0;
            exact = true;
            core_iterations = 0;
            failed_iterations = 0;
            solver_stats = out.Sat.Bsat.stats;
            reuse_hits = 0;
          }
      else begin
        let estimates = ref [] in
        let failures = ref 0 in
        let agg_stats = ref out.Sat.Bsat.stats in
        let reuse_hits = ref 0 in
        (* every cache starts from the easy check's pivot+1 witnesses *)
        let fresh_known () =
          let k = Known.create f in
          List.iter (Known.add k) out.Sat.Bsat.models;
          k
        in
        Array.iter
          (function
            | None -> raise Deadline
            | Some co ->
                agg_stats := Sat.Solver.stats_add !agg_stats co.co_stats;
                reuse_hits := !reuse_hits + co.co_reuse;
                (match co.co_res with
                | Some e -> estimates := e :: !estimates
                | None -> incr failures))
          (iterate ?deadline ?pool ~rng ~pivot ~t ~fresh_known f);
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
      end
    end
  with Deadline -> Error Timed_out
