(* Tests for the Domain-based parallel sampling engine: the worker
   pool itself (ordering, cancellation, graceful shutdown), the
   deterministic seeding discipline (jobs-count invariance at every
   layer), and the statistical guarantees of the parallel path.

   Every parallel case here runs with a pool of 2 workers, so plain
   `dune runtest` exercises the Domain path on every run. *)

let clause = Cnf.Clause.of_dimacs

(* ------------------------------------------------------------------ *)
(* Domain_pool *)

let test_pool_map_order () =
  Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let items = Array.init 200 Fun.id in
      let out = Parallel.Domain_pool.map pool (fun x -> x * x) items in
      Alcotest.(check (array int))
        "squares in submission order"
        (Array.map (fun x -> x * x) items)
        out)

let test_pool_reuse_across_batches () =
  Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 5 do
        let out = Parallel.Domain_pool.map pool (fun x -> x + round) [| 1; 2; 3 |] in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          [| 1 + round; 2 + round; 3 + round |]
          out
      done)

let test_pool_jobs1_inline () =
  Parallel.Domain_pool.with_pool ~jobs:1 (fun pool ->
      let out = Parallel.Domain_pool.map pool succ [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "inline execution" [| 2; 3; 4 |] out)

let test_pool_empty_batch () =
  Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Parallel.Domain_pool.map pool Fun.id [||]))

let test_pool_rejects_bad_jobs () =
  Alcotest.(check bool) "jobs 0 rejected" true
    (try
       ignore (Parallel.Domain_pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

exception Boom of int

let test_pool_exception_graceful_shutdown () =
  Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let ran = Array.make 64 false in
      let work i =
        if i = 5 then raise (Boom i);
        (* slow enough that the cancellation flag set by item 5's
           failure is observed long before the tail of the batch *)
        Unix.sleepf 0.001;
        ran.(i) <- true;
        i
      in
      (match Parallel.Domain_pool.map pool work (Array.init 64 Fun.id) with
      | _ -> Alcotest.fail "expected the item exception to propagate"
      | exception Boom i -> Alcotest.(check int) "failing item's exception" 5 i);
      (* graceful: unstarted items of the failed batch were cancelled *)
      let executed = Array.fold_left (fun n b -> if b then n + 1 else n) 0 ran in
      Alcotest.(check bool)
        (Printf.sprintf "batch tail cancelled (%d/63 ran)" executed)
        true (executed < 63);
      (* graceful: the pool survives and runs further batches *)
      let out = Parallel.Domain_pool.map pool succ [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool alive after exception" [| 2; 3; 4 |] out)

let test_pool_shutdown_idempotent () =
  let pool = Parallel.Domain_pool.create ~jobs:2 () in
  ignore (Parallel.Domain_pool.map pool succ [| 1 |]);
  Parallel.Domain_pool.shutdown pool;
  Parallel.Domain_pool.shutdown pool;
  Alcotest.(check bool) "map after shutdown rejected" true
    (try
       ignore (Parallel.Domain_pool.map pool succ [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Domain_pool jobs: the asynchronous entry point that drives the
   daemon. Completions must surface through the self-pipe and run their
   finish thunks on the owning domain, exceptions included. *)

(* a pool with [workers] spawned domains, none of which is the owner *)
let with_workers workers f =
  let pool = Parallel.Domain_pool.create ~jobs:(workers + 1) () in
  Fun.protect ~finally:(fun () -> Parallel.Domain_pool.shutdown pool) (fun () -> f pool)

let poll_until pool pending =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while pending () && Unix.gettimeofday () < deadline do
    Parallel.Domain_pool.wait ~timeout_s:0.2 pool;
    ignore (Parallel.Domain_pool.poll pool : int)
  done

let test_submit_basic_completion () =
  with_workers 2 @@ fun pool ->
  let n = 20 in
  let results = Array.make n (-1) in
  let done_count = ref 0 in
  for i = 0 to n - 1 do
    Parallel.Domain_pool.submit pool
      ~work:(fun () -> i * i)
      ~finish:(fun r ->
        (match r with
        | Ok v -> results.(i) <- v
        | Error _ -> Alcotest.fail "unexpected job failure");
        incr done_count)
  done;
  (* drive completions the way the daemon does: select on the notify
     pipe, then poll on the owner *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while !done_count < n && Unix.gettimeofday () < deadline do
    (match
       Unix.select [ Parallel.Domain_pool.notify_fd pool ] [] [] 0.2
     with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | _ -> ());
    ignore (Parallel.Domain_pool.poll pool : int)
  done;
  Alcotest.(check int) "all jobs completed" n !done_count;
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) v)
    results

let test_submit_captures_exceptions () =
  with_workers 2 @@ fun pool ->
  let outcomes = ref [] in
  for i = 0 to 7 do
    Parallel.Domain_pool.submit pool
      ~work:(fun () -> if i mod 2 = 0 then raise (Boom i) else i)
      ~finish:(fun r -> outcomes := (i, r) :: !outcomes)
  done;
  poll_until pool (fun () -> List.length !outcomes < 8);
  Alcotest.(check int) "all finished" 8 (List.length !outcomes);
  List.iter
    (fun (i, r) ->
      match r with
      | Ok v ->
          Alcotest.(check bool) "odd jobs succeed" true (i mod 2 = 1);
          Alcotest.(check int) "value" i v
      | Error (Boom j, _) ->
          Alcotest.(check bool) "even jobs fail" true (i mod 2 = 0);
          Alcotest.(check int) "own exception" i j
      | Error _ -> Alcotest.fail "wrong exception captured")
    !outcomes

let test_submit_shutdown_flushes () =
  (* shutdown must finish queued jobs and run their thunks — nothing
     is lost or duplicated *)
  let pool = Parallel.Domain_pool.create ~jobs:2 () in
  let seen = ref 0 in
  for _ = 1 to 10 do
    Parallel.Domain_pool.submit pool
      ~work:(fun () -> Unix.sleepf 0.002)
      ~finish:(fun _ -> incr seen)
  done;
  Parallel.Domain_pool.shutdown pool;
  Alcotest.(check int) "every finish thunk ran" 10 !seen;
  Parallel.Domain_pool.shutdown pool;
  Alcotest.(check int) "shutdown idempotent" 10 !seen;
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Parallel.Domain_pool.submit pool ~work:(fun () -> ()) ~finish:ignore;
       false
     with Invalid_argument _ -> true)

let test_map_while_jobs_hold_workers () =
  (* both workers are parked in jobs until the batch is done, so the
     owner must drain the whole batch itself *)
  with_workers 2 @@ fun pool ->
  let started = Atomic.make 0 and release = Atomic.make false in
  let finished = ref 0 in
  for _ = 1 to 2 do
    Parallel.Domain_pool.submit pool
      ~work:(fun () ->
        Atomic.incr started;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while (not (Atomic.get release)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done)
      ~finish:(fun _ -> incr finished)
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "jobs hold both workers" 2 (Atomic.get started);
  let owner = Domain.self () in
  let out =
    Parallel.Domain_pool.map pool
      (fun x -> (x * 3, Domain.self () = owner))
      (Array.init 50 Fun.id)
  in
  let released = not (Atomic.exchange release true) in
  Alcotest.(check bool) "batch done before the jobs were released" true released;
  Alcotest.(check (array int)) "results in item order"
    (Array.init 50 (fun x -> x * 3)) (Array.map fst out);
  Alcotest.(check bool) "every item ran on the owner" true
    (Array.for_all snd out);
  poll_until pool (fun () -> !finished < 2);
  Alcotest.(check int) "jobs finished after the release" 2 !finished

let test_submit_without_workers_rejected () =
  Parallel.Domain_pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check bool) "submit rejected" true
    (try
       Parallel.Domain_pool.submit pool ~work:(fun () -> ()) ~finish:ignore;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (array int)) "map still inline" [| 2 |]
    (Parallel.Domain_pool.map pool succ [| 1 |])

let test_shutdown_closes_pipe () =
  (* POSIX hands out the lowest free descriptors: a pipe opened after
     the pool's shutdown gets the numbers one opened before it got
     only if the pool closed both of its ends *)
  let lowest_pair () =
    let r, w = Unix.pipe () in
    Unix.close r;
    Unix.close w;
    (r, w)
  in
  let before = lowest_pair () in
  let pool = Parallel.Domain_pool.create ~jobs:2 () in
  Parallel.Domain_pool.submit pool ~work:Fun.id ~finish:ignore;
  let fd = Parallel.Domain_pool.notify_fd pool in
  Parallel.Domain_pool.shutdown pool;
  Alcotest.(check bool) "read end closed" true
    (match Unix.fstat fd with
    | _ -> false
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> true);
  Alcotest.(check bool) "no descriptor left open" true (lowest_pair () = before)

(* ------------------------------------------------------------------ *)
(* Deterministic seeding: jobs-count invariance *)

let prepare ?(seed = 42) f =
  match
    Sampling.Unigen.prepare ~count_iterations:7 ~rng:(Rng.create seed)
      ~epsilon:6.0 f
  with
  | Ok p -> p
  | Error _ -> Alcotest.fail "prepare failed"

let outcome_key = function
  | Ok m -> Cnf.Model.key m
  | Error Sampling.Sampler.Cell_failure -> "<cell_failure>"
  | Error Sampling.Sampler.Timed_out -> "<timeout>"
  | Error Sampling.Sampler.Unsat -> "<unsat>"

(* A batch's outcome keys, drawn on the calling domain or, with [jobs],
   on a fresh pool of [jobs] workers. *)
let batch ?jobs ?max_attempts ~seed p n =
  let draw pool =
    Array.map outcome_key (Sampling.Unigen.sample_batch ?pool ?max_attempts ~seed p n)
  in
  match jobs with
  | None -> draw None
  | Some jobs -> Parallel.Domain_pool.with_pool ~jobs (fun pool -> draw (Some pool))

let test_batch_determinism_across_jobs () =
  (* 2^9 = 512 witnesses: the hashed path, where each sample draws its
     own hashes — the regime the determinism discipline must survive *)
  let f = Cnf.Formula.create ~num_vars:9 [] in
  let p = prepare f in
  let n = 40 in
  let run ?jobs () = batch ?jobs ~max_attempts:20 ~seed:99 p n in
  let serial = run () in
  Alcotest.(check (array string)) "pool of 2 = no pool" serial (run ~jobs:2 ());
  Alcotest.(check (array string)) "pool of 4 = no pool" serial (run ~jobs:4 ());
  (* every sample came from somewhere real *)
  let produced = Array.fold_left (fun n k -> if k.[0] <> '<' then n + 1 else n) 0 serial in
  Alcotest.(check bool) (Printf.sprintf "produced %d/%d" produced n) true
    (produced >= n / 2);
  (* stats were merged once per batch *)
  let st = Sampling.Unigen.stats p in
  Alcotest.(check bool) "stats merged" true
    (st.Sampling.Sampler.samples_requested >= 3 * n)

let test_batch_determinism_easy_case () =
  let f = Cnf.Formula.create ~num_vars:4 [ clause [ 1; 2 ] ] in
  let p = prepare f in
  Alcotest.(check (array string)) "easy case: pool of 2 = no pool"
    (batch ~seed:123 p 32) (batch ~jobs:2 ~seed:123 p 32)

let test_batch_reuses_caller_pool () =
  let f = Cnf.Formula.create ~num_vars:9 [] in
  let p = prepare f in
  let serial = batch ~seed:7 p 20 in
  Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let pooled =
        Array.map outcome_key (Sampling.Unigen.sample_batch ~pool ~seed:7 p 20)
      in
      Alcotest.(check (array string)) "caller pool = no pool" serial pooled)

(* The sessions and caches a pool's workers leave in a prepared state
   outlive the pool; a later draw with no pool, or on a new pool, runs
   on other domains and draws the same witnesses. *)
let test_batch_after_pool_shutdown () =
  let f = Cnf.Formula.create ~num_vars:9 [] in
  let p = prepare f in
  Alcotest.(check bool) "hashed phase" false (Sampling.Unigen.is_easy p);
  let first = batch ~jobs:2 ~max_attempts:20 ~seed:31 p 30 in
  Alcotest.(check (array string)) "no pool after shutdown = first pool" first
    (batch ~max_attempts:20 ~seed:31 p 30);
  Alcotest.(check (array string)) "new pool after shutdown = first pool" first
    (batch ~jobs:2 ~max_attempts:20 ~seed:31 p 30)

let test_batch_stream_independence_of_batch_size () =
  (* sample i depends on (seed, i) only: a prefix of a longer batch
     equals the shorter batch *)
  let f = Cnf.Formula.create ~num_vars:9 [] in
  let p = prepare f in
  let short = batch ~jobs:2 ~seed:5 p 10 in
  let long = batch ~jobs:2 ~seed:5 p 25 in
  Alcotest.(check (array string)) "prefix stable" short (Array.sub long 0 10)

let test_approxmc_jobs_invariance () =
  let f = Cnf.Formula.create ~num_vars:12 [ clause [ 1; 2; 3 ] ] in
  (* [jobs = 1] runs on the calling domain, with no pool *)
  let count jobs =
    let run pool =
      match
        Counting.Approxmc.count ~iterations:9 ?pool ~rng:(Rng.create 5)
          ~epsilon:0.8 ~delta:0.8 f
      with
      | Ok r -> r
      | Error _ -> Alcotest.fail "count failed"
    in
    if jobs = 1 then run None
    else Parallel.Domain_pool.with_pool ~jobs (fun p -> run (Some p))
  in
  let r1 = count 1 in
  let r2 = count 2 in
  let r4 = count 4 in
  Alcotest.(check (float 0.0)) "estimate jobs 2 = jobs 1" r1.Counting.Approxmc.estimate
    r2.Counting.Approxmc.estimate;
  Alcotest.(check (float 0.0)) "estimate jobs 4 = jobs 1" r1.Counting.Approxmc.estimate
    r4.Counting.Approxmc.estimate;
  Alcotest.(check int) "core iterations equal" r1.Counting.Approxmc.core_iterations
    r2.Counting.Approxmc.core_iterations

let test_prepare_with_parallel_counting () =
  (* prepare ~pool parallelises the ApproxMC call; the derived hash
     window must be the one an unpooled preparation derives *)
  let f = Cnf.Formula.create ~num_vars:10 [ clause [ 1; 2 ] ] in
  let prep pool =
    match
      Sampling.Unigen.prepare ~count_iterations:7 ?pool ~rng:(Rng.create 11)
        ~epsilon:6.0 f
    with
    | Ok p -> p
    | Error _ -> Alcotest.fail "prepare failed"
  in
  let p1 = prep None in
  let p2 = Parallel.Domain_pool.with_pool ~jobs:2 (fun p -> prep (Some p)) in
  Alcotest.(check (option (pair int int))) "q range jobs 2 = jobs 1"
    (Sampling.Unigen.q_range p1) (Sampling.Unigen.q_range p2);
  Alcotest.(check (float 0.0)) "count estimate equal"
    (Sampling.Unigen.count_estimate p1)
    (Sampling.Unigen.count_estimate p2)

(* ------------------------------------------------------------------ *)
(* Statistics on the parallel path *)

let test_parallel_path_uniformity () =
  (* chi-square uniformity of the parallel sampler against the US
     exact sampler's support: every witness the parallel path emits
     must be one US enumerates, and the frequencies must be compatible
     with the uniform distribution over that support *)
  let f = Cnf.Formula.create ~num_vars:7 [ clause [ 1; 2 ] ] in
  let us = Sampling.Us.create f in
  let rf = Sampling.Us.size us in
  Alcotest.(check int) "support size" 96 rf;
  let support = Hashtbl.create rf in
  (* US's witnesses are exactly the BSAT enumeration; rebuild the key
     set through brute force for independence from Us internals *)
  List.iter
    (fun m -> Hashtbl.replace support (Cnf.Model.key m) ())
    (Sat.Brute.solutions f);
  let p = prepare f in
  let n = 6000 in
  let outcomes =
    Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
        Sampling.Unigen.sample_batch ~max_attempts:20 ~pool ~seed:17 p n)
  in
  let keys =
    Array.fold_left
      (fun acc o -> match o with Ok m -> Cnf.Model.key m :: acc | Error _ -> acc)
      [] outcomes
  in
  let drawn = List.length keys in
  Alcotest.(check bool) (Printf.sprintf "drawn %d/%d" drawn n) true
    (drawn > n * 9 / 10);
  List.iter
    (fun k ->
      if not (Hashtbl.mem support k) then
        Alcotest.fail "parallel sample outside the exact support")
    keys;
  let h = Sampling.Stats.histogram_of_keys keys in
  Alcotest.(check int) "all witnesses reached" rf (Hashtbl.length h);
  let pvalue =
    Sampling.Stats.uniformity_pvalue ~num_outcomes:rf ~num_samples:drawn h
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 p-value %.4f" pvalue) true
    (pvalue > 1e-4);
  let tv =
    Sampling.Stats.total_variation_from_uniform ~num_outcomes:rf
      ~num_samples:drawn h
  in
  Alcotest.(check bool) (Printf.sprintf "TV %.3f" tv) true (tv < 0.15)

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "reuse across batches" `Quick test_pool_reuse_across_batches;
          Alcotest.test_case "jobs 1 inline" `Quick test_pool_jobs1_inline;
          Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
          Alcotest.test_case "rejects jobs 0" `Quick test_pool_rejects_bad_jobs;
          Alcotest.test_case "exception graceful shutdown" `Quick
            test_pool_exception_graceful_shutdown;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "submit basic completion" `Quick test_submit_basic_completion;
          Alcotest.test_case "submit captures exceptions" `Quick
            test_submit_captures_exceptions;
          Alcotest.test_case "submit shutdown flushes" `Quick test_submit_shutdown_flushes;
          Alcotest.test_case "map while jobs hold every worker" `Quick
            test_map_while_jobs_hold_workers;
          Alcotest.test_case "submit without worker domain rejected" `Quick
            test_submit_without_workers_rejected;
          Alcotest.test_case "shutdown closes the pipe" `Quick test_shutdown_closes_pipe;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "batch jobs invariance" `Quick
            test_batch_determinism_across_jobs;
          Alcotest.test_case "easy case" `Quick test_batch_determinism_easy_case;
          Alcotest.test_case "caller pool" `Quick test_batch_reuses_caller_pool;
          Alcotest.test_case "draws after the pool's shutdown" `Quick
            test_batch_after_pool_shutdown;
          Alcotest.test_case "prefix stability" `Quick
            test_batch_stream_independence_of_batch_size;
          Alcotest.test_case "approxmc jobs invariance" `Quick
            test_approxmc_jobs_invariance;
          Alcotest.test_case "parallel prepare" `Quick
            test_prepare_with_parallel_counting;
        ] );
      ( "uniformity",
        [
          Alcotest.test_case "parallel path chi-square vs US" `Slow
            test_parallel_path_uniformity;
        ] );
    ]
