type config = {
  queue_capacity : int;
  max_batch : int;
  cache_capacity : int;
  jobs : int;
  slow_ms : float;
  spill_dir : string option;
  spill_budget_bytes : int;
}

let default_config =
  {
    queue_capacity = 64;
    max_batch = 10_000;
    cache_capacity = 16;
    jobs = 1;
    slow_ms = 1000.0;
    spill_dir = None;
    spill_budget_bytes = Store.default_budget_bytes;
  }

type request = {
  formula : Cnf.Formula.t;
  n : int;
  seed : int;
  prepare_seed : int;
  epsilon : float;
  count_iterations : int option;
  timeout_s : float option;
  max_attempts : int;
  tag : string option;
  trace_id : string option;
}

let request_of_wire formula (w : Wire.sample_req) =
  {
    formula;
    n = w.Wire.n;
    seed = w.Wire.seed;
    prepare_seed = w.Wire.prepare_seed;
    epsilon = w.Wire.epsilon;
    count_iterations = w.Wire.count_iterations;
    timeout_s = w.Wire.timeout_s;
    max_attempts = w.Wire.max_attempts;
    tag = w.Wire.tag;
    trace_id = w.Wire.trace_id;
  }

type reject = { reason : Wire.reject_reason; retry_after_s : float }

type pending_req = {
  id : int;
  req : request;
  fingerprint : string;
  canonical : Cnf.Formula.t;
  trace_id : string;  (* client-supplied or minted from the request id *)
  submitted_at : float;
  deadline : float option;  (* absolute *)
  mutable cancelled : bool;
}

(* Worker-side timing of one request's execution, carried back to the
   owner for windows and the event log. *)
type timing = { cache : Wire.cache_source; prepare_s : float; draw_s : float }

(* Rolling last-minute view, process-wide and per formula fingerprint.
   Owner-domain only (like every other scheduler field): worker
   completions funnel through owner-executed finish thunks, so the
   windows need no locking. *)
module Fp_windows = struct
  type entry = {
    latency : Obs.Window.t;
    hits : Obs.Window.t;
    misses : Obs.Window.t;
  }

  (* [prune_at]: the table size at which the next new fingerprint
     first drops the entries whose windows are all empty. It is twice
     the size left by the last prune, so pruning costs O(1) per insert
     amortised and the table holds at most twice the fingerprints seen
     within one window (plus a floor of 16). *)
  type t = { table : (string, entry) Hashtbl.t; mutable prune_at : int }

  let min_prune_at = 16
  let create () = { table = Hashtbl.create 16; prune_at = min_prune_at }
  let size t = Hashtbl.length t.table

  let is_empty e ~now =
    Obs.Window.count e.latency ~now = 0
    && Obs.Window.count e.hits ~now = 0
    && Obs.Window.count e.misses ~now = 0

  let prune t ~now =
    Hashtbl.filter_map_inplace
      (fun _ e -> if is_empty e ~now then None else Some e)
      t.table;
    t.prune_at <- max min_prune_at (2 * Hashtbl.length t.table)

  let entry t ~now fp =
    match Hashtbl.find_opt t.table fp with
    | Some e -> e
    | None ->
        if Hashtbl.length t.table >= t.prune_at then prune t ~now;
        let e =
          {
            latency = Obs.Window.create ();
            hits = Obs.Window.create ();
            misses = Obs.Window.create ();
          }
        in
        Hashtbl.replace t.table fp e;
        e

  let record t ~now fp ~latency_s ~cache =
    let e = entry t ~now fp in
    Obs.Window.observe e.latency ~now latency_s;
    match cache with
    | Some `Hit -> Obs.Window.add e.hits ~now 1
    | Some `Miss -> Obs.Window.add e.misses ~now 1
    | None -> ()

  let report t ~now =
    let q d p = Obs.Metrics.Hist.quantile d p *. 1000.0 in
    Hashtbl.fold
      (fun fp e acc ->
        let d = Obs.Window.snapshot e.latency ~now in
        if d.Obs.Metrics.Hist.count = 0 then acc
        else
          {
            Wire.fp;
            fp_requests = d.Obs.Metrics.Hist.count;
            fp_hits = Obs.Window.count e.hits ~now;
            fp_misses = Obs.Window.count e.misses ~now;
            fp_p50_ms = q d 0.5;
            fp_p90_ms = q d 0.9;
            fp_p99_ms = q d 0.99;
          }
          :: acc)
      t.table []
    |> List.sort (fun a b -> compare b.Wire.fp_requests a.Wire.fp_requests)
end

type telemetry = {
  started_at : float;
  w_latency : Obs.Window.t;  (* request wall time, seconds *)
  w_queue : Obs.Window.t;  (* queue wait, seconds *)
  w_deadline : Obs.Window.t;  (* deadline misses (count-only) *)
  w_hits : Obs.Window.t;  (* prepared-state cache hits (count-only) *)
  w_misses : Obs.Window.t;
  fp_tele : Fp_windows.t;
}

type t = {
  cfg : config;
  prep_cache : Cache.t;
  exec : Parallel.Domain_pool.t;  (* [jobs] worker domains run every request *)
  queues : (string, pending_req Queue.t) Hashtbl.t;
  rotation : string Queue.t;  (* fingerprints with pending work, RR order *)
  by_id : (int, pending_req) Hashtbl.t;  (* admitted, not yet dispatched *)
  running : (int, pending_req) Hashtbl.t;  (* dispatched to a worker domain *)
  completed : (int * Wire.response) Queue.t;  (* ready for pickup *)
  mutable next_id : int;
  mutable draining : bool;
  mutable avg_exec_s : float;  (* EWMA of request execution time *)
  mutable executed : int;
  mutable exec_down : bool;
  tele : telemetry;
  owner : Audit.Ownership.t;
}

let c_requests = Obs.Metrics.counter "service.requests"
let c_rejected = Obs.Metrics.counter "service.rejected"
let c_deadline_misses = Obs.Metrics.counter "service.deadline_misses"
let c_cancelled = Obs.Metrics.counter "service.cancelled"
let h_queue_wait = Obs.Metrics.histogram "service.queue_wait_seconds"
let h_request = Obs.Metrics.histogram "service.request_seconds"

let queued t = Hashtbl.length t.by_id
let in_flight t = Hashtbl.length t.running

let set_depth t =
  Obs.Metrics.set_gauge "service.queue_depth" (float_of_int (queued t));
  Obs.Metrics.set_gauge "service.in_flight" (float_of_int (in_flight t))

let create ?(config = default_config) () =
  if config.queue_capacity < 1 then
    invalid_arg "Scheduler.create: queue_capacity must be >= 1";
  if config.jobs < 1 then invalid_arg "Scheduler.create: jobs must be >= 1";
  if config.cache_capacity < 0 then
    invalid_arg "Scheduler.create: cache_capacity must be >= 0";
  if config.max_batch < 0 then
    invalid_arg "Scheduler.create: max_batch must be >= 0";
  Obs.Metrics.set_gauge "service.jobs" (float_of_int config.jobs);
  (* the durable tier, created before any worker domain exists and
     owned — like the cache — by this scheduler's domain *)
  let store =
    Option.map
      (fun dir -> Store.create ~budget_bytes:config.spill_budget_bytes ~dir ())
      config.spill_dir
  in
  {
    cfg = config;
    prep_cache = Cache.create ?store ~capacity:config.cache_capacity ();
    (* the owner never runs a request: [jobs + 1] spawns [jobs] domains *)
    exec =
      Parallel.Domain_pool.create ~worker_span:"executor.worker"
        ~jobs:(config.jobs + 1) ();
    queues = Hashtbl.create 16;
    rotation = Queue.create ();
    by_id = Hashtbl.create 64;
    running = Hashtbl.create 8;
    completed = Queue.create ();
    next_id = 1;
    draining = false;
    avg_exec_s = 0.05;
    executed = 0;
    exec_down = false;
    tele =
      {
        started_at = Unix.gettimeofday ();
        w_latency = Obs.Window.create ();
        w_queue = Obs.Window.create ();
        w_deadline = Obs.Window.create ();
        w_hits = Obs.Window.create ();
        w_misses = Obs.Window.create ();
        fp_tele = Fp_windows.create ();
      };
    owner = Audit.Ownership.create "service scheduler";
  }

let config t = t.cfg
let cache t = t.prep_cache

let pending t =
  Audit.Ownership.check t.owner;
  queued t + in_flight t

let notify_fd t = Parallel.Domain_pool.notify_fd t.exec

let is_draining t = t.draining

let set_draining t =
  Audit.Ownership.check t.owner;
  t.draining <- true

let retry_hint t =
  let hint = t.avg_exec_s *. float_of_int (queued t + in_flight t + 1) in
  if Float.is_finite hint && hint >= 0.0 then hint else 0.0

let submit t req =
  Audit.Ownership.check t.owner;
  if t.draining then begin
    Obs.Metrics.incr c_rejected;
    Error { reason = Wire.Draining; retry_after_s = 0.0 }
  end
  else if req.n < 0 || req.n > t.cfg.max_batch then begin
    Obs.Metrics.incr c_rejected;
    Error { reason = Wire.Batch_too_large; retry_after_s = 0.0 }
  end
  else if queued t + in_flight t >= t.cfg.queue_capacity then begin
    Obs.Metrics.incr c_rejected;
    (* the hint assumes the backlog drains at the observed mean
       request time; clients treat it as advisory *)
    Error { reason = Wire.Queue_full; retry_after_s = retry_hint t }
  end
  else begin
    let fingerprint, canonical = Registry.identify req.formula in
    let now = Unix.gettimeofday () in
    let id = t.next_id in
    t.next_id <- id + 1;
    (* correlation id for every span and log line this request produces;
       minted from the monotone request counter when the client did not
       supply one (ids only need to be unique within one daemon) *)
    let trace_id =
      match req.trace_id with
      | Some tid -> tid
      | None -> "req-" ^ string_of_int id
    in
    let p =
      {
        id;
        req;
        fingerprint;
        canonical;
        trace_id;
        submitted_at = now;
        deadline = Option.map (fun s -> now +. s) req.timeout_s;
        cancelled = false;
      }
    in
    (* async span paired with the span_end in [dequeue]: the queue
       phase has no lexical scope, so it is a Chrome 'b'/'e' pair keyed
       by the trace id *)
    Obs.Trace.span_begin ~cat:"service" ~id:trace_id "service.queue"
      ~args:[ ("fingerprint", fingerprint); ("trace_id", trace_id) ];
    (match Hashtbl.find_opt t.queues fingerprint with
    | Some q -> Queue.push p q
    | None ->
        let q = Queue.create () in
        Queue.push p q;
        Hashtbl.replace t.queues fingerprint q;
        Queue.push fingerprint t.rotation);
    Hashtbl.replace t.by_id id p;
    Obs.Metrics.incr c_requests;
    set_depth t;
    Ok id
  end

let cancel t id =
  Audit.Ownership.check t.owner;
  match Hashtbl.find_opt t.by_id id with
  | Some p ->
      (* still queued: drop it before it reaches a worker. It never
         passes through [dequeue], so its queue span closes here *)
      p.cancelled <- true;
      Hashtbl.remove t.by_id id;
      Obs.Trace.span_end ~cat:"service" ~id:p.trace_id "service.queue"
        ~args:[ ("fingerprint", p.fingerprint); ("cancelled", "true") ];
      Obs.Metrics.incr c_cancelled;
      set_depth t;
      true
  | None -> (
      match Hashtbl.find_opt t.running id with
      | Some p when not p.cancelled ->
          (* in flight on a worker: the work itself cannot be recalled,
             but its response is suppressed at completion *)
          p.cancelled <- true;
          Obs.Metrics.incr c_cancelled;
          true
      | _ -> false)

(* Next dispatchable request in fairness order: pop the head
   fingerprint of the rotation, take its oldest live request, and
   re-enqueue the fingerprint at the rotation tail while it still has
   work. Fingerprints with an in-flight request are skipped (kept in
   the rotation) so one formula's stream of requests serialises on its
   prepared state while other formulas run in parallel; [running]
   holds at most [jobs] requests, so the scan is short. *)
let busy t fp =
  Seq.exists (fun p -> String.equal p.fingerprint fp) (Hashtbl.to_seq_values t.running)

let next_runnable t =
  let rec scan tries =
    if tries <= 0 || Queue.is_empty t.rotation then None
    else begin
      let fp = Queue.pop t.rotation in
      match Hashtbl.find_opt t.queues fp with
      | None -> scan (tries - 1)  (* stale rotation entry *)
      | Some q ->
          if busy t fp then begin
            Queue.push fp t.rotation;
            scan (tries - 1)
          end
          else begin
            let rec take () =
              if Queue.is_empty q then None
              else
                let p = Queue.pop q in
                if p.cancelled then take () else Some p
            in
            let taken = take () in
            if Queue.is_empty q then Hashtbl.remove t.queues fp
            else Queue.push fp t.rotation;
            match taken with None -> scan (tries - 1) | Some p -> Some p
          end
    end
  in
  scan (Queue.length t.rotation)

let key_of p =
  {
    Cache.fingerprint = p.fingerprint;
    epsilon = p.req.epsilon;
    prepare_seed = p.req.prepare_seed;
    count_iterations = p.req.count_iterations;
  }

(* ------------------------------------------------------------------ *)
(* Request execution. [run_request] is the worker-domain half: it
   touches only the request itself, the (immutable) canonical formula
   and — on a cache hit — the prepared state, which keeps one solver
   session per domain (freed with the state), so concurrent requests on
   different fingerprints never share mutable state. All cache
   bookkeeping stays on the owning domain. Witnesses are bit-identical
   to the offline [Unigen.sample_batch] path at any [jobs] level
   because every draw consumes the splittable stream [(seed, index)]
   regardless of which domain executes it. *)

let run_request ~queue_wait_s ~cached (p : pending_req) =
  let cache =
    match cached with
    | None -> Wire.Cache_miss
    | Some (_, Cache.Ram) -> Wire.Cache_ram
    | Some (_, Cache.Disk) -> Wire.Cache_disk
  in
  let cache_hit = cache <> Wire.Cache_miss in
  let prepare_t0 = Unix.gettimeofday () in
  let prep_result, newly =
    match cached with
    | Some (entry, _) -> (Ok entry, None)
    | None -> (
        let rng = Rng.create p.req.prepare_seed in
        match
          Obs.Trace.span ~cat:"service" "service.prepare"
            ~args:[ ("fingerprint", p.fingerprint) ]
            (fun () ->
              Sampling.Unigen.prepare ?deadline:p.deadline
                ?count_iterations:p.req.count_iterations ~rng
                ~epsilon:p.req.epsilon p.canonical)
        with
        | Ok prepared ->
            let entry = { Cache.prepared; formula = p.canonical } in
            (Ok entry, Some entry)
        | Error e -> (Error e, None))
  in
  let prepare_s =
    if cache_hit then 0.0 else Unix.gettimeofday () -. prepare_t0
  in
  let timing ~draw_s = { cache; prepare_s; draw_s } in
  match prep_result with
  | Error Sampling.Unigen.Unsat_formula ->
      (Wire.Unsat { rsp_tag = p.req.tag }, None, timing ~draw_s:0.0)
  | Error Sampling.Unigen.Prepare_timeout ->
      (Wire.Deadline_miss { rsp_tag = p.req.tag }, None, timing ~draw_s:0.0)
  | Error Sampling.Unigen.Count_failed
    when (match p.deadline with
         | Some d -> Unix.gettimeofday () > d
         | None -> false) ->
      (* the approximate count aborted because this request's deadline
         expired mid-count: a deadline miss, not an internal failure *)
      (Wire.Deadline_miss { rsp_tag = p.req.tag }, None, timing ~draw_s:0.0)
  | Error Sampling.Unigen.Count_failed ->
      ( Wire.Error_msg "approximate count failed within budget",
        None,
        timing ~draw_s:0.0 )
  | Ok entry ->
      let draw_t0 = Unix.gettimeofday () in
      let outcomes =
        Obs.Trace.span ~cat:"service" "service.draw"
          ~args:[ ("fingerprint", p.fingerprint); ("n", string_of_int p.req.n) ]
          (fun () ->
            Sampling.Unigen.sample_batch ?deadline:p.deadline
              ~max_attempts:(max 1 p.req.max_attempts) ~seed:p.req.seed
              entry.Cache.prepared p.req.n)
      in
      let timing = timing ~draw_s:(Unix.gettimeofday () -. draw_t0) in
      let witnesses =
        Array.to_list outcomes
        |> List.filter_map (function
             | Ok m -> Some (Cnf.Model.to_dimacs m)
             | Error _ -> None)
      in
      if
        witnesses = [] && p.req.n > 0
        && Array.for_all
             (function Error Sampling.Sampler.Timed_out -> true | _ -> false)
             outcomes
      then
        (* every draw was cut off by the deadline: nothing sampled,
           report the miss rather than an empty success *)
        (Wire.Deadline_miss { rsp_tag = p.req.tag }, newly, timing)
      else
      ( Wire.Ok_sample
          {
            fingerprint = p.fingerprint;
            cache;
            witnesses;
            produced = List.length witnesses;
            requested = p.req.n;
            queue_wait_s;
            rsp_tag = p.req.tag;
            rsp_trace_id = p.trace_id;
          },
        newly,
        timing )

let response_of_exn = function
  | Invalid_argument m -> Wire.Error_msg ("invalid request: " ^ m)
  | Failure m -> Wire.Error_msg m
  | e -> Wire.Error_msg ("internal error: " ^ Printexc.to_string e)

let outcome_of_response = function
  | Wire.Ok_sample _ -> "ok"
  | Wire.Unsat _ -> "unsat"
  | Wire.Deadline_miss _ -> "deadline_miss"
  | Wire.Cancelled _ -> "cancelled"
  | Wire.Error_msg _ -> "error"
  | Wire.Rejected _ -> "rejected"
  | Wire.Cancel_result _ | Wire.Metrics _ | Wire.Window_report _ | Wire.Bye ->
      "other"

(* The single funnel every finished request passes through, worker-side
   or missed at dispatch — deadline misses are counted here and nowhere
   else, so a miss detected on a worker domain (a [Prepare_timeout]
   surfacing as [Deadline_miss]) is counted exactly once. The same
   funnel feeds the rolling windows and emits the request's structured
   log line; it always runs on the owner domain (in [dispatch] or in
   a job's finish thunk), so the windows need no locking. [timing]
   is [None] when the request never reached a worker (an
   already-expired deadline or an exception outside the request). *)
let account t (p : pending_req) ~queue_wait_s ~started_at ~timing response =
  (match response with
  | Wire.Deadline_miss _ -> Obs.Metrics.incr c_deadline_misses
  | _ -> ());
  let now = Unix.gettimeofday () in
  let dt = now -. started_at in
  Obs.Metrics.observe h_request dt;
  (* rolling windows: process-wide and per fingerprint *)
  Obs.Window.observe t.tele.w_latency ~now dt;
  Obs.Window.observe t.tele.w_queue ~now queue_wait_s;
  (match response with
  | Wire.Deadline_miss _ -> Obs.Window.add t.tele.w_deadline ~now 1
  | _ -> ());
  let cache =
    Option.map
      (fun tm -> if tm.cache <> Wire.Cache_miss then `Hit else `Miss)
      timing
  in
  (match cache with
  | Some `Hit -> Obs.Window.add t.tele.w_hits ~now 1
  | Some `Miss -> Obs.Window.add t.tele.w_misses ~now 1
  | None -> ());
  Fp_windows.record t.tele.fp_tele ~now p.fingerprint ~latency_s:dt ~cache;
  (* one structured line per request; slow requests escalate to Warn
     so an operator can tail for them without a jq filter *)
  if Obs.Log.is_enabled () then begin
    let ms s = Float.round (s *. 1e4) /. 10.0 in
    let total_ms = dt *. 1000.0 in
    let level = if total_ms >= t.cfg.slow_ms then Obs.Log.Warn else Obs.Log.Info in
    Obs.Log.event ~level "service.request"
      ([
         ("trace_id", Obs.Report.String p.trace_id);
         ("fingerprint", Obs.Report.String p.fingerprint);
         ("outcome", Obs.Report.String (outcome_of_response response));
         ("n", Obs.Report.Int p.req.n);
         ("queue_ms", Obs.Report.Float (ms queue_wait_s));
         ("total_ms", Obs.Report.Float (ms dt));
       ]
      @ (match timing with
        | Some tm ->
            [
              ("prepare_ms", Obs.Report.Float (ms tm.prepare_s));
              ("draw_ms", Obs.Report.Float (ms tm.draw_s));
              ("cache", Obs.Report.String (Wire.cache_source_to_string tm.cache));
            ]
        | None -> [])
      @ (if p.cancelled then [ ("cancelled", Obs.Report.Bool true) ] else []))
  end;
  (* the EWMA feeds the retry-after hint: floor sub-microsecond
     completions (e.g. an immediate deadline miss) and reject
     non-finite samples so the hint stays finite and non-negative *)
  let sample =
    if Float.is_finite dt then Float.max 1e-6 dt else t.avg_exec_s
  in
  t.avg_exec_s <-
    (if t.executed = 0 then sample
     else (0.8 *. t.avg_exec_s) +. (0.2 *. sample));
  t.executed <- t.executed + 1

let dequeue t p =
  Hashtbl.remove t.by_id p.id;
  let now = Unix.gettimeofday () in
  let queue_wait_s = now -. p.submitted_at in
  Obs.Metrics.observe h_queue_wait queue_wait_s;
  (* closes the async queue span opened in [submit] *)
  Obs.Trace.span_end ~cat:"service" ~id:p.trace_id "service.queue"
    ~args:[ ("fingerprint", p.fingerprint) ];
  (now, queue_wait_s)

let deadline_passed p now =
  match p.deadline with Some d -> now > d | None -> false

(* ------------------------------------------------------------------ *)
(* Dispatch: hand whole requests to worker domains through the
   worker pool, at most [jobs] in flight and at most one per fingerprint.
   The owner keeps every cache touch: it resolves hit/miss before the
   worker starts and installs a fresh preparation at completion — the
   worker only computes. The worker's closure holds the cached entry
   by reference for the whole flight, so a concurrent completion's
   [put] may evict it from the LRU without taking it from the worker. *)

let dispatch_one t p =
  let now, queue_wait_s = dequeue t p in
  if deadline_passed p now then begin
    (* no worker needed; completes immediately *)
    let response = Wire.Deadline_miss { rsp_tag = p.req.tag } in
    account t p ~queue_wait_s ~started_at:now ~timing:None response;
    set_depth t;
    if not p.cancelled then Queue.push (p.id, response) t.completed
  end
  else begin
    Hashtbl.replace t.running p.id p;
    set_depth t;
    let key = key_of p in
    let cached = Cache.find t.prep_cache key in
    Parallel.Domain_pool.submit t.exec
      ~work:(fun () ->
        (* worker domain: install the request's trace id as the
           ambient id for every span produced on this domain until the
           request finishes *)
        Obs.Trace.with_trace_id (Some p.trace_id) @@ fun () ->
        Obs.Trace.span ~cat:"service" "service.request"
          ~args:[ ("fingerprint", p.fingerprint); ("id", string_of_int p.id) ]
          (fun () -> run_request ~queue_wait_s ~cached p))
      ~finish:(fun result ->
        Hashtbl.remove t.running p.id;
        let response, timing =
          match result with
          | Ok (response, newly, tm) ->
              Option.iter (Cache.put t.prep_cache key) newly;
              (response, Some tm)
          | Error (e, _bt) -> (response_of_exn e, None)
        in
        account t p ~queue_wait_s ~started_at:now ~timing response;
        set_depth t;
        if not p.cancelled then Queue.push (p.id, response) t.completed)
  end

let dispatch t =
  Audit.Ownership.check t.owner;
  let started = ref 0 in
  let continue = ref true in
  while !continue && in_flight t < t.cfg.jobs do
    match next_runnable t with
    | None -> continue := false
    | Some p ->
        dispatch_one t p;
        incr started
  done;
  !started

let completions t =
  Audit.Ownership.check t.owner;
  if not t.exec_down then ignore (Parallel.Domain_pool.poll t.exec : int);
  let rec go acc =
    if Queue.is_empty t.completed then List.rev acc
    else go (Queue.pop t.completed :: acc)
  in
  go []

let drain t =
  Audit.Ownership.check t.owner;
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    List.iter (fun c -> acc := c :: !acc) (completions t);
    ignore (dispatch t : int);
    if in_flight t > 0 then Parallel.Domain_pool.wait ~timeout_s:0.1 t.exec
    else if queued t = 0 && Queue.is_empty t.completed then
      continue := false
  done;
  List.rev !acc

let shutdown t =
  Audit.Ownership.check t.owner;
  if not t.exec_down then begin
    t.exec_down <- true;
    Parallel.Domain_pool.shutdown t.exec
  end

(* ------------------------------------------------------------------ *)
(* Rolling-window report: the [metrics] wire op's answer. Pure read of
   the owner-domain windows. *)

let uptime_s t = Unix.gettimeofday () -. t.tele.started_at

let window_report t =
  Audit.Ownership.check t.owner;
  let now = Unix.gettimeofday () in
  let q d p = Obs.Metrics.Hist.quantile d p *. 1000.0 in
  let latency = Obs.Window.snapshot t.tele.w_latency ~now in
  let queue = Obs.Window.snapshot t.tele.w_queue ~now in
  let per_fp = Fp_windows.report t.tele.fp_tele ~now in
  {
    Wire.window_s = Obs.Window.span_s t.tele.w_latency;
    uptime_s = uptime_s t;
    jobs = t.cfg.jobs;
    w_in_flight = in_flight t;
    w_queued = queued t;
    ocaml_version = Sys.ocaml_version;
    w_requests = latency.Obs.Metrics.Hist.count;
    rate_per_s = Obs.Window.rate_per_s t.tele.w_latency ~now;
    w_deadline_misses = Obs.Window.count t.tele.w_deadline ~now;
    w_hits = Obs.Window.count t.tele.w_hits ~now;
    w_misses = Obs.Window.count t.tele.w_misses ~now;
    p50_ms = q latency 0.5;
    p90_ms = q latency 0.9;
    p99_ms = q latency 0.99;
    queue_p50_ms = q queue 0.5;
    queue_p90_ms = q queue 0.9;
    queue_p99_ms = q queue 0.99;
    per_fp;
  }
