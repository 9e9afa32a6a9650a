(** Deadline-aware request scheduler over the prepared-state cache.

    The scheduler is the daemon's brain, factored out of the socket
    layer so every policy is unit-testable in-process:

    - {b bounded admission}: {!submit} is non-blocking; when
      [queue_capacity] requests are already pending it rejects with a
      [retry_after_s] hint derived from the observed mean request time
      (backpressure instead of unbounded buffering). Requests whose
      sample budget exceeds [max_batch] are rejected outright.
    - {b fairness}: pending requests are kept in one FIFO per formula
      fingerprint, and dispatch round-robins across fingerprints — a
      client spraying thousands of requests at one formula delays its
      own queue, not other formulas'.
    - {b deadlines}: a request admitted with [timeout_s] carries an
      absolute deadline; if it is already past when the request is
      dispatched, the request completes as [Deadline_miss] without
      touching a solver, and an in-flight preparation respects the
      same deadline through [Unigen.prepare ~deadline]. Every finished
      request — worker-side or immediately missed — passes through
      one accounting funnel, so a miss is counted exactly once no
      matter where it is detected.
    - {b cancellation}: {!cancel} removes a queued request by id; a
      request already running on a worker domain is marked cancelled
      and its response suppressed at completion.
    - {b determinism}: execution reuses the {!Cache} when possible and
      prepares on a miss with [Rng.create prepare_seed]; either way
      the drawn witnesses are bit-identical to an offline
      [Unigen.sample_batch ~seed] on the canonical formula, {e at any
      [jobs] level} — each draw consumes the splittable stream
      [(seed, index)], so results are independent of which domain
      executes them (the differential tests in [test_service.ml]
      enforce this on miss, hit and post-eviction paths). ApproxMC
      has one median loop, pooled or not, so with [prepare_seed =
      seed] the answer is also what [unigen sample -s seed] prints.

    {b Execution}: whole requests are submitted as jobs to a private
    {!Parallel.Domain_pool} that spawns [jobs] worker domains
    ([jobs = 1] is one worker; the owner is the pool's remaining
    member but never runs a request); at most [jobs] run concurrently
    and at most one per formula fingerprint, sharding prepared-state
    ownership so concurrent clients on different formulas never
    contend while one formula's requests serialise on its prepared
    state (which keeps one solver session per domain, and
    whose statistics merge assumes a single concurrent reader). The
    owning domain keeps every cache and queue touch: it resolves
    hit/miss before handing off and installs fresh preparations in
    the completion callback — worker domains only compute. A request
    holds its cached entry by reference while it runs, so the LRU may
    evict that entry meanwhile (the cache never exceeds its capacity)
    without changing a witness. Completions surface
    through {!completions}; {!notify_fd} exposes the pool's
    self-pipe so a select loop can sleep until a worker finishes.

    Single-owner: every entry point checks an {!Audit.Ownership} tag,
    so with audit mode on, a cross-domain touch raises a structured
    violation instead of racing. Metrics: [service.requests],
    [service.rejected], [service.deadline_misses], [service.cancelled],
    cache hit/miss/eviction counts, [service.queue_depth] /
    [service.in_flight] / [service.jobs] gauges, and [service.queue_wait_seconds] /
    [service.request_seconds] histograms. *)

type config = {
  queue_capacity : int;  (** max pending requests before rejection *)
  max_batch : int;  (** per-request sample budget *)
  cache_capacity : int;  (** prepared-state LRU size *)
  jobs : int;
      (** worker domains executing requests; [1] is one worker domain,
          so the owner domain never runs a request itself *)
  slow_ms : float;
      (** requests slower than this log their [service.request] event
          at [Warn] instead of [Info] *)
  spill_dir : string option;
      (** when set, the prepared-state cache gains a durable tier: a
          {!Store} rooted here spills every preparation on insert and
          is consulted on every RAM miss, so a restarted daemon — or
          another daemon process sharing the directory — serves its first
          request for a known formula disk-warm, without re-running
          ApproxMC, with witnesses bit-identical to the RAM-warm path *)
  spill_budget_bytes : int;
      (** disk budget of the durable tier (LRU-by-mtime eviction; see
          {!Store}); ignored when [spill_dir] is [None] *)
}

val default_config : config
(** [queue_capacity = 64], [max_batch = 10_000], [cache_capacity = 16],
    [jobs = 1], [slow_ms = 1000.0], [spill_dir = None],
    [spill_budget_bytes = Store.default_budget_bytes]. *)

type request = {
  formula : Cnf.Formula.t;
  n : int;
  seed : int;
  prepare_seed : int;
  epsilon : float;
  count_iterations : int option;
  timeout_s : float option;  (** relative deadline, measured from admission *)
  max_attempts : int;
  tag : string option;  (** echoed into the response *)
  trace_id : string option;
      (** correlation id for the request's spans and log line; minted
          as [req-<id>] at admission when [None] *)
}

val request_of_wire : Cnf.Formula.t -> Wire.sample_req -> request
(** Pair an already-parsed formula with the wire parameters. *)

type reject = { reason : Wire.reject_reason; retry_after_s : float }

type t

val create : ?config:config -> unit -> t
(** Builds the cache and a private {!Parallel.Domain_pool}
    with [jobs] worker domains.
    @raise Invalid_argument on non-positive capacities where required
    ([queue_capacity >= 1], [jobs >= 1], [cache_capacity >= 0],
    [max_batch >= 0]). *)

val config : t -> config
val cache : t -> Cache.t

val submit : t -> request -> (int, reject) result
(** Admission control only — never solves. [Ok id] hands back the
    dispatch handle used by {!cancel} and returned with the
    response. *)

val cancel : t -> int -> bool
(** [true] iff the id was queued (removed outright) or in flight
    (marked: its response is suppressed when the worker finishes). [false] for unknown or already-finished
    ids. *)

val pending : t -> int
(** Admitted and not yet completed: queued plus in flight. *)

val queued : t -> int
(** Admitted, not yet dispatched. *)

val in_flight : t -> int
(** Dispatched to a worker domain, not yet completed. *)

val notify_fd : t -> Unix.file_descr
(** The pool's completion-notification pipe (readable when a
    worker finished since the last {!completions}). Select on it;
    never read it directly. *)

val set_draining : t -> unit
(** Further {!submit}s reject with [Draining]; pending requests still
    dispatch (the graceful-shutdown half of the daemon). *)

val is_draining : t -> bool

val dispatch : t -> int
(** Start as many runnable requests, in fairness order, as free worker
    slots allow (at most [jobs] in flight, at most one per
    fingerprint); returns how many were started. Requests whose
    deadline already passed complete immediately as [Deadline_miss]
    without occupying a worker. Never blocks. *)

val completions : t -> (int * Wire.response) list
(** Poll the pool and return every finished request since the last
    call, in completion order. Cancelled requests are omitted. Also
    drains {!notify_fd}. *)

val drain : t -> (int * Wire.response) list
(** Run to exhaustion — dispatch/await/collect until no request is
    queued or in flight — and return completions in order. *)

val shutdown : t -> unit
(** Stop the pool (workers finish their queued jobs, completion
    callbacks run) and join its domains. Idempotent.
    Queued requests are not executed; callers wanting a graceful stop
    call {!set_draining} and {!drain} first. *)

(** {2 Telemetry}

    Every finished request feeds a set of {!Obs.Window} rolling
    histograms (12 × 10 s), process-wide and per formula fingerprint,
    and emits one structured {!Obs.Log} [service.request] line
    (trace id, fingerprint, outcome, queue/prepare/draw milliseconds,
    cache hit/miss) — at [Warn] past [slow_ms]. Spans
    produced on behalf of a request — [service.queue] (async, from
    admission to dispatch or cancellation), [service.request],
    [service.prepare], [service.draw] and the [unigen.*] spans below
    them — all carry the request's trace id, across owner and worker
    domains. *)

(** The per-fingerprint windows behind {!window_report}'s [per_fp],
    driven by an explicit clock. A new fingerprint drops the entries
    whose windows are all empty once the table has doubled since the
    last such prune, so the table stays within twice the number of
    fingerprints seen within one window (and at least 16 entries). *)
module Fp_windows : sig
  type t

  val create : unit -> t

  val record :
    t -> now:float -> string -> latency_s:float -> cache:[ `Hit | `Miss ] option -> unit
  (** One finished request of a fingerprint: its latency and, when it
      reached a worker, whether the prepared state was a cache hit. *)

  val size : t -> int
  (** Fingerprints held, live or not yet pruned. *)

  val report : t -> now:float -> Wire.fp_window list
  (** The fingerprints with requests in the window as of [now], most
      requests first. *)
end

val window_report : t -> Wire.window_report
(** Rates, counts and factor-of-2 latency percentiles over the rolling
    window, plus provenance (jobs, OCaml version, uptime).
    Owner-domain only, like every other entry point. *)

val uptime_s : t -> float
(** Seconds since {!create}. *)
