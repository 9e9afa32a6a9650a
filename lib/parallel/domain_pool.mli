(** Fixed set of OCaml 5 worker domains draining one task queue, with
    two entry points onto the same workers.

    The pool underlies every parallel layer of this repository: batch
    draws and ApproxMC iterations offline ({!map}, {!iteri}), whole
    daemon requests ({!submit}). Workers run queued tasks in order
    without knowing which entry point queued them.

    - {b fixed pool}: [create ~jobs] spawns [jobs - 1] worker domains
      once; [jobs = 1] spawns none.
    - {b batches}: {!map} publishes the batch's items and queues one
      helper task per worker (at most one per item beyond the first);
      helpers and the submitting domain claim the next index as they
      finish, so uneven item costs (SAT calls vary wildly) balance
      themselves, [jobs] bounds the batch's parallelism, and at
      [jobs = 1] it runs inline. Since the submitting domain drains
      the batch too, a batch completes even while submitted jobs hold
      every worker. If an item's function raises, the batch's
      unstarted items are cancelled, in-flight items finish, and the
      lowest-index exception observed is re-raised in the caller once
      the batch has fully drained; the pool survives.
    - {b jobs}: {!submit} queues a job and returns at once. When it
      finishes, the worker parks a {e finish thunk} (the caller's
      continuation closed over the job's result) and writes one byte
      to a self-pipe; the owner watches {!notify_fd} in its [select]
      set and calls {!poll}, which runs every parked finish thunk {b on
      the owning domain}, so continuations may touch single-owner
      state (a scheduler's cache and queues) without locking.
      Exceptions raised by [work] never escape the worker: they reach
      [finish] as an [Error] with their backtrace. Exceptions raised
      by a finish thunk propagate out of {!poll}. The owner never runs
      a job, so a daemon sized for [n] concurrent requests creates its
      pool with [jobs = n + 1].

    Determinism is the caller's contract: [map] returns results in item
    order, and callers derive any randomness an item needs from the
    item's index (see {!Rng.of_stream}), never from shared state — so
    the output of a batch is independent of the worker count. *)

type t

val create : ?worker_span:string -> jobs:int -> unit -> t
(** [create ~jobs ()] builds a pool of [jobs] total workers ([jobs - 1]
    spawned domains). Each spawned domain holds a trace span named
    [worker_span] (default ["pool.worker"]) for its whole life, so a
    trace ledger reads the time outside nested spans as the lane's idle
    time. @raise Invalid_argument when [jobs < 1].

    The pool is owned by the creating domain: {!map}, {!iteri},
    {!submit}, {!poll} and {!shutdown} must come from it. With audit
    mode on ([Audit.enable]) a cross-domain call raises
    [Audit.Violation] (invariant [domain-ownership]) instead of racing
    the handshakes. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f items] applies [f] to every element, in parallel across
    the pool, returning results in item order. If any application
    raises, remaining unstarted items are cancelled and the
    lowest-index exception observed is re-raised after the batch
    drains. Nested [map] from inside an item is not supported. *)

val iteri : t -> (int -> 'a -> unit) -> 'a array -> unit
(** Indexed side-effecting variant of {!map}. *)

val submit :
  t -> work:(unit -> 'a) -> finish:(('a, exn * Printexc.raw_backtrace) result -> unit) -> unit
(** [submit t ~work ~finish] queues [work] for any idle worker; once it
    completes, the next {!poll} runs [finish result] on the owner.
    Jobs start in submission order; completion order depends on
    relative running times. @raise Invalid_argument on a pool with no
    spawned domain ([jobs = 1]), where the job would never run. *)

val notify_fd : t -> Unix.file_descr
(** Read end of the self-pipe: readable whenever completions may be
    waiting. Put it in the [select] read set; never read from it
    directly — {!poll} drains it. *)

val poll : t -> int
(** Drain the notification pipe and run every parked finish thunk on
    the calling (owner) domain; returns how many ran. Non-blocking:
    returns 0 when nothing has completed. *)

val wait : ?timeout_s:float -> t -> unit
(** Block (via [select] on {!notify_fd}) until a completion is likely
    available or the timeout elapses — a convenience for synchronous
    drains; event loops should select on {!notify_fd} themselves. *)

val shutdown : t -> unit
(** Let workers finish every already-queued task, join them, run any
    remaining finish thunks on the owner and close both ends of the
    pipe. Idempotent; {!map}, {!iteri} and {!submit} afterwards raise
    [Invalid_argument], {!poll} returns 0. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)
