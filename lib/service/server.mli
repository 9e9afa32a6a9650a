(** The sampling daemon: a Unix-domain-socket front end over
    {!Scheduler}.

    Single-threaded by construction — one [select] loop owns the
    listening socket, every client connection, and the scheduler (so
    the {!Audit.Ownership} single-owner discipline holds without
    locks). Connection reads are buffered through {!Wire.Decoder}, so
    a slow writer never blocks the loop.

    The loop never runs a request itself: it dispatches runnable
    requests to the scheduler's [jobs] worker domains ([jobs = 1] is
    one worker) and always keeps serving I/O, so a [status] is answered
    while a cold preparation runs. The executor's completion self-pipe
    joins the [select] set, so the loop sleeps until a client writes
    {e or} a worker finishes, then delivers completed responses.
    Requests on distinct formulas run concurrently (prepared-state
    ownership is sharded by fingerprint); witnesses are bit-identical
    at any [jobs] level.

    Graceful shutdown (a [shutdown] request, SIGINT or SIGTERM):
    admission switches to [Draining] rejections, the listening socket
    closes, every already-admitted request still executes and its
    response is delivered, then connections close, the socket file is
    unlinked and {!run} returns — at which point the caller flushes
    metrics/trace sinks. Clients that disconnect early have their
    pending requests cancelled rather than computed into the void. *)

type config = {
  socket_path : string;
  scheduler : Scheduler.config;
  log : string -> unit;  (** daemon progress lines; [ignore] to silence *)
  shard : (int * int) option;
      (** fleet identity [(index, count)], set by {!run_fleet} on each
          replica — surfaced in the [status] info and the
          [service.start] event so an operator can tell replicas
          apart; [None] for a standalone daemon *)
}

val default_config : socket_path:string -> config
(** {!Scheduler.default_config}, a silent [log], no shard. *)

val shard_socket : string -> int -> string
(** [shard_socket base i] is replica [i]'s socket path, ["<base>.<i>"]
    — the naming contract shared with [Client.Fleet] users. *)

val run : config -> unit
(** Bind, listen and serve until a graceful shutdown. Calls
    [Obs.Metrics.enable] so the [status] op always reports live
    counters, and replaces the process's SIGINT/SIGTERM/SIGPIPE
    handlers for the duration, restoring them on exit.
    @raise Unix.Unix_error when the socket cannot be bound (e.g. a
    live daemon already owns [socket_path]). *)

val run_fleet : replicas:int -> config -> unit
(** [run_fleet ~replicas cfg] forks [replicas] daemon processes, each
    running {!run} on [shard_socket cfg.socket_path i] with [shard =
    Some (i, replicas)], and supervises them: SIGINT/SIGTERM to the
    parent is forwarded as SIGTERM to every replica (draining the
    whole fleet), and the call returns once all replicas have exited.
    Replicas share nothing in memory; give them one
    [scheduler.spill_dir] to make them behave as a single durable
    cache. [replicas = 1] degenerates to {!run} on [cfg] unchanged.
    All forks happen before any worker domain exists (an OCaml 5
    requirement), since every replica's scheduler spawns workers.
    @raise Invalid_argument when [replicas < 1].
    @raise Failure when any replica exits abnormally. *)
