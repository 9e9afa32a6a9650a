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
    while a cold preparation runs. The worker pool's completion self-pipe
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
}

val default_config : socket_path:string -> config
(** {!Scheduler.default_config} and a silent [log]. *)

val run : config -> unit
(** Bind, listen and serve until a graceful shutdown. Calls
    [Obs.Metrics.enable] so the [status] op always reports live
    counters, and replaces the process's SIGINT/SIGTERM/SIGPIPE
    handlers for the duration, restoring them on exit.
    @raise Unix.Unix_error when the socket cannot be bound (e.g. a
    live daemon already owns [socket_path]). *)
