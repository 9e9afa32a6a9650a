(** Leveled, structured JSON event log.

    One event = one line = one JSON object with leading [ts] (wall
    seconds since the epoch), [level] and [event] keys followed by the
    caller's typed fields — machine-parseable with any JSON reader and
    greppable by key, no multi-line framing. The sampling daemon emits
    one [service.request] line per finished request (trace id,
    fingerprint, outcome, queue/prepare/draw milliseconds, cache
    hit/miss, XOR engine), escalated to [warn] past the configured
    slow-request threshold.

    Like the rest of [lib/obs], the disabled path costs one atomic
    load per call site; enabling opens a sink ({!enable_stderr} or
    {!enable_file}) whose writes are serialised by a mutex and flushed
    per line (events are request-grained — an operator tailing the file
    must see a request as soon as it finishes). *)

type level = Debug | Info | Warn | Error

val enable_stderr : unit -> unit
(** Start logging to stderr. @raise Invalid_argument if a sink is
    already open. *)

val enable_file : string -> unit
(** Start logging to [path] (truncating).
    @raise Invalid_argument if a sink is already open.
    @raise Sys_error if the file cannot be opened. *)

val close : unit -> unit
(** Flush and release the sink (closing the channel only when this
    module opened it). Idempotent. *)

val is_enabled : unit -> bool

val set_level : level -> unit
(** Drop events below this level (default {!Info}: [Debug] events are
    compiled in but discarded). *)

val event : ?level:level -> string -> (string * Report.value) list -> unit
(** [event name fields] writes one line. [name] becomes the [event]
    key; [fields] follow in order. Safe from any domain. *)
