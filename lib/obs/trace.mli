(** Structured tracing: begin/end spans emitted as Chrome
    [trace_event] JSON, loadable in [chrome://tracing] or Perfetto.

    The default sink is a no-op: {!span} costs one atomic load and a
    tail call until {!enable_file} opens a real sink, so instrumented
    code can stay instrumented unconditionally. Every completed span is
    also fed to {!Metrics.add_span} (when metrics are enabled), which
    is where per-phase wall time in reports comes from — tracing and
    metrics can be switched on independently.

    Events carry [pid] 0 and the emitting domain's id as [tid], so a
    [--jobs N] run renders as one lane per worker domain. Timestamps
    come from {!now_us}, a process-wide monotone non-decreasing clock
    (microsecond resolution) shared by every domain. Writes are
    serialised by a sink mutex — spans are solver-call-grained, not
    per-propagation-grained, so contention is negligible.

    {b Request correlation}: the service wraps each request's
    execution in {!with_trace_id}; every event emitted underneath, on
    any domain, then carries the id as a [trace_id] arg — one query in
    the trace viewer surfaces a request's whole queue → prepare → draw
    lifecycle across lanes. *)

val enable_file : string -> unit
(** Open [path] as the trace sink (truncating) and start emitting.
    Call before spawning worker domains so their lifecycle spans are
    captured. @raise Sys_error if the file cannot be opened. *)

val is_enabled : unit -> bool

val close : unit -> unit
(** Terminate the JSON array and close the sink. Idempotent; a no-op
    when tracing was never enabled. Call after worker domains have
    been joined (in-flight spans after [close] degrade to metrics-only
    recording). *)

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a begin/end event pair named
    [name] (category [cat], default ["pipeline"]; [args] become the
    event's ["args"] object). The end event is emitted — and the
    duration fed to {!Metrics.add_span} — whether [f] returns or
    raises; exceptions are re-raised with their original backtrace. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event (phase ["i"]). *)

val span_begin : ?cat:string -> ?args:(string * string) list -> id:string -> string -> unit
(** Open an {e async} span ([ph] ["b"]): unlike {!span} the matching
    {!span_end} may come from a different call site or domain, so a
    phase without a lexical scope (e.g. a request's queue wait between
    admission and dispatch) still renders as one bar. Chrome pairs the
    two ends by (category, [id], name); use the request's trace id as
    [id]. Every [span_begin] name literal must have a {!span_end} site
    — [bin/lint.ml]'s [unmatched-span] rule enforces this. *)

val span_end : ?cat:string -> ?args:(string * string) list -> id:string -> string -> unit
(** Close the async span opened by {!span_begin} with the same
    (category, [id], name). *)

val with_trace_id : string option -> (unit -> 'a) -> 'a
(** [with_trace_id (Some id) f] makes [id] the calling domain's
    ambient trace id while [f] runs (restored on return or raise, so
    nesting is safe): every event emitted by this domain inside [f]
    gains a [trace_id] arg. [with_trace_id None f] clears it. Purely
    domain-local — a worker executing a request on another domain must
    wrap its own execution. *)

val now_us : unit -> float
(** The clock used for event timestamps, in microseconds: wall time
    clamped through a process-wide high-water mark, so consecutive
    readings never decrease even if the system clock steps
    backwards. *)
