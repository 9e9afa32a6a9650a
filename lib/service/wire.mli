(** Wire protocol of the sampling daemon.

    {2 Framing}

    A frame is a 4-byte big-endian unsigned payload length followed by
    that many bytes of UTF-8 JSON. Frames larger than {!max_frame}
    bytes are a protocol error (the daemon closes the connection
    rather than buffering unboundedly). A connection carries any
    number of frames in each direction; the daemon answers sample
    requests in {e scheduling} order, which round-robins across
    formulas, so responses to one connection may be reordered relative
    to its submissions — each response carries the request's [tag]
    when one was given.

    {2 Requests}

    {v
    {"op":"sample","formula":"p cnf ...","n":10,"seed":7,
     "prepare_seed":1,"epsilon":6.0,"timeout_ms":30000,
     "max_attempts":20,"tag":"job-1","trace_id":"abc"}
    {"op":"cancel","tag":"job-1"}
    {"op":"status"}
    {"op":"metrics"}
    {"op":"shutdown"}
    v}

    {2 Responses}

    [{"status":"ok",...}] with witnesses as arrays of signed DIMACS
    literals and the request's (client-supplied or server-minted)
    [trace_id], [{"status":"rejected","reason":...,"retry_after_ms":...}]
    (admission backpressure), ["deadline_miss"], ["cancelled"],
    ["cancel_result"], ["unsat"], ["error"], ["metrics"] (lifetime
    counters plus provenance strings), ["window_report"] (last-minute
    rolling rates and percentiles, per formula fingerprint — the
    [metrics] op's answer, polled by [unigen monitor]), ["bye"]. *)

val max_frame : int
(** 64 MiB. *)

val encode_frame : string -> string
(** Payload with its length prefix. *)

exception Frame_error of string

(** Incremental frame extraction, for the daemon's non-blocking reads. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed d buf n] appends the first [n] bytes of [buf]. *)

  val next : t -> string option
  (** The next complete payload, if one is buffered.
      @raise Frame_error on an oversized or negative length prefix. *)

  val buffered : t -> int
  (** Bytes currently held, including incomplete frames. *)
end

val read_frame : Unix.file_descr -> string option
(** Blocking read of one whole frame; [None] on orderly EOF at a
    frame boundary. @raise Frame_error on a truncated or oversized
    frame. For the client and tests; the daemon uses {!Decoder}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking write of one whole frame. *)

(** {2 Protocol values} *)

type sample_req = {
  formula_text : string;  (** DIMACS text, [c ind] and [x] lines included *)
  n : int;
  seed : int;  (** draw-stream seed: witness [i] comes from stream [(seed, i)] *)
  prepare_seed : int;
      (** preparation (ApproxMC) seed, default 1 — kept separate from
          [seed] so requests differing only in draw seed share one
          cached preparation *)
  epsilon : float;
  count_iterations : int option;
  timeout_s : float option;  (** request deadline, relative to admission *)
  max_attempts : int;
  tag : string option;  (** client-chosen id, echoed in the response *)
  trace_id : string option;
      (** correlation id threaded through every span and log line the
          request produces server-side; minted by the scheduler
          ([req-<id>]) when absent *)
}

val default_sample_req : sample_req
(** [n = 1], [seed = 1], [prepare_seed = 1], [epsilon = 6.0],
    [max_attempts = 20], everything else empty. *)

type request =
  | Sample of sample_req
  | Cancel of string  (** by tag *)
  | Status
  | Window  (** op ["metrics"]: rolling-window telemetry report *)
  | Shutdown

type reject_reason = Queue_full | Batch_too_large | Draining

type cache_source = Cache_miss | Cache_ram | Cache_disk
    (** where the request's prepared state came from: a fresh
        preparation, the in-memory LRU, or a disk-warm load from the
        durable store ([--spill-dir]) *)

val cache_source_to_string : cache_source -> string
(** ["miss"] / ["hit"] / ["disk"] — the wire encoding ([Cache_ram]
    keeps the historical ["hit"] so clients older than the disk tier
    still parse). *)

type sample_ok = {
  fingerprint : string;
  cache : cache_source;
  witnesses : int list list;
      (** one inner list per produced witness: signed DIMACS literals
          over the formula's variables, ascending — identical to
          [Cnf.Model.to_dimacs] of the offline [Unigen.sample_batch]
          models for the same seeds *)
  produced : int;
  requested : int;
  queue_wait_s : float;
  rsp_tag : string option;
  rsp_trace_id : string;
      (** the id every server-side span and log line of this request
          carries — grep the event log or the Chrome trace for it *)
}

type fp_window = {
  fp : string;
  fp_requests : int;
  fp_hits : int;  (** prepared-state cache hits in the window *)
  fp_misses : int;
  fp_p50_ms : float;
  fp_p90_ms : float;
  fp_p99_ms : float;
}
(** One fingerprint's slice of the rolling window. *)

type window_report = {
  window_s : float;  (** widest interval the rolling window can cover *)
  uptime_s : float;
  jobs : int;
  w_in_flight : int;
  w_queued : int;
  ocaml_version : string;
  w_requests : int;  (** requests finished inside the window *)
  rate_per_s : float;
  w_deadline_misses : int;
  w_hits : int;
  w_misses : int;
  p50_ms : float;  (** request-latency percentiles over the window *)
  p90_ms : float;
  p99_ms : float;
  queue_p50_ms : float;  (** queue-wait percentiles over the window *)
  queue_p90_ms : float;
  queue_p99_ms : float;
  per_fp : fp_window list;  (** busiest fingerprints first *)
}
(** Answer to the [metrics] op: what the daemon did over the last
    minute or two (see {!Obs.Window}), plus enough provenance to
    render a monitoring header. Percentiles are factor-of-2 estimates
    from the log₂ histograms. *)

type response =
  | Ok_sample of sample_ok
  | Rejected of { reason : reject_reason; retry_after_s : float }
  | Deadline_miss of { rsp_tag : string option }
  | Cancelled of { rsp_tag : string option }
  | Cancel_result of bool
  | Unsat of { rsp_tag : string option }
  | Error_msg of string
  | Metrics of { values : (string * float) list; info : (string * string) list }
      (** lifetime counters/gauges/percentiles plus provenance strings
          (ocaml_version, spill_dir) — the [status] op's answer *)
  | Window_report of window_report
  | Bye

val request_to_json : request -> Json.t
val request_of_json : Json.t -> request
(** Fields a request does not define (such as the [pin] flag older
    clients send) are ignored.
    @raise Json.Decode_error on an unknown op, a missing field or a
    [count_iterations] below 1. *)

val response_to_json : response -> Json.t
val response_of_json : Json.t -> response

val reject_reason_to_string : reject_reason -> string
