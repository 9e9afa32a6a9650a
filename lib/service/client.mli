(** Blocking client for the sampling daemon. *)

type t
(** One open connection. *)

exception Protocol_error of string
(** The daemon closed mid-frame or sent undecodable JSON. *)

val connect : socket_path:string -> t
(** @raise Unix.Unix_error when the daemon is not reachable. *)

val close : t -> unit

val request : t -> Wire.request -> Wire.response
(** Send one request and block for the next response frame. Sample
    responses arrive in daemon scheduling order; when interleaving
    requests on one connection, distinguish them by [tag]. *)

val with_connection : socket_path:string -> (t -> 'a) -> 'a

val call : socket_path:string -> Wire.request -> Wire.response
(** Connect, {!request}, close. *)

val with_retry :
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  rng:Rng.t ->
  (unit -> Wire.response) ->
  Wire.response
(** Run [f] (typically a {!call}) up to [max_attempts] times (default
    5), retrying on [Rejected] responses and on transient transport
    failures (connection refused/reset, missing socket, broken pipe,
    {!Protocol_error} — a daemon restarting under the client). Each
    retry sleeps the larger of the scheduler's [retry_after_s] hint —
    the EWMA-priced backlog estimate — and a capped exponential
    backoff from [base_delay_s] (default 50 ms, doubling, capped at
    [max_delay_s], default 2 s), jittered over [0.5×, 1×] by draws
    from [rng] so simultaneous clients de-synchronise
    deterministically. The final attempt's response (or exception)
    surfaces unchanged.
    @raise Invalid_argument when [max_attempts < 1]. *)
