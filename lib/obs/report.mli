(** Structured run summaries: the machine- and human-readable end of
    the observability layer.

    A report is an ordered list of named sections of typed fields,
    renderable as aligned text ({!pp}) or JSON ({!to_json},
    {!write_json}). Callers build domain sections (run accounting,
    solver counters, estimator output) and append
    {!metrics_sections}, which converts a {!Metrics.snapshot} into a
    ["metrics"] counter section and a ["phases"] per-span wall-time
    breakdown — the replacement for the hand-rolled [--stats]
    printers. Every report carries a ["host"] section (core count,
    OCaml version, word size) so numbers stay interpretable across
    machines. *)

type value = Int of int | Float of float | Bool of bool | String of string

type section = { title : string; fields : (string * value) list }

type t

val create : ?host:bool -> unit -> t
(** Fresh report; with [host] (default [true]) the ["host"] section is
    included first. *)

val add_section : t -> string -> (string * value) list -> unit
(** Append a section (empty field lists are dropped). *)

val sections : t -> section list

val phase_fields : Metrics.snapshot -> (string * value) list
(** One field per span-time histogram: total seconds spent under that
    span name (the per-phase wall-time breakdown). Names are the span
    names; values are [Float] seconds. *)

val metrics_sections : Metrics.snapshot -> (string * (string * value) list) list
(** [("metrics", counters-and-gauges); ("phases", per-phase seconds);
    ("phase_calls", per-phase call counts)] — sections with no content
    are omitted. *)

val pp : Format.formatter -> t -> unit
(** Text rendering, one ["c <section>.<field> = <value>"]-style line
    per field, suitable for DIMACS comment streams. *)

val to_json : t -> string
(** The report as one JSON object: [{"section": {"field": value, …},
    …}], sections in insertion order. *)

val write_json : string -> t -> unit
(** [write_json path r] writes {!to_json} (plus a trailing newline)
    to [path]. *)

val json_of_fields : (string * value) list -> string
(** A bare JSON object for one field list — lets external writers
    (e.g. the bench harness's hand-assembled files) embed report
    fragments. *)
