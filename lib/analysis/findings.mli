(** Structured lint findings: severity, location, message, allowlist
    status, plus the JSON rendering the lint has always emitted (now
    with a [severity] field). *)

type severity = Error | Warn | Info

type t = {
  rule : string;
  severity : severity;
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  message : string;
  allowlisted : bool;
}

val make :
  rule:string -> severity:severity -> file:string -> line:int -> string -> t

val compare : t -> t -> int
(** Sort key: file, then line, then rule, then message — a total,
    deterministic order so output is stable across runs. *)

val blocking : t -> bool
(** A finding fails the lint when it is not allowlisted and its
    severity is [Error] or [Warn]; [Info] findings are advisory. *)

val to_json : t -> string
(** One finding as a single-line JSON object. *)

val list_to_json : t list -> string
(** The findings array, matching the historical lint stdout format. *)
