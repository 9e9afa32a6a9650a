(** The repository's one JSON codec.

    Every JSON document the code writes goes through the escaping rule
    here: the daemon's length-prefixed protocol and spill files print
    whole {!t} values, while the event log, traces, metrics reports
    and lint output keep their own layouts and call {!escape_into} for
    each string. Stdlib-only, like the rest of the repository.
    Numbers distinguish integers from floats so witness literals
    survive a round trip exactly; parsing accepts any JSON number and
    yields [Int] whenever the text is an exact integer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Decode_error of string

val escape_into : Buffer.t -> string -> unit
(** [escape_into buf s] appends the body of a JSON string literal for
    [s] (without the surrounding quotes). A double quote and a
    backslash are escaped, newline, carriage return and tab print as
    [\n], [\r] and [\t], other bytes below 0x20 as [\u00XX]; every
    other byte, including non-ASCII UTF-8, is copied as is. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace), stable member
    order (insertion order of the [Obj] list). A [Float] always prints
    with a fraction or exponent, so it parses back as a [Float]; NaN
    and the infinities print as [null]. *)

val max_depth : int
(** Arrays and objects nested deeper than this are rejected by
    {!of_string}: 64, far above the 3 levels the code itself writes. *)

val of_string : string -> t
(** Strict parser: rejects trailing garbage, unterminated strings,
    malformed escapes, lone UTF-16 surrogates, numbers outside the RFC
    8259 grammar (such as [+1], [.5], [01] or [1.]) and nesting deeper
    than {!max_depth}. [\uXXXX] escapes (and surrogate pairs) decode
    to UTF-8. Integers beyond [max_int] parse as [Float].
    @raise Decode_error on any syntax error. *)

(** {2 Decoding helpers}

    All raise {!Decode_error} with the offending key in the message,
    so protocol errors surface as structured [error] responses rather
    than [Match_failure]s. *)

val member : string -> t -> t option
(** [member k (Obj _)] — [None] when absent or when the value is not
    an object. *)

val get_string : string -> t -> string
val get_int : string -> t -> int
val get_float : string -> t -> float
(** [get_float] accepts both [Int] and [Float] members. *)

val get_bool : string -> t -> bool
(** A missing or [null] member reads [false]. *)

val opt_int : string -> t -> int option
val opt_float : string -> t -> float option
val opt_string : string -> t -> string option
val get_list : string -> t -> t list
val to_int : t -> int
(** @raise Decode_error when the value is not an [Int]. *)
