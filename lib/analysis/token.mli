(** Lexical token stream for the static analyzer.

    A small, dependency-free scanner for the subset of OCaml lexical
    structure the lint rules care about: identifiers (lowercase and
    capitalized), numeric literals, the three string-literal forms
    ([".."], [{|..|}], [{id|..|id}]), character literals, nesting
    comments (with strings-inside-comments handled per the manual),
    and single-character operator/punctuation tokens. Every token
    carries its byte offset, length and 1-based line, so rules report
    precise positions without rescanning the source.

    This replaces the old lint's ad-hoc substring scans and its
    [mask_source] masker, which did not understand quoted strings — a
    ["*)"] or ["\""] inside [{|...|}] desynchronized masking for the
    rest of the file. The tokenizer lexes quoted strings properly, so
    {!mask} stays aligned (see the regression fixtures in
    [test/test_analysis.ml]). *)

(** Newline-offset index: byte offset -> line in O(log lines), built
    once per file instead of the old O(n) rescans per finding (which
    were quadratic over files with many findings). *)
module Lines : sig
  type t

  val make : string -> t

  val line_of : t -> int -> int
  (** 1-based line containing byte offset [pos]. *)

  val bol_of : t -> int -> int
  (** Byte offset of the beginning of the line containing [pos]. *)

  val count : t -> int
end

type kind =
  | Ident of string  (** lowercase identifier or keyword *)
  | Uident of string  (** capitalized identifier *)
  | Number of string  (** integer or float literal *)
  | String of string  (** ["..."]: contents, escapes unprocessed *)
  | Quoted of string  (** [{id|...|id}]: contents *)
  | Char of string  (** char literal, contents between the quotes *)
  | Comment of string  (** [(* ... *)] including nested, full text *)
  | Op of char  (** single operator / punctuation character *)

type t = { kind : kind; off : int; len : int; line : int }

val scan : string -> t array * Lines.t
(** Tokenize the whole source. Comments appear in the stream (rules
    that only want code use {!code}). Unterminated literals or
    comments extend to end of input rather than raising: lint input is
    arbitrary work-in-progress source. *)

val code : t array -> t array
(** The stream with [Comment] tokens dropped. *)

val mask : string -> t array -> string
(** The source with every comment, string, quoted-string and char
    literal blanked to spaces (newlines preserved so offsets and line
    numbers survive). Byte-compatible with the old lint's
    [mask_source] on sources without quoted strings, and — unlike it —
    correct on sources with them. *)
