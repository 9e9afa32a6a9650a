(** Rule-engine API: a rule is a named, documented check with a
    severity and a phase — per-file (sees one tokenized source) or
    whole-repo (sees every source plus the design document, for
    cross-file checks like span pairing and the metric-name
    registry). Rules emit bare {!hit}s; the engine stamps them with
    the rule's name and severity to build {!Findings.t}s, so a rule
    cannot mislabel its own output. *)

(** One tokenized source file plus the per-file indexes every rule
    shares: the code-only token stream, the newline-offset table and
    the (lazily built) masked text. *)
type source = {
  path : string;  (** repo-relative, '/'-separated *)
  text : string;
  tokens : Token.t array;  (** full stream, comments included *)
  code : Token.t array;  (** comments dropped *)
  lines : Token.Lines.t;
  masked : string Lazy.t;
  mli_exists : bool;  (** a sibling [.mli] exists (repo scan) or is
                          declared (inline fixtures) *)
}

val load : ?mli_exists:bool -> path:string -> string -> source
(** Tokenize [text] once; [mli_exists] defaults to [false]. *)

type context = { sources : source list; design_doc : string option }

type hit = { file : string; line : int; message : string }

type phase = File of (source -> hit list) | Repo of (context -> hit list)

type t = {
  name : string;
  severity : Findings.severity;
  doc : string;  (** one-line rationale, surfaced in SARIF rule metadata *)
  phase : phase;
}

(** {2 Token-matching helpers}

    All operate on a [code] array (comments dropped). "Contiguous"
    means zero bytes between tokens, mirroring the old lint's
    substring semantics: [Hashtbl.create] matches, [Hashtbl . create]
    does not. *)

val is_word : Token.t -> string -> bool
(** The token is an [Ident]/[Uident] with exactly this text. *)

val prev_dotted : Token.t array -> int -> bool
(** The code token before index [i] is a ['.'] contiguous with token
    [i] — i.e. [i] is a qualified-path tail, not a path head. *)

val matches_qualified : Token.t array -> int -> string list -> bool
(** [matches_qualified code i ["Hashtbl"; "create"]]: the contiguous
    dotted path starting (as a head) at [i] is exactly these
    components. *)

val ends_qualified : Token.t array -> int -> string list -> int option
(** Like {!matches_qualified} but the path may carry extra leading
    qualifiers ([Parallel.Domain_pool.submit] ends with
    [["Domain_pool"; "submit"]]). Returns the index past the path's last
    token on a match. *)

val dotted_path_at : Token.t array -> int -> (string * int) option
(** The maximal contiguous dotted identifier path headed at [i]
    ([b.cancelled], [t.lock]) and the index past its last token;
    [None] when [i] is not an identifier head. *)

val item_starts : source -> int array
(** Indices into [code] where a top-level structure item begins: a
    column-0 [let]/[module]/[type]/[open]/[exception]/[external]/
    [include]/[val]. Rules use consecutive entries as lexical-scope
    boundaries ("same top-level item"). *)

val item_span : int array -> Token.t array -> int -> int * int
(** [(lo, hi)] code-index half-open range of the top-level item
    containing code index [i]. *)
