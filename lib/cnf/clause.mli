(** Disjunctive clauses over {!Lit.t}. *)

type t = Lit.t array
(** A clause is an array of literals, interpreted as their disjunction.
    The empty clause is unsatisfiable. *)

val of_list : Lit.t list -> t
val of_dimacs : int list -> t
val to_dimacs : t -> int list

val normalize : t -> t option
(** Sort, remove duplicate literals; [None] if the clause is a
    tautology (contains both polarities of some variable). *)

val is_tautology : t -> bool

val eval : (int -> bool) -> t -> bool
(** [eval value c] evaluates [c] under the total assignment [value]
    (mapping variable to truth value). *)

val eval_bytes : Bytes.t -> t -> bool
(** [eval_bytes b c] is [eval value c] where [value v] is byte [v - 1]
    of [b], ['\000'] false and ['\001'] true; other bytes give an
    unspecified result. Literals are read left to right up to the first
    true one, as {!eval} does. Raises [Invalid_argument] when a literal
    read names a variable past the end of [b]. *)

val vars : t -> int list
(** Variables occurring in the clause, deduplicated, ascending. *)

val max_var : t -> int
(** 0 for the empty clause. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
