(** CNF formulas, possibly with native XOR constraints and a declared
    sampling set (independent support). *)

type t = {
  num_vars : int;
  clauses : Clause.t array;
  xors : Xor_clause.t array;
  sampling_set : int array option;
      (** Declared independent support (the [S] of the paper), if any.
          By convention this is what a [c ind] DIMACS line declares. *)
}

val create :
  ?sampling_set:int list -> num_vars:int -> Clause.t list -> t
(** Plain CNF. Raises [Invalid_argument] if a clause or the sampling
    set mentions a variable above [num_vars]. *)

val create_with_xors :
  ?sampling_set:int list ->
  num_vars:int ->
  Clause.t list ->
  Xor_clause.t list ->
  t

val add_clauses : t -> Clause.t list -> t
val add_xors : t -> Xor_clause.t list -> t

val with_sampling_set : t -> int list -> t
val sampling_vars : t -> int array
(** The declared sampling set, or all variables when none declared. *)

val num_clauses : t -> int

val eval : t -> (int -> bool) -> bool
(** Evaluate under a total assignment: clauses in order, then XORs,
    stopping at the first false one. The reference oracle for
    {!eval_bytes}. *)

val eval_bytes : t -> Bytes.t -> bool
(** [eval_bytes t b] is [eval t value] where [value v] is byte [v - 1]
    of [b] (['\000'] false, ['\001'] true; other bytes give an
    unspecified result), read in the same order and without a closure
    per variable ({!Clause.eval_bytes}, {!Xor_clause.eval_bytes}). The
    reads are bounds-checked: the record is public, so a variable above
    [num_vars] is possible, and one past the end of [b] raises
    [Invalid_argument] instead of reading outside the buffer. *)

val blast_xors : t -> t
(** Replace every native XOR by its CNF expansion over fresh variables
    (see {!Xor_clause.to_cnf}); the sampling set is preserved, and the
    fresh variables are dependent on the originals. Used by the
    reference solver and for the "no native XOR engine" ablation. *)

val pp : Format.formatter -> t -> unit
