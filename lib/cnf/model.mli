(** Total truth assignments (witnesses).

    Representation contract: a model holds one byte per variable
    (['\000'] false, ['\001'] true) in ascending variable order. A
    model over exactly the variables [1 .. n] — every model a solver
    returns — is {e contiguous} and stores no variable list; any other
    model (from {!restrict}) keeps its sorted variable list. The
    representation is invisible through this interface: {!key},
    {!to_dimacs} and {!equal} depend only on the variables and their
    values. *)

type t
(** An assignment to variables [1 .. n]. *)

val make : int -> (int -> bool) -> t
(** [make n value] tabulates [value] over [1 .. n]. *)

val of_bool_array : bool array -> t
(** The array is indexed from 0 with slot [v] holding variable [v+1]. *)

val num_vars : t -> int
val value : t -> int -> bool

val restrict : t -> int array -> t
(** Projection onto a variable subset: returns a packed assignment
    whose key (see {!key}) identifies the projected witness. The
    projected model still answers {!value} for the selected variables
    and raises [Invalid_argument] for others. *)

val prefix : t -> int -> t
(** [prefix t n] is [restrict t [|1; ...; n|]]. On a contiguous model
    it copies the first [n] value bytes (and returns [t] itself when
    [n = num_vars t]). *)

val key : t -> string
(** A canonical byte string identifying the assignment (used to
    deduplicate and histogram witnesses): each variable's decimal name
    followed by [','], then ['|'], then the values packed eight to a
    byte, first variable in the most significant bit, with a final
    partial byte holding the remaining bits in its low end. Two models
    over the same variable set have equal keys iff they agree on every
    variable. *)

val compare : t -> t -> int
(** A total order with the same sign as
    [String.compare (key a) (key b)], computed without building keys
    when [a] and [b] range over the same variables: it is then the
    lexicographic order of their values, in ascending variable order
    ([false] before [true]). Models over different variable sets fall
    back to comparing keys. *)

val packed_bytes : t -> int
(** [⌈num_vars t / 8⌉]: the bytes {!pack} writes. *)

val pack : t -> (int -> int -> unit) -> unit
(** [pack t set] calls [set i byte] for each [i < packed_bytes t], in
    order, where bit [b] of [byte] is the value of the model's
    [(8 * i + b)]-th variable in ascending order. It reads the value
    bytes in one pass. *)

val unpack : int -> (int -> int) -> t
(** [unpack n byte] is the model over [1 .. n] whose variable [v] is
    bit [(v - 1) mod 8] of [byte ((v - 1) / 8)]: the inverse of
    {!pack} on a model over [1 .. n]. *)

val to_dimacs : t -> int list
(** Signed-integer rendering over the model's variables, ascending. *)

val satisfies : Formula.t -> t -> bool
(** Checks the model against every clause and XOR of the formula.
    Raises [Invalid_argument] when the formula needs a variable the
    model does not assign.

    Dispatch: a contiguous model (every model a solver returns) with at
    least [num_vars f] variables is read as a byte buffer by
    {!Formula.eval_bytes}; any other model (projected, or short of the
    formula's width) goes to {!Formula.eval} over {!value}, whose
    error names the first variable missing ([Model.value: variable 3
    absent]). Both give the same answer on the same model. *)

(** {2 Incremental check}

    Consecutive witnesses of one enumeration differ in a few
    variables, so a witness known to satisfy a formula vouches for
    every clause and XOR that no changed variable touches. *)

type occurrences
(** For each variable of one formula, the clauses and the XORs that
    contain it. *)

val occurrences : Formula.t -> occurrences
(** Build the occurrence lists (linear in the formula's size). *)

val indexed : occurrences -> Formula.t
(** The formula the lists were built from. *)

val satisfies_after :
  occurrences -> layer:Xor_clause.t list -> prev:t -> t -> bool
(** [satisfies_after o ~layer ~prev t], where [prev] satisfies
    [indexed o] and every XOR of [layer], is
    [satisfies (Formula.add_xors (indexed o) layer) t]:
    it re-reads only the clauses and XORs of [indexed o] that contain a
    variable on which [t] and [prev] differ, and every XOR of [layer]
    whole. Models that are not contiguous, or narrower than the
    formula, get the full check. Without the precondition on [prev]
    the answer means nothing. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
