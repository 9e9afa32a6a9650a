(** A cache of projections onto a formula's sampling set S, each the
    projection of a witness the caller has found, used to decide hashed
    cells without a solver call. ApproxMC keeps one per count and
    domain, UniGen one per prepared state and domain.

    Members are stored bit-sliced (one bitset over the members per
    variable of S), so an XOR row over S is evaluated on
    [Sys.int_size] members per word operation. A cache belongs to one
    domain.

    The cache is bounded with no knob: its columns never exceed
    2{^ 18} words, so |S| x members ≤ 2{^ 24} bits (2 MiB on a 64-bit
    host; about 917 k members at |S| = 18). Once full it ignores
    {!add}; every decision made from it stays exact, it only holds
    fewer members than it could. *)

type t

val create : Cnf.Formula.t -> t
(** An empty cache over the formula's sampling set. *)

val size : t -> int
(** Members held. *)

val capacity : t -> int
(** The most members the bound admits for this sampling set. *)

val add : t -> Cnf.Model.t -> unit
(** Append the model's projection onto S as a new member; a no-op once
    the cache holds {!capacity} members. The caller guarantees that the
    projection is not a member yet (for instance because the members it
    could equal were blocked in the enumeration that found the model). *)

val add_new : t -> among:int list -> Cnf.Model.t list -> unit
(** {!add} each model whose projection equals none of the members
    [among]. The models must have distinct projections. With [among]
    the full list {!in_cell} returned for a cell (its count stayed
    below the limit) and models inside that cell, the members stay
    distinct. *)

val values : t -> int -> bool array
(** Member [r] as the values of S's variables, in S's order (the form
    [Sat.Bsat.Session.enumerate ~known] takes). *)

val in_cell : t -> limit:int -> Cnf.Xor_clause.t list -> int list * int
(** [in_cell t ~limit xors] is [(members, k)]: the members whose
    projection satisfies every XOR row of [xors] (rows over S only),
    counting up to [limit] of them, and [k = List.length members]. When
    [k < limit] the list holds every member in the cell. *)

val audit_cell :
  ?deadline:float ->
  who:string ->
  limit:int ->
  known:int ->
  Cnf.Formula.t ->
  Cnf.Xor_clause.t list ->
  int * bool ->
  unit
(** [audit_cell ~who ~limit ~known f xors (count, exhausted)] checks a
    cell decided with [known] cached members: a fresh one-shot
    enumeration of [f] with [xors] and limit [limit] must return
    [count] witnesses and the same [exhausted] flag, else it raises
    [Audit.Violation] with invariant [known-cell], naming [who]. A
    fresh enumeration that times out checks nothing. *)
