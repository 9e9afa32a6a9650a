(** A domain's warm worker for the hashing-plus-SAT primitive that
    ApproxMC and UniGen share: BSAT on F ∧ (h = α) over one formula.

    A worker is one solver session, warmed by every call it serves,
    beside one cache of the witnesses found ({!Known}). A {!table}
    holds one worker per domain, created on the domain's first
    {!mine}, so no session or cache is ever shared between domains.
    UniGen keeps one table in each prepared state: ApproxMC counts on
    it, and each domain then draws on the worker it counted with, or
    on a fresh one if it did not count. The workers die with the
    state, or with their domain: a domain that exits (a shut-down
    pool's) takes its workers out of every table still alive, since
    domain ids are never reused.

    Cell outcomes do not depend on a worker's history: a cut cell
    reports min(|cell|, limit) and an exhausted cell is a set, so what
    the session learnt and what the cache holds change how much work a
    cell costs, never its result. *)

type t = { session : Sat.Bsat.Session.t; known : Known.t }

type table

val table : Cnf.Formula.t -> table
(** An empty table over the formula. Each worker it makes is a fresh
    session beside an empty cache. *)

val mine : table -> t
(** The calling domain's worker, made on its first call. A lock covers
    the table lookup only, never the making of a worker or its use. *)

(** The outcome of one draw cell. *)
type cell = {
  count : int;  (** min(|cell|, limit) *)
  exhausted : bool;  (** every witness of the cell is counted *)
  solved : Sat.Bsat.outcome option;
      (** the session's enumeration; [None] when the cache decided the
          cell. A timed-out enumeration leaves [count] and [exhausted]
          meaningless. *)
  reused : int;  (** witnesses taken from the cache instead of enumerated *)
  witnesses : Cnf.Model.t array option;
      (** on accept, the whole cell in canonical order *)
}

val draw_cell :
  ?deadline:float ->
  accept:(int -> bool) ->
  limit:int ->
  t ->
  Cnf.Xor_clause.t list ->
  cell
(** UniGen's cell step (lines 14–16 of the paper's algorithm) on the
    cell of the hash rows [xors]. [limit] cached members decide the
    cell as cut with no solver call. Otherwise the j cached members
    whose witness the cache kept are blocked and the session
    enumerates the rest of the cell with limit [limit - j]; the models
    it finds that are not members yet join the cache. An exhausted
    cell whose count satisfies [accept] is accepted, and its witnesses
    (the j reused ones and the found ones) are sorted canonically,
    which is the array a plain enumeration returns whenever the
    sampling set is an independent support.

    Under audit mode every cell decided with cached members is
    re-enumerated by a fresh solver and compared (invariant
    [known-cell]); an accepted cell's projections are compared too.

    ApproxMC does not use this step: its cells block every cached
    member, with or without a kept witness (see [Approxmc]). *)
