(** Bounded model enumeration — the [BSAT(F, N)] subroutine of the
    paper: returns up to [N] distinct witnesses of [F].

    Distinctness (and the blocking clauses enforcing it) is measured
    on the [blocking_vars] projection, which defaults to the formula's
    sampling set. When the sampling set is an independent support this
    is exactly the paper's optimization of "blocking clauses restricted
    to variables in S": the enumerated witnesses are still pairwise
    distinct as full assignments, but the blocking clauses are short.
    Each blocking clause goes in through {!Solver.block}, so the search
    for the next witness resumes from the last model's trail instead
    of starting again from the root.

    Two entry points share the semantics: the one-shot {!enumerate}
    builds a fresh solver per call, while a {!Session.t} keeps one
    solver alive across calls, swapping XOR hash layers in and out via
    retractable constraint groups so that learnt clauses about the
    base formula are paid for once. The two paths return equal
    outcomes (models as sets, counts, exhaustion) on the same
    enumeration problem. *)

type outcome = {
  models : Cnf.Model.t list;
      (** in canonical (model-key) order — deliberately {e not}
          discovery order, so that the outcome is independent of
          solver history (fresh vs. warm session, serial vs.
          parallel schedule) whenever the witness set itself is *)
  exhausted : bool;  (** [true] iff no further witness exists *)
  timed_out : bool;  (** [true] iff the deadline interrupted the search *)
  stats : Solver.stats;  (** solver-statistics delta for the call *)
  reused : bool;
      (** [true] when served by a session that had already run at
          least one enumeration (a warm-start hit) *)
}

val enumerate :
  ?deadline:float ->
  ?blocking_vars:int array ->
  limit:int ->
  Cnf.Formula.t ->
  outcome
(** XOR constraints run on the solver's in-search Gauss-Jordan engine.

    Every returned model is verified against the formula; a violation
    (a solver soundness bug) raises [Audit.Violation] with invariant
    [model-audit]. With audit mode on, each witness is additionally
    checked against the accumulated blocking-clause set (invariant
    [blocking-set]): a repeated projection is reported instead of
    silently skewing the enumeration. *)

val count_upto : ?deadline:float -> limit:int -> Cnf.Formula.t -> int
(** [count_upto ~limit f] is [min (number of distinct projected
    witnesses) limit]; convenience wrapper over {!enumerate}. *)

(** Persistent enumeration sessions: one CDCL solver reused across
    many [BSAT(F ∧ h, N)] calls that share the base formula [F] and
    vary only the XOR hash layer [h]. *)
module Session : sig
  type t

  val create : ?blocking_vars:int array -> Cnf.Formula.t -> t
  (** Load the base formula once. [blocking_vars] defaults to the
      formula's sampling set and is fixed for the session's lifetime.
      An XOR-layer swap is a push/pop of the Gauss engine's matrix. *)

  val enumerate :
    ?deadline:float ->
    ?xors:Cnf.Xor_clause.t list ->
    ?known:bool array list ->
    limit:int ->
    t ->
    outcome
  (** Enumerate up to [limit] witnesses of [base ∧ xors] whose
      projections are not among [known]. Each element of [known]
      assigns the session's {!blocking_vars}, in that order, and is
      excluded by a blocking clause, so the outcome is what a call
      without [known] would return with those projections removed
      (exhausted iff the rest of the cell has fewer than [limit]
      witnesses). The XOR layer, the [known] clauses and the blocking
      clauses are pushed as one retractable group and popped before
      returning, so successive calls see the unmodified base formula
      plus whatever the solver learnt about it.
      @raise Invalid_argument when a [known] array's length differs
      from the number of blocking variables. *)

  val calls : t -> int
  (** Number of [enumerate] calls served so far. *)

  val stats : t -> Solver.stats
  (** Cumulative statistics of the underlying solver. *)

  val formula : t -> Cnf.Formula.t
  val blocking_vars : t -> int array
end
