(** Sampling-safe CNF preprocessing.

    Ordinary SAT preprocessing only needs to preserve satisfiability;
    a preprocessor in front of a witness *sampler* must preserve the
    witness set — more precisely its projection on the sampling set,
    which is all UniGen ever looks at. Every transformation here is
    projection-preserving:

    - top-level unit propagation (forced assignments are recorded and
      re-applied when witnesses are extended back),
    - tautology and duplicate-literal removal,
    - duplicate-clause removal and (self-)subsumption,
    - bounded variable elimination (BVE) restricted to variables
      outside the sampling set: resolving a variable away replaces the
      formula by the projection of its witness set onto the remaining
      variables, so the projected witness set on S is untouched.

    The result carries enough bookkeeping ({!extend}) to lift a model
    of the simplified formula back to a model of the original formula
    — eliminated variables are re-derived with a unit-propagation +
    polarity-repair pass. *)

type result = {
  simplified : Cnf.Formula.t;
      (** same [num_vars] as the input; forced assignments are kept as
          unit clauses, eliminated variables become unconstrained (the
          projection on the sampling set is what is preserved) *)
  forced : (int * bool) list;  (** top-level forced assignments *)
  eliminated : int list;  (** variables removed by BVE, in order *)
  recovery : (int * int list list) list;
      (** per eliminated variable, its original clauses (DIMACS
          lists) — used by {!extend}; treat as opaque *)
  clauses_before : int;
  clauses_after : int;
}

val run :
  ?eliminate:bool ->
  Cnf.Formula.t ->
  (result, [ `Unsat ]) Result.t
(** Eliminating one variable may grow the clause count by at most 16
    (the "bounded" of BVE); [eliminate false] turns BVE off, leaving only the
    equivalence-preserving cleanups. Native XOR clauses are preserved
    untouched (variables occurring in XORs are never eliminated). *)

val extend : result -> Cnf.Model.t -> Cnf.Model.t
(** Lift a witness of [simplified] to a witness of the original
    formula (same [num_vars]): re-applies forced assignments and
    recovers eliminated variables.
    @raise Failure if the input is not actually a witness of the
    simplified formula. *)
