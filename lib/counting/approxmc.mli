(** ApproxMC — the (ε, δ) approximate model counter of Chakraborty,
    Meel, Vardi (CP 2013), re-implemented from the published
    pseudocode. UniGen invokes it (line 9 of Algorithm 1) with
    tolerance 0.8 and confidence 0.8 to locate the candidate range of
    hash sizes.

    Guarantee: Pr[ |R_F|/(1+ε) ≤ estimate ≤ (1+ε)·|R_F| ] ≥ 1 − δ.

    Counting is performed over the formula's sampling set (the
    projection); when the sampling set is an independent support this
    equals the full model count, which is how UniGen uses it. *)

type result = {
  estimate : float;  (** the median-of-iterations estimate of |R_F| *)
  log2_estimate : float;
  exact : bool;
      (** [true] when the formula was small enough that the count is
          exact (enumeration finished below the pivot). *)
  core_iterations : int;  (** successful ApproxMCCore runs *)
  failed_iterations : int;
  solver_stats : Sat.Solver.stats;
      (** aggregate CDCL statistics over every BSAT call of the count *)
  reuse_hits : int;
      (** BSAT calls served by a warm solver session (0 in the exact
          easy case); cells decided from cached projections make no
          call and are not counted *)
}

type error = Unsat | Timed_out

val pivot_of_epsilon : float -> int
(** ⌈ 2·e^(3/2)·(1 + 1/ε)² ⌉ — the cell-size threshold of the CP 2013
    analysis. *)

val iterations_of_delta : float -> int
(** ⌈ 35·log2(3/δ) ⌉ — the number of median iterations. *)

val count :
  ?deadline:float ->
  ?iterations:int ->
  ?pool:Parallel.Domain_pool.t ->
  rng:Rng.t ->
  epsilon:float ->
  delta:float ->
  Cnf.Formula.t ->
  (result, error) Result.t
(** Each ApproxMCCore iteration runs on one persistent solver
    session, reused across all hash sizes [i] with only the XOR layer
    swapped, so base-formula clauses are learnt once per iteration
    instead of once per hash size.

    The count keeps a cache of the solutions it has found, as packed
    bitsets of their projections onto the sampling set (a bounded
    {!Known} cache), for the length of the call: one per domain that
    runs iterations, each seeded with the easy check's pivot + 1
    witnesses. A drawn cell is first measured against the cache: with
    k >= pivot + 1 cached members it is decided as cut without a
    solver call; otherwise the session enumerates it with those k
    projections blocked and a limit of pivot + 1 - k, and the new
    witnesses join the cache. Either way the cell's outcome
    (min(|cell|, pivot + 1), exhausted) is the one a plain enumeration
    gives, and the hash draws are unchanged, so every estimate is the
    same with or without the cache. Under audit mode every cell that
    used cached projections is re-enumerated by a fresh solver and compared
    (invariant [known-cell]).

    Each core iteration searches the hash size upwards from 1; the
    CP 2013 "leapfrogging" heuristic, which starts near the previous
    success, is not offered because it voids the guarantee (the UniGen
    paper disables it too).
    [iterations] overrides {!iterations_of_delta} (used by benches to
    trade confidence for time; the default is the faithful value).

    The median loop has one discipline: one master seed is drawn from
    [rng], iteration [i] runs on the private stream [(master, i)] (see
    {!Rng.of_stream}), and the median is taken over the index-ordered
    results. Without [pool] the iterations run on the calling domain;
    with [pool] they run across its workers. Because each iteration is
    an independent XOR-hashed count, the estimate is a pure function
    of [rng]'s state — identical with no pool and on a pool of any
    size.
    @raise Invalid_argument when [iterations < 1]. *)
