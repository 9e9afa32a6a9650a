(** UniGen (Algorithm 1 of the paper): an almost-uniform generator of
    SAT witnesses.

    Guarantee (Theorem 1): if the sampling set is an independent
    support of [F] and ε > 1.71, then for every witness y,

      1/((1+ε)(|R_F|−1)) ≤ Pr[output = y] ≤ (1+ε)/(|R_F|−1),

    and the success probability is at least 0.62.

    The expensive preparation (lines 1–11: κ/pivot computation, the
    easy-case enumeration, the ApproxMC call and the derivation of the
    candidate hash-size range q−3..q) runs once per formula in
    {!prepare}; each draw ({!sample_index}, {!sample_batch}) then only
    executes lines 12–22. Unlike UniWit's "leapfrogging", this
    amortisation is part of the algorithm and sacrifices no
    guarantee. *)

type prepared

type prepare_error =
  | Unsat_formula
  | Prepare_timeout
  | Count_failed  (** ApproxMC could not produce an estimate *)

val prepare :
  ?deadline:float ->
  ?count_iterations:int ->
  ?pool:Parallel.Domain_pool.t ->
  rng:Rng.t ->
  epsilon:float ->
  Cnf.Formula.t ->
  (prepared, prepare_error) Result.t
(** Runs lines 1–11. The formula's sampling set is used as the set [S]
    of sampling variables; it must be an independent support for the
    uniformity guarantee (this is not checked here — see
    {!Sat.Indsupport} for a checker).
    [count_iterations] overrides the ApproxMC median-iteration count
    (tolerance 0.8 and confidence 0.8 are fixed by the algorithm).
    The easy case's enumeration (limit ⌊hiThresh⌋ + 1, or ApproxMC's
    pivot + 1 when that is larger) also serves as the count's easy
    check, so the formula is enumerated once.
    Every hashed BSAT call — in the ApproxMC count and later in each
    draw — runs on a domain's warm worker ({!Counting.Warm}). The
    workers belong to the prepared state and are freed with it: a
    domain draws on the worker it counted with, and a domain that did
    not count starts a fresh one.
    [pool] parallelises the ApproxMC counting iterations (each is an
    independent XOR-hashed count on its own stream); the preparation is
    the same with or without it. See {!Counting.Approxmc.count}.
    @raise Invalid_argument when [epsilon <= 1.71], or when the count
    runs and [count_iterations < 1]. *)

(** {2 Drawing witnesses}

    One attempt runs lines 12–22 once: it picks a hash size in q−3..q,
    a random hash and cell, enumerates the cell, and returns a
    uniformly chosen witness if the cell size lies within
    [loThresh, hiThresh]. A [Cell_failure] is the algorithm's ⊥, and a
    draw retries it up to [max_attempts] times. Every attempt is
    counted in the draw's {!Sampler.run_stats}, so the success
    probability of Table 1 is [samples_produced / samples_requested]
    whatever [max_attempts] is.

    Each cell goes through the drawing domain's warm worker,
    {!Counting.Warm.draw_cell} with limit ⌊hiThresh⌋ + 1. On a domain
    that counted while preparing the state, its session and its cache
    of found witnesses are the ones the count left; elsewhere they
    start fresh and empty, as on every domain of an {!import}ed state
    (the workers live in RAM only). Cell sizes, exhaustion and (whenever S is an independent support)
    the witness set are those of a plain enumeration, and the hash and
    witness draws are unchanged, so the outcome does not depend on
    what the cache held.

    Leaf-level sampling is embarrassingly parallel: after {!prepare},
    each sample only re-runs lines 12–22 against an independently drawn
    hash, so drawing a batch across N domains weakens nothing in
    Theorem 1. The seeding discipline makes draws reproducible:
    sample [i] consumes the private stream [Rng.of_stream ~seed i],
    a pure function of [(seed, i)], so the outcome array is
    {e bit-identical} on every pool and with none (only elapsed wall
    clock changes). *)

val sample_index :
  ?deadline:float ->
  ?max_attempts:int ->
  seed:int ->
  prepared ->
  int ->
  Sampler.outcome * Sampler.run_stats
(** [sample_index ~seed t i] draws the [i]-th sample of the batch keyed
    by [seed]: retries on [Cell_failure] up to [max_attempts] (default
    10) within stream [(seed, i)], and returns the outcome together
    with the private stats of this one sample (not yet merged into
    [stats t]; merge it with {!Sampler.merge_into} to keep a running
    account). Deterministic given [(seed, i)] and the preparation. *)

val sample_batch :
  ?deadline:float ->
  ?max_attempts:int ->
  ?pool:Parallel.Domain_pool.t ->
  seed:int ->
  prepared ->
  int ->
  Sampler.outcome array
(** [sample_batch ?pool ~seed t n] draws samples [0 .. n-1] via
    {!sample_index}, on [pool]'s workers or, without one, on the
    calling domain. Result [i] is sample [i]'s outcome; per-sample
    stats are merged into [stats t] in index order after the batch
    completes. The warm workers a draw leaves on a worker domain
    belong to [t] and die with it; a pool that has been shut
    down leaves them unused, since domain ids are never reused.
    @raise Invalid_argument when [n < 0]. *)

(** {2 Portable view}

    A prepared state is a deterministic function of the canonical
    formula and the preparation parameters, which makes it worth
    persisting: the durable store (see [Service.Spill]) serializes the
    portable view below and rebuilds a live state on a later daemon
    generation. Only what cannot be recomputed for free crosses the
    boundary — solver sessions and stats are rebuilt, and the
    [hi]/[lo] thresholds are re-derived from κ/pivot rather than
    trusted from disk. Witnesses drawn from an imported state are
    bit-identical to the original's. *)

type portable_phase =
  | Portable_easy of { num_vars : int; models : int list list }
      (** enumerated witnesses as DIMACS literal lists, in the original
          enumeration order (cell choice indexes into it) *)
  | Portable_hashed of { q : int; count_estimate : float }

type portable = {
  p_kappa : float;
  p_pivot : int;
  p_phase : portable_phase;
}

val export : prepared -> portable
(** The serializable essence of a preparation (pure; cheap). *)

val import : formula:Cnf.Formula.t -> portable -> prepared
(** Rebuild a live prepared state around [formula] — which must be the
    same canonical formula the exported state was prepared from (the
    caller verifies this via the registry fingerprint in its store
    key). Fresh warm workers with empty caches, and zeroed stats and
    {!prepare_solver} counters: the workers a freshly prepared state
    draws on, warmed by its count, are not part of the portable
    view.
    @raise Invalid_argument when an easy-phase model list is malformed
    (negative [num_vars] or a literal out of range). *)

val stats : prepared -> Sampler.run_stats
(** Accounting across every sample drawn from this preparation. Its
    solver counters are the draws' only; see {!prepare_solver}. *)

val prepare_solver : prepared -> Sat.Solver.stats * int
(** The solver work of {!prepare}: the counters of the easy-case
    enumeration plus those of the ApproxMC count, and the count's
    session reuse hits. They live in RAM only: an {!import}ed state
    reports zeros. *)

(** Introspection (used by benches, tests and EXPERIMENTS.md). *)

val kappa : prepared -> float
val pivot : prepared -> int
val hi_thresh : prepared -> float
val lo_thresh : prepared -> float

val q_range : prepared -> (int * int) option
(** The candidate hash-size range (q−3, q); [None] in the easy case
    (|R_F| ≤ hiThresh, where witnesses are enumerated outright). *)

val is_easy : prepared -> bool

val count_estimate : prepared -> float
(** ApproxMC's estimate of |R_F| (exact in the easy case). *)
