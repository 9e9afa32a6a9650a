(** Markov-chain Monte Carlo witness sampling — the practical
    heuristic family (Kitchen & Kuehlmann, ICCAD 2007; Wei & Selman)
    the paper's related-work section contrasts with UniGen.

    A Metropolis walk over full assignments with energy = number of
    violated constraints: downhill moves are always accepted, uphill
    moves with probability e^(−ΔE/T). When the walk reaches energy 0
    within its step budget the assignment is returned as a witness.

    MCMC convergence to the uniform distribution over witnesses is
    only guaranteed in the limit; with practical budgets the
    distribution is skewed towards "wide basin" witnesses — exactly
    the weakness the paper cites. The [bench baselines] target
    measures that skew against UniGen and US. *)

val sample :
  ?steps:int ->
  ?restarts:int ->
  ?stats:Sampler.run_stats ->
  rng:Rng.t ->
  Cnf.Formula.t ->
  Sampler.outcome
(** [steps] per restart (default 10_000), [restarts] (default 5), at
    temperature T = 0.4. Fails with [Cell_failure] when no
    satisfying state is reached. *)
