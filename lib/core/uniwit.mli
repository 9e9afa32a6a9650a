(** UniWit (Chakraborty, Meel, Vardi — CAV 2013): the near-uniform
    hashing-based generator that UniGen is compared against in the
    paper's Tables 1 and 2 (leapfrogging disabled, as in the paper's
    experiments).

    Re-implemented from the CAV 2013 description. The behaviours that
    drive the comparison are faithfully preserved:

    - hashing is performed over the {b full support} X, so each XOR
      row mentions ~|X|/2 variables (vs ~|S|/2 for UniGen);
    - every sample runs the {b whole} sequential search over hash
      sizes m = 1, 2, ... afresh — nothing is amortised across
      samples without giving up the guarantee;
    - a cell is accepted as soon as its size falls in [1, pivot]
      (pivot = 20),
      a looser criterion than UniGen's two-sided [loThresh, hiThresh],
      which is why UniWit only achieves near-uniformity (a one-sided
      constant-factor lower bound) and a success probability ≥ 1/8. *)

val sample :
  ?deadline:float ->
  ?stats:Sampler.run_stats ->
  rng:Rng.t ->
  Cnf.Formula.t ->
  Sampler.outcome
(** Draw one witness. The sampling set of the formula is ignored — by
    design UniWit hashes and blocks over all variables.

    The sample's whole sequential search over hash sizes is served by
    one solver session (the XOR layer swapped per size). The guarantee is untouched: nothing is shared
    {e across} samples, only across the sizes within one sample. *)
