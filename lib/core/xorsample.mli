(** XORSample′ (Gomes, Sabharwal, Selman — NIPS 2007): the earlier
    hashing-based near-uniform generator discussed in the paper's
    related work. Unlike UniGen and UniWit it requires the user to
    supply the number [s] of XOR constraints — a difficult-to-estimate
    parameter (too small: huge cells and skew; too large: empty
    cells). It hashes over the full support.

    Included as a baseline for the related-work comparison benches. *)

val sample :
  ?deadline:float ->
  ?stats:Sampler.run_stats ->
  rng:Rng.t ->
  s:int ->
  Cnf.Formula.t ->
  Sampler.outcome
(** Add [s] random XORs, enumerate the surviving cell exhaustively (up
    to 4096 witnesses — beyond that the attempt is treated as a
    failure, mirroring the practical need for [s] to be close to
    log2 |R_F|), and pick a witness uniformly from the cell. *)
