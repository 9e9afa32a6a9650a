(** Content-addressed formula identity.

    Two clients submitting the same formula — up to clause order,
    literal order, duplicate literals/clauses, tautologies and
    sampling-set order — should share one prepared sampler state. This
    module makes that identity explicit: {!canonical} maps a formula
    to a normal form, {!fingerprint} hashes the normal form's
    serialization into a stable content address, and {!identify}
    returns both from one canonicalization. It keeps no state: the
    prepared-state cache holds a canonical formula for as long as it
    holds its state, and nothing else does.

    Canonical form (this is also the specification the DIMACS
    round-trip property in the test suite checks against):
    - clauses are {!Cnf.Clause.normalize}d (literals sorted,
      duplicates dropped), tautologies removed, then sorted with
      {!Cnf.Clause.compare} and deduplicated;
    - XOR rows are rebuilt with {!Cnf.Xor_clause.make} (variables
      sorted, pairs cancelled), trivially-true empty rows ([⊕∅ =
      false], which has no DIMACS rendering) dropped, then sorted and
      deduplicated;
    - the sampling set, when declared, is sorted and deduplicated
      (declared-vs-absent is preserved: an absent set means "sample
      over all variables", which is a different formula identity);
    - [num_vars] is preserved verbatim — variables beyond the last
      occurring one still widen the witness space.

    The preparation pipeline runs on the canonical formula, so every
    client of one fingerprint receives witnesses from the same
    deterministic draw streams regardless of how its copy of the
    formula was ordered. *)

val version : string
(** ["unigen-registry-v1"] — the tag prefixed to every {!serialize}d
    form before hashing. Durable-store keys embed {!fingerprint}s, so
    this version (with the golden vectors in the test suite) is the
    compatibility contract for on-disk prepared state: bump it
    whenever the canonicalization spec changes, and old spill entries
    invalidate themselves. *)

val canonical : Cnf.Formula.t -> Cnf.Formula.t
(** Idempotent: [canonical (canonical f)] equals [canonical f]. *)

val serialize : Cnf.Formula.t -> string
(** Canonicalize, then render the versioned byte string that is
    hashed by {!fingerprint} (exposed for tests and debugging). *)

val fingerprint : Cnf.Formula.t -> string
(** Hex content address of [serialize f] — equal for any two formulas
    with the same canonical form. *)

val identify : Cnf.Formula.t -> string * Cnf.Formula.t
(** [identify f] is [(fingerprint f, canonical f)], canonicalizing
    [f] once. *)
