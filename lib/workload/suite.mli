(** The benchmark suite: named synthetic analogs of the instances in
    the paper's Tables 1 and 2, spanning the same four domains —
    bit-blasted circuit/BMC constraints, "Squaring" equivalence
    constraints, ISCAS89-style circuits with parity conditions, and
    program-synthesis sketches — plus large Tseitin formulas with
    small independent supports ("tutorial3"-style).

    Instance sizes are scaled down from the paper (whose substrate was
    a tuned C++ CryptoMiniSAT on a cluster with 20-hour timeouts); the
    DESIGN.md substitution table explains why the paper's comparative
    claims survive the scaling. Every instance is satisfiable and its
    sampling set is an independent support by construction. *)

type instance = {
  name : string;
  domain : string;
  formula : Cnf.Formula.t Lazy.t;
      (** generation is deterministic: same name → same formula *)
}

val table1 : instance list
(** Analogs of the 12 rows of Table 1. *)

val table2 : instance list
(** The extended suite (Table 2 analog; superset of {!table1}). *)

val quick : instance list
(** A small subset for smoke tests and CI. *)

val uniformity_case : instance
(** The "case110" analog of Figure 1: a formula whose full witness set
    is enumerable (on the order of 2^10), used for the uniformity
    comparison against the ideal sampler US. *)

val by_name : string -> instance option

val num_vars : instance -> int
