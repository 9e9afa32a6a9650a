(** The CDCL/Gauss invariant sanitizer.

    [check] sweeps a {!State.solver_view} and raises
    {!Violation.Violation} on the first broken invariant. The
    catalogue (stable invariant names, also listed in DESIGN.md):

    - [vec-bounds]: every internal vector has [0 <= size <= capacity].
    - [trail-bounds] / [trail-consistency] / [level-monotonic]: the
      trail holds each assigned variable exactly once, as a true
      literal, at the level implied by its position between
      [trail_lim] marks; [qhead] stays inside the trail.
    - [reason-consistency]: every implied assignment's reason is live,
      implies exactly that literal, and uses only earlier-or-equal
      level antecedents; a lazy Gauss reason row must contain the
      implied variable, be fully assigned at earlier-or-equal levels,
      and satisfy its parity; reasonless assignments above level 0 sit
      at their level's first trail slot (decisions).
    - [clause-distinct]: no stored clause repeats a literal.
    - [watch-attached] / [lazy-deletion] / [clause-width]: every live
      clause has >= 2 literals and is watched exactly once from each
      of its first two literals; anything else found in a watch list
      must be flagged deleted.
    - [two-watch] / [watch-order] (fixpoint only): a non-satisfied
      clause never has a false watch; a false watch in a satisfied
      clause is backed by a true co-watch from an earlier-or-equal
      level.
    - [gauss-basic] / [gauss-watch] / [gauss-detached] /
      [gauss-fixpoint] (clean matrices only — a dirty matrix carries
      stale state until its next repair): every active Gauss row owns
      an exclusive basic column that is a member of the row, is
      unassigned at fixpoints, and appears in no other row (Jordan
      reduced form); its first watch is the basic column and its
      second is a distinct member; detached rows are fully assigned
      with satisfied parity; at a clean fixpoint every active row has
      >= 2 unassigned columns (so no implied unit or conflict is
      pending — the incremental elimination agrees with a from-scratch
      RREF of the current assignment).
    - [gauss-watchers] (every matrix, clean or dirty): each column's
      watcher bitset holds exactly the rows whose first or second
      watch is that column, the rows [on_assign] visits.
    - [heap-index] / [heap-property] / [heap-membership]: the order
      heap and its index map agree, parents dominate children by
      activity, and every unassigned variable is present.
    - [group-hygiene]: no live clause, learnt, Gauss matrix,
      level-0 implication, lost-unit ledger entry, or undeleted watch
      record carries a group beyond the current group count.
    - [model-audit] ([check_model]): the returned witness satisfies
      every attached clause and Gauss matrix row. *)

val check : State.solver_view -> unit
(** Full sweep; raises {!Violation.Violation} on the first failure.
    Fixpoint-only checks are gated on [view.at_fixpoint], and
    search-state checks on [view.ok]. *)

val check_model : State.solver_view -> value:(int -> bool) -> unit
(** [check_model view ~value] audits a model ([value v] is variable
    [v]'s assignment) against all attached clauses and Gauss matrix
    rows. *)
