(** CDCL SAT solver with native XOR-constraint propagation and an
    incremental (constraint-group) interface.

    This is the CryptoMiniSAT stand-in the paper's implementation
    section calls for: a conflict-driven clause-learning solver
    (two-watched-literal propagation, first-UIP clause learning with
    minimization, VSIDS decision heuristic, phase saving, Luby
    restarts, activity-based learnt-clause deletion) extended with
    in-search Gauss-Jordan elimination over its XOR constraints
    ({!Gauss}), generating reason clauses on demand so that
    XOR-derived implications take part in clause learning.

    {b The kept trail.} A [solve] that returns [Sat] leaves its trail
    (the full assignment of the model) in place; every other outcome
    returns at the root. Clauses and XORs are only added at decision
    level 0, so every other entry point — [add_clause], [add_xor],
    [push_group], [pop_group], [add_group_clause], [add_group_xor],
    [enable_proof_logging] and [gauss_dump] — first backtracks a kept
    trail to the root and then behaves exactly as if [solve] had
    backtracked on return. Interleaving [solve] / [add_clause] stays
    legal. The blocking-clause loop of BSAT instead calls {!block},
    which resumes the search from the model's trail.

    {b Incremental solving.} [push_group] opens a retractable
    constraint group: clauses added with [add_group_clause] are
    guarded by a fresh activation literal (assumed false during
    [solve], so the clauses are active), XOR constraints added with
    [add_group_xor] become rows of the group's own Gauss matrix. The
    activation literals are the solver's only assumptions: when they
    make the formula unsatisfiable, [solve] returns [Unsat] without
    marking the solver broken. [pop_group]
    detaches the group's constraints, every learnt clause whose
    derivation consumed them, and every root-level implication that
    depended on them — the solver afterwards answers exactly as if the
    group had never been pushed, while learnt clauses about the
    remaining formula survive. This is the mechanism BSAT sessions use
    to swap XOR hash layers without rebuilding the solver. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] is returned when a conflict budget or deadline expires. *)

val create : Cnf.Formula.t -> t
(** Load a formula (clauses and XORs). XORs of two or more variables
    become rows of the in-search Gauss-Jordan matrix ({!Gauss});
    shorter ones are units or constants at the root. *)

val create_empty : int -> t
(** [create_empty n] is a solver over variables [1 .. n] with no
    constraints yet. *)

val okay : t -> bool
(** [false] once the clause set is known unsatisfiable at level 0 —
    including unsatisfiability caused by a pushed group, in which case
    popping that group restores [true]. *)

val num_vars : t -> int
(** Grows when activation variables are allocated by {!push_group}. *)

val add_clause : t -> Cnf.Clause.t -> unit
(** Add a clause to the base formula (group 0). May set
    [okay t = false]. Repeated literals are merged and tautologies
    ignored. Legal while groups are pushed: the clause persists across
    [pop_group].

    {b Clause building.} [add_clause], {!add_group_clause} and {!block}
    share one normalization: the literals in ascending order (a sorted
    copy, or the array itself when its variables already strictly
    ascend), repeats and literals false at level 0 (under the groups
    the clause may rely on) dropped, and the group's activation
    literal last. The installed array is built once, in that order;
    the argument is never modified. *)

val add_xor : t -> Cnf.Xor_clause.t -> unit

val solve : ?conflict_limit:int -> ?deadline:float -> t -> result
(** [deadline] is an absolute [Unix.gettimeofday] instant. A [Sat]
    keeps its trail (see the kept trail above), and [solve] resumes
    from the trail a [Sat] or {!block} left. Each call counts in the
    [solver.solve_calls] metric but opens no trace span: callers wrap
    a run of calls (an enumeration) in one [solver.solve] span. *)

val block : t -> Cnf.Clause.t -> unit
(** [block t lits] adds the blocking clause [lits] after a [Sat]: it
    is legal only when the last call on [t] was a [solve] that
    returned [Sat], and every literal must be false under that model.
    The clause is the one {!add_group_clause} (with a group pushed) or
    {!add_clause} (without) would add. Instead of returning to the
    root, [block] backjumps to the second-deepest decision level among
    the clause's literals, watches its two deepest literals and
    enqueues the deepest with the clause as reason; when the two
    deepest levels tie it backjumps one level below them and enqueues
    nothing. When the second level is at or below the activation
    assumptions' levels, or proof logging is on, it goes in at the
    root, as those two functions would add it. The next [solve] resumes from there.
    @raise Audit.Violation with invariant [block-after-sat] when the
    last call was not a [Sat] solve, and [block-literal-false] when a
    literal is not false under the model. *)

val model : t -> Cnf.Model.t
(** The satisfying assignment found by the last [solve]; raises
    [Invalid_argument] if the last call did not return [Sat]. *)

(** {2 Constraint groups} *)

val push_group : t -> unit
(** Open a new retractable constraint group (LIFO). Allocates (or
    recycles) an activation variable; [num_vars] may grow.
    @raise Invalid_argument if proof logging is active. *)

val pop_group : t -> unit
(** Retract the most recent group: its clauses and XORs are detached,
    learnt clauses derived from them are purged, root-level
    implications depending on them are un-assigned, and an UNSAT
    verdict caused by them is rescinded. The solver then behaves
    exactly as if the group had never been pushed.
    @raise Invalid_argument if no group is pushed. *)

val add_group_clause : t -> Cnf.Clause.t -> unit
(** Add a clause to the innermost group (guarded by its activation
    literal). @raise Invalid_argument if no group is pushed. *)

val add_group_xor : t -> Cnf.Xor_clause.t -> unit
(** Add an XOR constraint to the innermost group's Gauss matrix
    (dropped on pop — XOR parity semantics admit no guard literal).
    @raise Invalid_argument if no group is pushed. *)

(** {2 Proof logging} *)

val enable_proof_logging : t -> unit
(** Start recording learnt clauses as DRAT/RUP steps; an UNSAT verdict
    then ends the log with the empty clause, checkable by
    {!Drat.refutes} against the original formula. Only meaningful for
    one-shot solving of a pure-CNF formula: XOR constraints and
    constraint groups are refused, and clauses added {e after} a
    [solve] (blocking-clause loops) are new axioms the proof does not
    account for. While logging, {!block} inserts at the root.
    @raise Invalid_argument if the solver holds XOR constraints or
    pushed groups. *)

val proof : t -> Drat.step list
(** Chronological proof log (empty when logging is disabled). *)

(** {2 Correctness audit}

    The solver participates in the [lib/audit] subsystem: API
    preconditions (root-level only) raise a structured
    [Audit.Violation] instead of [Assert_failure], and when audit mode
    is on ([Audit.enable] / [UNIGEN_AUDIT=1]) the solver additionally
    sweeps its internal invariants at propagation fixpoints (sampled
    by [Audit.tick]), at [solve] boundaries, and after every
    [pop_group], and re-checks every model against all attached
    clauses and XORs. With audit mode off none of this runs and
    behaviour is bit-identical. *)

val check_invariants : t -> unit
(** Force a full invariant sweep now (regardless of the audit flag);
    raises [Audit.Violation] on the first broken invariant. See
    [Audit.Solver_invariants] for the invariant catalogue. *)

val audit_view : t -> Audit.State.solver_view
(** The plain-data snapshot the sweep checks (exposed for tests). *)

val audit_model : t -> unit
(** Re-evaluate the last model against every attached clause, level-0
    fact and Gauss matrix row;
    raises [Audit.Violation] on a falsified constraint and
    [Invalid_argument] if the last solve did not return [Sat]. *)

(** Test-only fault injection for the sanitizer's mutation tests: each
    function plants one specific corruption in live solver state and
    returns whether it applied (so property tests can discard
    non-applicable cases). Never call these outside tests. *)
module Corrupt : sig
  val drop_watch : t -> bool
  (** Remove a live clause from one of its two watch lists. *)

  val stale_group : t -> bool
  (** Tag a live clause with a group beyond the current group count. *)

  val bump_trail_level : t -> bool
  (** Record a wrong decision level for the first trail entry. *)

  val scramble_heap : t -> bool
  (** Swap two order-heap slots without fixing the index map. *)

  val flip_model_bit : t -> bool
  (** Flip variable 1 in the saved model of the last [Sat] solve. *)

  val gauss_flip_rhs : t -> bool
  (** Negate the right-hand side of a detached Gauss matrix row. *)

  val gauss_steal_basic : t -> bool
  (** Point one Gauss row's basic column at another's (breaks the
      exclusive-pivot invariant). *)

  val gauss_false_detach : t -> bool
  (** Detach a Gauss row that still has unassigned variables. *)

  val gauss_drop_watch : t -> bool
  (** Collapse a Gauss row's two watches onto one column. *)

  val gauss_clear_watcher : t -> bool
  (** Drop a Gauss row from the watcher bitset of its first watched
      column. *)

  val duplicate_literal : t -> bool
  (** Overwrite the last literal of a live clause of three or more
      literals with its first, so the stored clause repeats a
      literal. *)
end

val gauss_dump : t -> (int * Gauss.row_dump array) list
(** Plain-data snapshot of every in-search Gauss matrix, as
    [(group, rows)] pairs (exposed for tests: session push/pop
    round-trips compare these). *)

(** {2 Statistics} *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  xor_propagations : int;
      (** implications enqueued by the Gauss matrices (a subset of
          [propagations]'s trail pops) *)
  restarts : int;
  learnts : int;  (** learnt clauses recorded, cumulative *)
}

val stats : t -> stats
(** Cumulative across [solve] calls (monotone counters, so per-call
    deltas are [stats_diff]-able). *)

val stats_zero : stats
val stats_add : stats -> stats -> stats
val stats_diff : stats -> stats -> stats
(** [stats_diff after before] — component-wise subtraction. *)
