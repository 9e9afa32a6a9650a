(** In-search incremental Gauss-Jordan elimination over the XOR rows
    of one constraint group (the BIRD architecture of CryptoMiniSat,
    CAV 2020 "Tinted, Detached, and Lazy CNF-XOR Solving").

    One [t] holds the packed GF(2) matrix of every XOR attached to a
    single solver group. Rows are bitsets over matrix-local columns
    (one column per distinct variable); each active row owns an
    exclusive {e basic} column that is eliminated from every other row
    (Jordan reduced form) and watches two unassigned columns. On
    assignment of a watched column the engine moves the watch, changes
    pivot (re-eliminating so that every implied unit surfaces as a
    single unit row), propagates, detaches satisfied rows, or reports
    a conflict. Reasons are {e lazy}: a propagation records only the
    (matrix, row) pair, and the parity reason clause is materialized
    from the row's current contents when the conflict analyzer asks —
    sound because fully assigned rows are never elimination targets,
    so a reason row's contents are frozen while its implication is on
    the trail.

    Backtracking restores state with a detach-undo stack (rows
    re-activate when the trail shrinks past their detach mark) plus a
    [dirty] flag: the next [repair] call re-establishes watches, basic
    columns and pending units, so no bit-level undo of eliminations is
    needed (eliminations preserve the row space, and any basis is
    valid). A group pop drops the popped group's matrix wholesale and
    [reset]s the surviving ones, composing with the solver's
    re-propagation from a cleared queue head. The rebuild that follows
    a reset replays every row from the XOR it was inserted as, so row
    contents change: the solver must not keep a row as the reason of
    a surviving assignment across a pop.

    The engine is value-agnostic and allocation-free on its
    per-assignment path. Its two hooks are bound once, at {!create}: a
    [trail_size] thunk for detach marks and an [enqueue m lit row]
    callback invoked for each implied literal (the variable is
    guaranteed unassigned at the moment of the call); callers pass the
    solver's [assigns] array (variable -> 1 / -1 / 0) on every call.
    {!add_row}, {!on_assign} and {!repair} return the first
    conflicting row's id, or [-1] for "no conflict". Literals use the
    solver's int encoding (positive literal of [v] is [2v], negative
    [2v + 1]).

    Reason contract: {!reason_into} puts the implied literal first,
    then the false literal of every other variable of the row in
    descending column index (columns are numbered in the order their
    variables first entered the matrix); {!conflict_into} gives the
    same order without an implied literal. Conflict analysis visits
    literals in this order, so it feeds VSIDS and must not change
    without changing witness streams. *)

type t

val create :
  group:int -> trail_size:(unit -> int) -> enqueue:(t -> int -> int -> unit) -> t
(** Fresh empty matrix for [group], with its hooks: [trail_size ()] is
    the current trail length (the detach mark), and [enqueue m lit row]
    assigns [lit] as implied by [row] of [m]. Counts a
    [solver.gauss_matrix_pushes]. *)

val group : t -> int
val num_rows : t -> int

val is_dirty : t -> bool
(** Pending [repair] work (set by backtracking, [reset], and conflict
    returns). Propagation fixpoint claims only hold when clean. *)

val add_row : t -> assigns:int array -> vars:int list -> rhs:bool -> int
(** Insert the XOR [vars = rhs] (duplicate variables cancel), reduce
    it against the existing basic columns, give it a basic column of
    its own (eliminating that column from every other row) and
    classify it — attached, unit (propagated through [enqueue] and
    detached as satisfied), satisfied (detached), or conflicting.
    Returns the conflicting row's id, or [-1]. *)

val on_assign : t -> assigns:int array -> var:int -> int
(** [var] was just assigned: process the rows watching its column
    (watch moves, pivot changes with re-elimination, unit
    propagations, satisfied detaches). Returns the first conflicting
    row's id, or [-1]. Cheap no-op when [var] has no column. Allocates
    nothing once the matrix's internal stacks have reached their
    working size. *)

val repair : t -> assigns:int array -> int
(** Re-establish the full matrix invariant after backtracking or
    [reset] (no-op when not dirty). After a [reset] the rows are
    replayed through the [add_row] logic in insertion order, from the
    XORs they were inserted as. Otherwise every active row is re-scanned and
    re-watched, still-satisfied rows re-detach, pending units
    propagate, and rows whose basic column was lost or assigned pick a
    new pivot and re-eliminate. Returns the first conflicting row's
    id, or [-1] (the matrix is clean afterwards iff no conflict). Like
    {!on_assign}, allocates nothing on the re-scan path. *)

val cancel_to : t -> trail_size:int -> unit
(** The trail is being shrunk to [trail_size]: re-activate every row
    detached at a larger mark and mark the matrix dirty if any was. *)

val reset : t -> unit
(** After a group pop invalidated trail marks wholesale: clear the
    undo stack and mark the matrix dirty; the next [repair] replays
    every row from its source XOR (traced as [gauss.matrix_rebuild]),
    so a round trip that leaves no assignment behind restores the
    exact matrix it started from. *)

val drop : t -> unit
(** The owning group was popped and the matrix is being discarded:
    count a [solver.gauss_matrix_pops]. *)

val row_vars : t -> row:int -> int array
(** The variables of [row], ascending. *)

val reason_into : t -> assigns:int array -> row:int -> implied:int -> int array -> int
(** [reason_into m ~assigns ~row ~implied buf] materializes the lazy
    parity reason for [implied] (the true literal propagated from
    [row]) into the first slots of [buf] and returns their count:
    [implied] first, then the false literal of every other variable of
    the row in descending column index. It allocates nothing; [buf]
    must hold a slot per variable of the row. Counts a
    [solver.gauss_lazy_reasons]. *)

val conflict_into : t -> assigns:int array -> row:int -> int array -> int
(** The conflict clause of a violated fully-assigned row, filled into
    [buf] the same way: the false literal of every variable, in
    descending column index. Returns the count. *)

(** Plain-data row snapshot for audits and tests. Columns are reported
    as variable ids ([-1] = none). *)
type row_dump = {
  d_vars : int array;  (** ascending *)
  d_rhs : bool;
  d_active : bool;  (** [false] = detached (satisfied) *)
  d_basic : int;
  d_w1 : int;
  d_w2 : int;
}

val dump : t -> row_dump array

val watcher_dump : t -> (int * int array) array
(** For each column whose watcher bitset is not empty, its variable
    and the rows the bitset holds, ascending. {!on_assign} visits
    exactly these rows (the active ones), so the set must be the rows
    whose [w1] or [w2] is the column. *)

(** Test-only fault injection (mutation tests for the audit
    sanitizer); each plants one corruption and reports whether it
    applied. *)
module Corrupt : sig
  val flip_rhs : t -> bool
  (** Negate the right-hand side of a detached (satisfied) row. *)

  val steal_basic : t -> bool
  (** Point one active row's basic column at another's. *)

  val false_detach : t -> assigns:int array -> bool
  (** Detach an active row that still has unassigned variables. *)

  val drop_watch : t -> bool
  (** Collapse an active row's two watches onto one column. *)

  val clear_watcher : t -> bool
  (** Drop a row from the watcher bitset of its first watch. *)
end
