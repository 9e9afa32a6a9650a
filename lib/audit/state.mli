(** Plain-data snapshot of a CDCL solver, as seen by the auditor.

    [lib/audit] must not depend on [lib/sat] (the solver raises
    {!Violation.Violation} itself), so invariant checks run over this
    neutral view instead of the live solver record. The solver builds
    one with [Solver.audit_view]; arrays are copies, safe to retain.

    Conventions mirror the solver: literals are ints with variable
    [l lsr 1] and sign bit [l land 1] (even = positive); [assigns]
    holds 1 / -1 / 0 per variable; clause views carry the solver's
    stable clause id, and watch entries reference that id ([-1] for a
    detached record that only survives in a watch list through lazy
    deletion). *)

type clause_view = {
  c_id : int;
  c_lits : int array;  (** watched literals at positions 0 and 1 *)
  c_learnt : bool;
  c_group : int;
}

type watch_entry = {
  w_id : int;  (** clause id, or [-1] for an orphaned record *)
  w_deleted : bool;  (** the record's lazy-deletion flag *)
  w_group : int;
}

type reason_view =
  | R_none
  | R_clause of int
  | R_gauss of int * int  (** (matrix group, row id) of a lazy reason *)
  | R_dangling  (** reason points at a record no longer attached *)

(** One row of an in-search Gauss matrix: variables ascending, watched
    / basic columns reported as variable ids ([-1] = none). Detached
    rows ([g_active = false]) are satisfied under the current trail. *)
type gauss_row_view = {
  g_vars : int array;
  g_rhs : bool;
  g_active : bool;
  g_basic : int;
  g_w1 : int;
  g_w2 : int;
}

type gauss_view = {
  g_group : int;
  g_dirty : bool;
      (** repair pending — watch / basic / detach checks are skipped *)
  g_rows : gauss_row_view array;
  g_watchers : (int * int array) array;
      (** per watched column, as a variable id: the rows its watcher
          bitset holds, ascending; columns with an empty set are left
          out *)
}

type vec_view = { v_name : string; v_size : int; v_capacity : int }

type solver_view = {
  nvars : int;
  ok : bool;
  broken_by : int;
  num_groups : int;
  decision_level : int;
  qhead : int;
  at_fixpoint : bool;
      (** propagation queue drained when the view was taken; gates the
          two-watch and Gauss fixpoint checks, which only hold there *)
  assigns : int array;
  level : int array;
  assign_group : int array;  (** only meaningful for level-0 facts *)
  reason : reason_view array;
  trail : int array;
  trail_lim : int array;
  clauses : clause_view array;  (** live problem + learnt clauses *)
  matrices : gauss_view list;  (** in-search Gauss matrices, one per group *)
  watches : watch_entry list array;  (** indexed by literal *)
  heap : int array;  (** order-heap contents, root first *)
  heap_index : int array;  (** variable -> heap slot, [-1] if absent *)
  activity : float array;
  lost_unit_groups : int list;
  vecs : vec_view list;  (** size/capacity of every internal vector *)
}

val var_of_lit : int -> int

val lit_value : solver_view -> int -> int
(** 1 true, -1 false, 0 unassigned under [view.assigns]. *)
