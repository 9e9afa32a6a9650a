type clause_view = {
  c_id : int;
  c_lits : int array;
  c_learnt : bool;
  c_group : int;
}

type watch_entry = {
  w_id : int;
  w_deleted : bool;
  w_group : int;
}

type reason_view =
  | R_none
  | R_clause of int
  | R_gauss of int * int
  | R_dangling

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
  g_rows : gauss_row_view array;
  g_watchers : (int * int array) array;
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
  assigns : int array;
  level : int array;
  assign_group : int array;
  reason : reason_view array;
  trail : int array;
  trail_lim : int array;
  clauses : clause_view array;
  matrices : gauss_view list;
  watches : watch_entry list array;
  heap : int array;
  heap_index : int array;
  activity : float array;
  lost_unit_groups : int list;
  vecs : vec_view list;
}

let var_of_lit l = l lsr 1

let lit_value view l =
  let a = view.assigns.(var_of_lit l) in
  if a = 0 then 0 else if (a > 0) = (l land 1 = 0) then 1 else -1
