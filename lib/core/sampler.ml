type failure = Unsat | Cell_failure | Timed_out

type outcome = (Cnf.Model.t, failure) Result.t

type run_stats = {
  mutable samples_requested : int;
  mutable samples_produced : int;
  mutable cell_failures : int;
  mutable timeouts : int;
  mutable xor_rows : int;
  mutable xor_vars : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable xor_propagations : int;
  mutable restarts : int;
  mutable learnts : int;
  mutable reuse_hits : int;
  mutable cells_oversized : int;
  mutable cells_undersized : int;
  mutable cells_accepted : int;
  mutable cells_from_known : int;
  mutable models_from_known : int;
  mutable wall_seconds : float;
}

let fresh_stats () =
  {
    samples_requested = 0;
    samples_produced = 0;
    cell_failures = 0;
    timeouts = 0;
    xor_rows = 0;
    xor_vars = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    xor_propagations = 0;
    restarts = 0;
    learnts = 0;
    reuse_hits = 0;
    cells_oversized = 0;
    cells_undersized = 0;
    cells_accepted = 0;
    cells_from_known = 0;
    models_from_known = 0;
    wall_seconds = 0.0;
  }

let success_probability s =
  if s.samples_requested = 0 then Float.nan
  else float_of_int s.samples_produced /. float_of_int s.samples_requested

let average_xor_length s =
  if s.xor_rows = 0 then 0.0
  else float_of_int s.xor_vars /. float_of_int s.xor_rows

let average_seconds_per_sample s =
  if s.samples_produced = 0 then Float.nan
  else s.wall_seconds /. float_of_int s.samples_produced

let merge_into ~into s =
  into.samples_requested <- into.samples_requested + s.samples_requested;
  into.samples_produced <- into.samples_produced + s.samples_produced;
  into.cell_failures <- into.cell_failures + s.cell_failures;
  into.timeouts <- into.timeouts + s.timeouts;
  into.xor_rows <- into.xor_rows + s.xor_rows;
  into.xor_vars <- into.xor_vars + s.xor_vars;
  into.conflicts <- into.conflicts + s.conflicts;
  into.decisions <- into.decisions + s.decisions;
  into.propagations <- into.propagations + s.propagations;
  into.xor_propagations <- into.xor_propagations + s.xor_propagations;
  into.restarts <- into.restarts + s.restarts;
  into.learnts <- into.learnts + s.learnts;
  into.reuse_hits <- into.reuse_hits + s.reuse_hits;
  into.cells_oversized <- into.cells_oversized + s.cells_oversized;
  into.cells_undersized <- into.cells_undersized + s.cells_undersized;
  into.cells_accepted <- into.cells_accepted + s.cells_accepted;
  into.cells_from_known <- into.cells_from_known + s.cells_from_known;
  into.models_from_known <- into.models_from_known + s.models_from_known;
  into.wall_seconds <- into.wall_seconds +. s.wall_seconds

let record_hash s h =
  s.xor_rows <- s.xor_rows + Hashing.Hxor.m h;
  s.xor_vars <- s.xor_vars + Hashing.Hxor.total_xor_length h

let record_solve s (out : Sat.Bsat.outcome) =
  let d = out.Sat.Bsat.stats in
  s.conflicts <- s.conflicts + d.Sat.Solver.conflicts;
  s.decisions <- s.decisions + d.Sat.Solver.decisions;
  s.propagations <- s.propagations + d.Sat.Solver.propagations;
  s.xor_propagations <- s.xor_propagations + d.Sat.Solver.xor_propagations;
  s.restarts <- s.restarts + d.Sat.Solver.restarts;
  s.learnts <- s.learnts + d.Sat.Solver.learnts;
  if out.Sat.Bsat.reused then s.reuse_hits <- s.reuse_hits + 1

let solver_stats s =
  {
    Sat.Solver.conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    xor_propagations = s.xor_propagations;
    restarts = s.restarts;
    learnts = s.learnts;
  }

let finite f = if Float.is_finite f then f else 0.0

let report_fields s =
  let open Obs.Report in
  [
    ("samples_requested", Int s.samples_requested);
    ("samples_produced", Int s.samples_produced);
    ("cell_failures", Int s.cell_failures);
    ("timeouts", Int s.timeouts);
    ("success_probability", Float (finite (success_probability s)));
    ("avg_xor_len", Float (average_xor_length s));
    ("avg_seconds_per_sample", Float (finite (average_seconds_per_sample s)));
    ("cells_oversized", Int s.cells_oversized);
    ("cells_undersized", Int s.cells_undersized);
    ("cells_accepted", Int s.cells_accepted);
    ("cells_from_known", Int s.cells_from_known);
    ("models_from_known", Int s.models_from_known);
    ("wall_seconds", Float s.wall_seconds);
  ]
