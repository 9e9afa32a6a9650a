(** Types shared by every witness generator in this library. *)

type failure =
  | Unsat  (** the formula has no witness at all *)
  | Cell_failure
      (** the algorithm's random cell fell outside its thresholds (the
          ⊥ of Algorithm 1); retrying with fresh randomness may
          succeed — Theorem 1 bounds the probability of this at ≤ 0.38
          for UniGen *)
  | Timed_out

type outcome = (Cnf.Model.t, failure) Result.t

(** Per-run accounting used to fill the paper's table columns. *)
type run_stats = {
  mutable samples_requested : int;
  mutable samples_produced : int;
  mutable cell_failures : int;
  mutable timeouts : int;
  mutable xor_rows : int;  (** total XOR rows across all hash draws *)
  mutable xor_vars : int;  (** total variables across those rows *)
  mutable conflicts : int;
      (** this field and the five below sum the {!Sat.Solver.stats}
          deltas of every BSAT call; {!solver_stats} reads them back as
          that record *)
  mutable decisions : int;
  mutable propagations : int;
  mutable xor_propagations : int;
  mutable restarts : int;
  mutable learnts : int;
  mutable reuse_hits : int;
      (** BSAT calls answered by a warm solver session *)
  mutable cells_oversized : int;
      (** hashed cells holding more than hiThresh witnesses, thrown away *)
  mutable cells_undersized : int;
      (** hashed cells enumerated in full below loThresh, thrown away *)
  mutable cells_accepted : int;
      (** hashed cells within the thresholds, a witness drawn from each *)
  mutable cells_from_known : int;
      (** the oversized cells decided from the cache of found
          projections, with no solver call *)
  mutable models_from_known : int;
      (** the witnesses of accepted cells taken from the cache of found
          witnesses instead of being enumerated again *)
  mutable wall_seconds : float;
}

val fresh_stats : unit -> run_stats
val success_probability : run_stats -> float
(** produced / requested; NaN when nothing was requested. *)

val average_xor_length : run_stats -> float
(** Mean variables per XOR row across the run (the "Avg XOR len"
    column); 0 when no hash was ever drawn. *)

val average_seconds_per_sample : run_stats -> float

val merge_into : into:run_stats -> run_stats -> unit
(** Add [s]'s counters into [into]. The parallel batch engine gives
    every sample its own private stats record and folds them back in
    index order once the batch completes, so shared stats are never
    mutated from two domains at once. Note the merged [wall_seconds]
    is the {e cumulative} per-sample time, which exceeds elapsed wall
    clock when samples ran concurrently. *)

val record_hash : run_stats -> Hashing.Hxor.t -> unit

val record_solve : run_stats -> Sat.Bsat.outcome -> unit
(** Fold one BSAT outcome's solver-statistics delta (conflicts,
    propagations, learnt clauses, session-reuse hit) into the run. *)

val solver_stats : run_stats -> Sat.Solver.stats
(** The run's solver counters as the solver's own record. *)

val report_fields : run_stats -> (string * Obs.Report.value) list
(** The run's sampling accounting as a typed field list for an
    {!Obs.Report} section; the solver counters are not in it (see
    {!solver_stats}). NaN ratios (nothing requested/produced yet) are
    reported as 0. *)
