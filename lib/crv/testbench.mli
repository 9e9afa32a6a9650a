(** Stimulus generation from a compiled constraint spec: the CRV
    testbench loop. Wraps UniGen preparation and sampling, decoding
    every witness back into named field values. *)

type t

type error =
  | Unsatisfiable_constraints
  | Preparation_failed

val create :
  ?epsilon:float -> ?seed:int -> ?count_iterations:int ->
  Constraint_spec.compiled -> (t, error) Result.t
(** Prepares UniGen once (ε defaults to the paper's experimental
    setting, 6). [count_iterations] trades the internal ApproxMC
    confidence for preparation speed; the default (15) suits
    interactive testbenches — pass the faithful
    [Counting.Approxmc.iterations_of_delta 0.8] (67), the value UniGen
    uses when no override is given, for the full guarantee. *)

val next : ?deadline:float -> t -> (string * int) list option
(** Draw one stimulus (retrying on cell failures, up to 20 attempts);
    [None] only on timeout or exhausted retries. The [i]-th stimulus
    of a testbench is drawn from stream [(seed, i)], so the sequence is
    a pure function of [seed]. *)

val estimated_stimulus_space : t -> float
(** ApproxMC's estimate of the number of legal stimuli. *)

val stats : t -> Sampling.Sampler.run_stats
