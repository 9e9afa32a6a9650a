type t = {
  compiled : Constraint_spec.compiled;
  prepared : Sampling.Unigen.prepared;
  seed : int;
  mutable drawn : int; (* stimulus [i] comes from stream (seed, i) *)
}

type error = Unsatisfiable_constraints | Preparation_failed

let create ?(epsilon = 6.0) ?(seed = 1) ?(count_iterations = 15) compiled =
  match
    Sampling.Unigen.prepare ~count_iterations ~rng:(Rng.create seed) ~epsilon
      (Constraint_spec.formula compiled)
  with
  | Ok prepared -> Ok { compiled; prepared; seed; drawn = 0 }
  | Error Sampling.Unigen.Unsat_formula -> Error Unsatisfiable_constraints
  | Error _ -> Error Preparation_failed

let next ?deadline t =
  let outcome, st =
    Sampling.Unigen.sample_index ?deadline ~max_attempts:20 ~seed:t.seed
      t.prepared t.drawn
  in
  t.drawn <- t.drawn + 1;
  Sampling.Sampler.merge_into ~into:(Sampling.Unigen.stats t.prepared) st;
  match outcome with
  | Ok m -> Some (Constraint_spec.decode t.compiled m)
  | Error _ -> None

let estimated_stimulus_space t = Sampling.Unigen.count_estimate t.prepared
let stats t = Sampling.Unigen.stats t.prepared
