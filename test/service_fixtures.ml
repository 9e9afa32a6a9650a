(* Formulas and reference runs shared by the service and daemon test
   executables. *)

let formula_of_string = Cnf.Dimacs.parse_string
let formula_a = "p cnf 4 2\nc ind 1 2 3 0\n1 2 3 0\n-1 4 0\n"
let formula_b = "p cnf 4 2\nc ind 1 2 3 0\n-1 -2 0\n2 3 4 0\n"
let formula_c = "p cnf 4 2\nc ind 1 2 3 0\n1 -2 0\n-3 4 0\n"

let parallel_config jobs =
  { Service.Scheduler.default_config with Service.Scheduler.jobs }

let offline_witnesses ~prepare_seed ~seed ~epsilon ~n formula =
  let f = Service.Registry.canonical formula in
  let rng = Rng.create prepare_seed in
  match Sampling.Unigen.prepare ~rng ~epsilon f with
  | Error _ -> None
  | Ok prepared ->
      let outcomes =
        Sampling.Unigen.sample_batch ~max_attempts:20 ~seed prepared n
      in
      Some
        (Array.to_list outcomes
        |> List.filter_map (function
             | Ok m -> Some (Cnf.Model.to_dimacs m)
             | Error _ -> None))
