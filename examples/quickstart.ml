(* Quickstart: sample almost-uniform witnesses of a small CNF formula.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ ¬x2) over 6 variables *)
  let f =
    Cnf.Formula.create ~num_vars:6
      [ Cnf.Clause.of_dimacs [ 1; 2; 3 ]; Cnf.Clause.of_dimacs [ -1; -2 ] ]
  in
  let rng = Rng.create 2014 in

  (* Step 1: prepare — runs the one-time part of UniGen (thresholds,
     the ApproxMC count, the candidate hash sizes). *)
  match Sampling.Unigen.prepare ~rng ~epsilon:6.0 f with
  | Error _ -> print_endline "formula is unsatisfiable (or preparation failed)"
  | Ok prepared ->
      Printf.printf "witness count estimate: %.0f%s\n"
        (Sampling.Unigen.count_estimate prepared)
        (if Sampling.Unigen.is_easy prepared then
           " (small enough to enumerate: the easy case)"
         else "");

      (* Step 2: draw witnesses. Witness i re-randomizes the hash from
         its own stream (seed, i), so samples are independent. *)
      print_endline "ten almost-uniform witnesses:";
      Array.iter
        (function
          | Ok m ->
              let bits =
                List.map (fun v -> if v > 0 then '1' else '0') (Cnf.Model.to_dimacs m)
              in
              Printf.printf "  %s\n" (String.init 6 (List.nth bits))
          | Error _ -> print_endline "  (failed; retry exhausted)")
        (Sampling.Unigen.sample_batch ~seed:2014 prepared 10);

      (* Step 3: the statistics UniGen reports in the paper's tables. *)
      let st = Sampling.Unigen.stats prepared in
      Printf.printf "success probability: %.2f, avg XOR length: %.1f\n"
        (Sampling.Sampler.success_probability st)
        (Sampling.Sampler.average_xor_length st)
