(* Randomised differential tests: cross-check the CDCL solver, the
   bounded enumerator, the exact counter and the parallel batch engine
   against the brute-force oracle on random small CNF+XOR formulas.
   QCheck2 shrinks any failing (seed, size) specification to a minimal
   reproduction. *)

let build = Test_util.Gen.build_spec

(* CDCL verdict matches brute force AND a SAT verdict comes with a
   model that actually satisfies the formula (the existing sat suite
   checks verdicts only). *)
let prop_solver_verdict_and_model =
  QCheck2.Test.make ~count:300
    ~name:"cdcl verdict = brute verdict, and SAT models satisfy"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = build spec in
      (* checked_solve additionally certifies pure-CNF UNSAT verdicts
         with a RUP refutation *)
      match Test_util.Check.checked_solve f with
      | Sat.Solver.Sat, s ->
          Sat.Brute.is_sat f && Cnf.Model.satisfies f (Sat.Solver.model s)
      | Sat.Solver.Unsat, _ -> not (Sat.Brute.is_sat f)
      | Sat.Solver.Unknown, _ -> false)

(* Exact counting under assumption literals vs brute-force filtering. *)
let prop_count_restricted_matches_brute =
  QCheck2.Test.make ~count:150
    ~name:"exact count_restricted = brute filtered count"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100000))
    (fun (spec, aux) ->
      let f = build spec in
      let nv = f.Cnf.Formula.num_vars in
      let v1 = 1 + (aux mod nv) in
      let v2 = 1 + (aux / nv mod nv) in
      let assumptions =
        if v1 = v2 then [ Cnf.Lit.make v1 (aux land 1 = 0) ]
        else
          [ Cnf.Lit.make v1 (aux land 1 = 0); Cnf.Lit.make v2 (aux land 2 = 0) ]
      in
      let counted = Counting.Exact_counter.count_restricted f assumptions in
      let expected =
        List.length
          (List.filter
             (fun m ->
               List.for_all
                 (fun lit ->
                   Cnf.Model.value m (Cnf.Lit.var lit) = Cnf.Lit.sign lit)
                 assumptions)
             (Sat.Brute.solutions f))
      in
      counted = expected)

(* Bounded enumeration's count_upto caps exactly at the limit. *)
let prop_count_upto_caps_at_limit =
  QCheck2.Test.make ~count:150 ~name:"bsat count_upto = min(brute count, limit)"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_range 1 40))
    (fun (spec, limit) ->
      let f = build spec in
      Sat.Bsat.count_upto ~limit f = min (Sat.Brute.count f) limit)

(* The parallel batch engine is execution-order independent: a batch
   with no pool and one on a pool of 2 produce the same outcome
   sequence on arbitrary (easy and hashed case) satisfiable formulas. *)
let prop_batch_pool_differential =
  QCheck2.Test.make ~count:20 ~name:"sample_batch no pool = pool of 2"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 3 7))
    (fun (seed, num_vars) ->
      (* free formula over num_vars variables: always satisfiable;
         num_vars >= 7 exercises the hashed path (2^7 > hiThresh) *)
      let f = Cnf.Formula.create ~num_vars [] in
      match
        Sampling.Unigen.prepare ~count_iterations:5 ~rng:(Rng.create seed)
          ~epsilon:6.0 f
      with
      | Error _ -> false
      | Ok p ->
          let run pool =
            Array.map
              (function Ok m -> Cnf.Model.key m | Error _ -> "<fail>")
              (Sampling.Unigen.sample_batch ~max_attempts:10 ?pool ~seed p 6)
          in
          run None = Parallel.Domain_pool.with_pool ~jobs:2 (fun p -> run (Some p)))

let () =
  Alcotest.run "differential"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_solver_verdict_and_model;
            prop_count_restricted_matches_brute;
            prop_count_upto_caps_at_limit;
            prop_batch_pool_differential;
          ] );
    ]
