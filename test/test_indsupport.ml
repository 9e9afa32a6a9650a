(* Tests for independent-support checking and minimization. *)

let clause = Cnf.Clause.of_dimacs

let check f s = Sat.Indsupport.check f s

let indep = Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Sat.Indsupport.Independent -> "Independent"
        | Sat.Indsupport.Dependent -> "Dependent"
        | Sat.Indsupport.Unknown -> "Unknown"))
    ( = )

(* The paper's own example: (a ∨ ¬b) ∧ (¬a ∨ b) (i.e. a = b) has three
   independent supports: {a}, {b} and {a,b}. *)
let paper_example =
  Cnf.Formula.create ~num_vars:2 [ clause [ 1; -2 ]; clause [ -1; 2 ] ]

let test_paper_example () =
  Alcotest.check indep "{a}" Sat.Indsupport.Independent (check paper_example [ 1 ]);
  Alcotest.check indep "{b}" Sat.Indsupport.Independent (check paper_example [ 2 ]);
  Alcotest.check indep "{a,b}" Sat.Indsupport.Independent (check paper_example [ 1; 2 ]);
  Alcotest.check indep "{}" Sat.Indsupport.Dependent (check paper_example [])

let test_free_variables_are_dependent_support_only_if_covered () =
  (* v1, v2 free: the empty set is NOT independent (witnesses differ) *)
  let f = Cnf.Formula.create ~num_vars:2 [] in
  Alcotest.check indep "{} dependent" Sat.Indsupport.Dependent (check f []);
  Alcotest.check indep "{1} dependent" Sat.Indsupport.Dependent (check f [ 1 ]);
  Alcotest.check indep "{1,2} independent" Sat.Indsupport.Independent
    (check f [ 1; 2 ])

let test_xor_defined_variable () =
  (* v3 = v1 ⊕ v2: {1,2} is independent, {1,3} also (v2 = v1 ⊕ v3) *)
  let f =
    Cnf.Formula.create_with_xors ~num_vars:3 []
      [ Cnf.Xor_clause.make [ 1; 2; 3 ] false ]
  in
  Alcotest.check indep "{1,2}" Sat.Indsupport.Independent (check f [ 1; 2 ]);
  Alcotest.check indep "{1,3}" Sat.Indsupport.Independent (check f [ 1; 3 ]);
  Alcotest.check indep "{1}" Sat.Indsupport.Dependent (check f [ 1 ])

let test_supersets_stay_independent () =
  let f =
    Cnf.Formula.create_with_xors ~num_vars:4 []
      [ Cnf.Xor_clause.make [ 1; 2; 3 ] true ]
  in
  (* {1,2,4} independent (v3 determined); superset {1,2,3,4} too *)
  Alcotest.check indep "{1,2,4}" Sat.Indsupport.Independent (check f [ 1; 2; 4 ]);
  Alcotest.check indep "all" Sat.Indsupport.Independent (check f [ 1; 2; 3; 4 ])

let test_minimize () =
  let f = paper_example in
  let m = Sat.Indsupport.minimize f [ 1; 2 ] in
  Alcotest.(check int) "singleton" 1 (List.length m)

let test_minimize_rejects_dependent_input () =
  let f = Cnf.Formula.create ~num_vars:2 [] in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Sat.Indsupport.minimize f [ 1 ]);
       false
     with Invalid_argument _ -> true)

let test_of_formula_tseitin () =
  (* Tseitin-style: g3 = AND(x1, x2); minimal support is {1, 2} *)
  let f =
    Cnf.Formula.create ~num_vars:3
      [ clause [ -3; 1 ]; clause [ -3; 2 ]; clause [ 3; -1; -2 ] ]
  in
  let s = Sat.Indsupport.of_formula f in
  Alcotest.(check (list int)) "inputs found" [ 1; 2 ] s

let test_minimized_support_usable_by_unigen () =
  (* find a support automatically, then sample with it *)
  let f =
    Cnf.Formula.create ~num_vars:4
      [
        clause [ -4; 1 ]; clause [ -4; 2 ]; clause [ 4; -1; -2 ];
        clause [ 3; 4 ];
      ]
  in
  let s = Sat.Indsupport.of_formula f in
  let g = Cnf.Formula.with_sampling_set f s in
  match Sampling.Unigen.prepare ~count_iterations:5 ~rng:(Rng.create 3) ~epsilon:6.0 g with
  | Ok p ->
      (match fst (Sampling.Unigen.sample_index ~max_attempts:1 ~seed:4 p 0) with
      | Ok m -> Alcotest.(check bool) "valid" true (Cnf.Model.satisfies f m)
      | Error _ -> Alcotest.fail "sampling failed")
  | Error _ -> Alcotest.fail "prepare failed"

let () =
  Alcotest.run "indsupport"
    [
      ( "check",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "free variables" `Quick
            test_free_variables_are_dependent_support_only_if_covered;
          Alcotest.test_case "xor defined" `Quick test_xor_defined_variable;
          Alcotest.test_case "supersets" `Quick test_supersets_stay_independent;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "rejects dependent" `Quick test_minimize_rejects_dependent_input;
          Alcotest.test_case "of_formula" `Quick test_of_formula_tseitin;
          Alcotest.test_case "usable by unigen" `Quick test_minimized_support_usable_by_unigen;
        ] );
    ]
