(* Tests for DRAT/RUP proof logging and checking. *)

let clause = Cnf.Clause.of_dimacs

let pigeonhole ~pigeons ~holes =
  let v p h = (p * holes) + h + 1 in
  let placed =
    List.init pigeons (fun p -> clause (List.init holes (fun h -> v p h)))
  in
  let exclusive =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some (clause [ -(v p1 h); -(v p2 h) ]) else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  Cnf.Formula.create ~num_vars:(pigeons * holes) (placed @ exclusive)

let solve_logged f =
  let s = Sat.Solver.create f in
  Sat.Solver.enable_proof_logging s;
  let r = Sat.Solver.solve s in
  (r, Sat.Solver.proof s)

(* ------------------------------------------------------------------ *)
(* Checker on hand-built proofs *)

let test_rup_accepts_valid_step () =
  (* F = (1 ∨ 2) ∧ (1 ∨ ¬2): clause (1) is RUP *)
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1; 2 ]; clause [ 1; -2 ] ] in
  Alcotest.(check bool) "(1) is RUP" true (Sat.Drat.check f [ Sat.Drat.Add [ 1 ] ])

let test_rup_rejects_invalid_step () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1; 2 ] ] in
  Alcotest.(check bool) "(1) is not RUP" false
    (Sat.Drat.check f [ Sat.Drat.Add [ 1 ] ])

let test_rup_chains_steps () =
  (* (1∨2) (1∨¬2) (¬1∨3) (¬1∨¬3) refutable: derive (1), then [] *)
  let f =
    Cnf.Formula.create ~num_vars:3
      [ clause [ 1; 2 ]; clause [ 1; -2 ]; clause [ -1; 3 ]; clause [ -1; -3 ] ]
  in
  let proof = [ Sat.Drat.Add [ 1 ]; Sat.Drat.Add [] ] in
  Alcotest.(check bool) "refutation accepted" true (Sat.Drat.refutes f proof);
  (* the empty clause alone is not RUP for this formula *)
  Alcotest.(check bool) "shortcut rejected" false
    (Sat.Drat.check f [ Sat.Drat.Add [] ])

let test_delete_steps_ignored_soundly () =
  let f =
    Cnf.Formula.create ~num_vars:3
      [ clause [ 1; 2 ]; clause [ 1; -2 ]; clause [ -1; 3 ]; clause [ -1; -3 ] ]
  in
  let proof =
    [ Sat.Drat.Add [ 1 ]; Sat.Drat.Delete [ 1; 2 ]; Sat.Drat.Add [] ]
  in
  Alcotest.(check bool) "still refutes" true (Sat.Drat.refutes f proof)

let test_refutes_requires_empty_clause () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1; 2 ]; clause [ 1; -2 ] ] in
  Alcotest.(check bool) "no empty clause" false
    (Sat.Drat.refutes f [ Sat.Drat.Add [ 1 ] ])

(* ------------------------------------------------------------------ *)
(* Text format *)

let test_format_roundtrip () =
  let proof =
    [ Sat.Drat.Add [ 1; -2 ]; Sat.Drat.Delete [ 3 ]; Sat.Drat.Add [] ]
  in
  let text = Sat.Drat.to_string proof in
  Alcotest.(check bool) "roundtrip" true (Sat.Drat.of_string text = proof)

let test_format_parse_errors () =
  Alcotest.(check bool) "missing 0" true
    (try
       ignore (Sat.Drat.of_string "1 2\n");
       false
     with Failure _ -> true)

(* Well-formed proofs survive a print/parse cycle exactly. *)
let prop_format_roundtrip_random =
  let gen_lits =
    QCheck2.Gen.(
      map
        (List.filter (fun i -> i <> 0))
        (small_list (int_range (-25) 25)))
  in
  let gen_step =
    QCheck2.Gen.(
      map
        (fun (del, lits) -> if del then Sat.Drat.Delete lits else Sat.Drat.Add lits)
        (pair bool gen_lits))
  in
  QCheck2.Test.make ~count:300 ~name:"to_string/of_string round-trips"
    (QCheck2.Gen.small_list gen_step)
    (fun proof -> Sat.Drat.of_string (Sat.Drat.to_string proof) = proof)

(* Malformed input must fail with Failure (the documented exception),
   never anything else; and whatever parses must reparse stably. *)
let prop_of_string_fuzz =
  QCheck2.Test.make ~count:1000 ~name:"of_string on junk: Failure or stable value"
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl [ '0'; '1'; '7'; '9'; '-'; ' '; '\n'; '\t'; 'd'; 'x'; '%' ])
        (int_bound 40))
    (fun text ->
      match Sat.Drat.of_string text with
      | exception Failure _ -> true
      | steps -> Sat.Drat.of_string (Sat.Drat.to_string steps) = steps)

(* ------------------------------------------------------------------ *)
(* Solver-emitted proofs *)

let test_solver_proof_php () =
  List.iter
    (fun (p, h) ->
      let f = pigeonhole ~pigeons:p ~holes:h in
      match solve_logged f with
      | Sat.Solver.Unsat, proof ->
          Alcotest.(check bool)
            (Printf.sprintf "PHP(%d,%d) proof verifies (%d steps)" p h
               (List.length proof))
            true
            (Sat.Drat.refutes f proof)
      | _ -> Alcotest.failf "PHP(%d,%d) must be UNSAT" p h)
    [ (2, 1); (3, 2); (4, 3); (5, 4); (6, 5) ]

let test_solver_proof_trivial_conflict () =
  let f = Cnf.Formula.create ~num_vars:1 [ clause [ 1 ]; clause [ -1 ] ] in
  let s = Sat.Solver.create f in
  (* formula loaded at create time discovers unsat before enabling...
     so build incrementally instead *)
  let s2 = Sat.Solver.create (Cnf.Formula.create ~num_vars:1 []) in
  Sat.Solver.enable_proof_logging s2;
  Sat.Solver.add_clause s2 [| Cnf.Lit.pos 1 |];
  Sat.Solver.add_clause s2 [| Cnf.Lit.neg 1 |];
  Alcotest.(check bool) "solver unsat" true (Sat.Solver.solve s2 = Sat.Solver.Unsat);
  Alcotest.(check bool) "proof refutes" true
    (Sat.Drat.refutes f (Sat.Solver.proof s2));
  ignore s

let test_sat_formula_has_no_refutation () =
  let f = Cnf.Formula.create ~num_vars:4 [ clause [ 1; 2 ]; clause [ -3; 4 ] ] in
  match solve_logged f with
  | Sat.Solver.Sat, proof ->
      Alcotest.(check bool) "proof steps all RUP" true (Sat.Drat.check f proof);
      Alcotest.(check bool) "no empty clause" false (Sat.Drat.refutes f proof)
  | _ -> Alcotest.fail "formula is SAT"

let test_proof_refuses_xors () =
  let f =
    Cnf.Formula.create_with_xors ~num_vars:2 []
      [ Cnf.Xor_clause.make [ 1; 2 ] true ]
  in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "refused" true
    (try
       Sat.Solver.enable_proof_logging s;
       false
     with Invalid_argument _ -> true)

let prop_unsat_proofs_verify =
  QCheck2.Test.make ~count:200 ~name:"every UNSAT verdict carries a valid proof"
    QCheck2.Gen.(pair (int_bound 1000000) (int_range 1 10))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      (* clause-dense formulas so a good share are UNSAT *)
      let f =
        Test_util.Gen.random_cnf rng ~num_vars:nv ~num_clauses:(6 * nv) ~width:3
      in
      match solve_logged f with
      | Sat.Solver.Unsat, proof ->
          (not (Sat.Brute.is_sat f)) && Sat.Drat.refutes f proof
      | Sat.Solver.Sat, _ -> Sat.Brute.is_sat f
      | Sat.Solver.Unknown, _ -> false)

let () =
  Alcotest.run "drat"
    [
      ( "checker",
        [
          Alcotest.test_case "accepts valid" `Quick test_rup_accepts_valid_step;
          Alcotest.test_case "rejects invalid" `Quick test_rup_rejects_invalid_step;
          Alcotest.test_case "chains" `Quick test_rup_chains_steps;
          Alcotest.test_case "delete ignored" `Quick test_delete_steps_ignored_soundly;
          Alcotest.test_case "needs empty clause" `Quick test_refutes_requires_empty_clause;
        ] );
      ( "format",
        [
          Alcotest.test_case "roundtrip" `Quick test_format_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_format_parse_errors;
          QCheck_alcotest.to_alcotest prop_format_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_of_string_fuzz;
        ] );
      ( "solver",
        [
          Alcotest.test_case "pigeonhole proofs" `Quick test_solver_proof_php;
          Alcotest.test_case "trivial conflict" `Quick test_solver_proof_trivial_conflict;
          Alcotest.test_case "sat formula" `Quick test_sat_formula_has_no_refutation;
          Alcotest.test_case "xors refused" `Quick test_proof_refuses_xors;
          QCheck_alcotest.to_alcotest prop_unsat_proofs_verify;
        ] );
    ]
