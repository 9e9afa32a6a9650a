(* Tests for the CDCL solver with native XOR propagation, validated
   against the brute-force reference solver. *)

let clause = Cnf.Clause.of_dimacs
let xor_c vars rhs = Cnf.Xor_clause.make vars rhs

(* all UNSAT verdicts on pure-CNF formulas in this suite come with a
   checked RUP refutation — see Test_util.Check *)
let solve_formula f = fst (Test_util.Check.checked_solve f)

let check_sat name f expected =
  match (solve_formula f, expected) with
  | Sat.Solver.Sat, true | Sat.Solver.Unsat, false -> ()
  | Sat.Solver.Sat, false -> Alcotest.failf "%s: expected UNSAT, got SAT" name
  | Sat.Solver.Unsat, true -> Alcotest.failf "%s: expected SAT, got UNSAT" name
  | Sat.Solver.Unknown, _ -> Alcotest.failf "%s: unexpected Unknown" name

(* ------------------------------------------------------------------ *)
(* Handcrafted instances *)

let test_empty_formula () =
  check_sat "empty" (Cnf.Formula.create ~num_vars:3 []) true

let test_unit_clauses () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1 ]; clause [ -2 ] ] in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  let m = Sat.Solver.model s in
  Alcotest.(check bool) "v1 true" true (Cnf.Model.value m 1);
  Alcotest.(check bool) "v2 false" false (Cnf.Model.value m 2)

let test_contradictory_units () =
  check_sat "x ∧ ¬x" (Cnf.Formula.create ~num_vars:1 [ clause [ 1 ]; clause [ -1 ] ]) false

let test_empty_clause_unsat () =
  check_sat "empty clause" (Cnf.Formula.create ~num_vars:1 [ clause [] ]) false

let test_implication_chain () =
  (* 1 ∧ (1→2) ∧ (2→3) ∧ ... ∧ (9→10) forces everything true *)
  let chain = List.init 9 (fun i -> clause [ -(i + 1); i + 2 ]) in
  let f = Cnf.Formula.create ~num_vars:10 (clause [ 1 ] :: chain) in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  let m = Sat.Solver.model s in
  for v = 1 to 10 do
    Alcotest.(check bool) (Printf.sprintf "v%d" v) true (Cnf.Model.value m v)
  done

let pigeonhole ~pigeons ~holes =
  (* var p*holes + h + 1 encodes "pigeon p in hole h" *)
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
              (fun p2 -> if p2 > p1 then Some (clause [ -(v p1 h); -(v p2 h) ]) else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  Cnf.Formula.create ~num_vars:(pigeons * holes) (placed @ exclusive)

let test_pigeonhole_unsat () =
  check_sat "PHP(4,3)" (pigeonhole ~pigeons:4 ~holes:3) false

let test_pigeonhole_sat () =
  check_sat "PHP(3,3)" (pigeonhole ~pigeons:3 ~holes:3) true

let test_pigeonhole_unsat_larger () =
  check_sat "PHP(6,5)" (pigeonhole ~pigeons:6 ~holes:5) false

(* ------------------------------------------------------------------ *)
(* XOR propagation *)

let test_xor_unit_propagation () =
  (* 1⊕2 = 1, with 1 forced true → 2 false *)
  let f =
    Cnf.Formula.create_with_xors ~num_vars:2 [ clause [ 1 ] ]
      [ xor_c [ 1; 2 ] true ]
  in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  let m = Sat.Solver.model s in
  Alcotest.(check bool) "v2 forced false" false (Cnf.Model.value m 2)

let test_xor_chain_unsat () =
  (* 1⊕2=1, 2⊕3=1, 1⊕3=1: sum of lhs = 0 but sum of rhs = 1 *)
  let f =
    Cnf.Formula.create_with_xors ~num_vars:3 []
      [ xor_c [ 1; 2 ] true; xor_c [ 2; 3 ] true; xor_c [ 1; 3 ] true ]
  in
  check_sat "inconsistent xor triangle" f false

let test_xor_chain_sat () =
  let f =
    Cnf.Formula.create_with_xors ~num_vars:3 []
      [ xor_c [ 1; 2 ] true; xor_c [ 2; 3 ] true; xor_c [ 1; 3 ] false ]
  in
  check_sat "consistent xor triangle" f true

let test_xor_empty_true_unsat () =
  let f = Cnf.Formula.create_with_xors ~num_vars:1 [] [ xor_c [] true ] in
  check_sat "empty xor rhs=1" f false

let test_xor_empty_false_sat () =
  let f = Cnf.Formula.create_with_xors ~num_vars:1 [] [ xor_c [] false ] in
  check_sat "empty xor rhs=0" f true

let test_xor_long_forced () =
  (* v1..v9 forced true by units; v10 must make parity even *)
  let units = List.init 9 (fun i -> clause [ i + 1 ]) in
  let f =
    Cnf.Formula.create_with_xors ~num_vars:10 units
      [ xor_c [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] false ]
  in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "v10 forced" true (Cnf.Model.value (Sat.Solver.model s) 10)

let test_xor_system_unique_solution () =
  (* Gaussian system with a unique solution: x1=1, x2=0, x3=1 *)
  let f =
    Cnf.Formula.create_with_xors ~num_vars:3 []
      [
        xor_c [ 1 ] true;
        xor_c [ 1; 2 ] true;
        xor_c [ 2; 3 ] true;
      ]
  in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  let m = Sat.Solver.model s in
  Alcotest.(check (list int)) "unique model" [ 1; -2; 3 ] (Cnf.Model.to_dimacs m)

(* ------------------------------------------------------------------ *)
(* Incremental use (blocking-clause style) *)

let test_incremental_blocking () =
  (* enumerate all 4 models of a 2-variable free formula by blocking *)
  let f = Cnf.Formula.create ~num_vars:2 [] in
  let s = Sat.Solver.create f in
  let found = ref [] in
  let blocked = ref [] in
  let rec loop () =
    match Sat.Solver.solve s with
    | Sat.Solver.Sat ->
        let m = Sat.Solver.model s in
        found := Cnf.Model.key m :: !found;
        let block =
          [|
            Cnf.Lit.make 1 (not (Cnf.Model.value m 1));
            Cnf.Lit.make 2 (not (Cnf.Model.value m 2));
          |]
        in
        blocked := block :: !blocked;
        Sat.Solver.add_clause s block;
        loop ()
    | Sat.Solver.Unsat ->
        (* the incremental verdict covers f + the blocking clauses:
           certify that combined formula with a fresh logged solve *)
        Test_util.Check.assert_refutable (Cnf.Formula.add_clauses f !blocked)
    | Sat.Solver.Unknown -> Alcotest.fail "unexpected Unknown"
  in
  loop ();
  Alcotest.(check int) "4 distinct models" 4
    (List.length (List.sort_uniq String.compare !found))

let test_conflict_limit_returns_unknown () =
  (* a hard instance with a 1-conflict budget must give up *)
  let f = pigeonhole ~pigeons:7 ~holes:6 in
  let s = Sat.Solver.create f in
  match Sat.Solver.solve ~conflict_limit:1 s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Sat -> Alcotest.fail "PHP(7,6) cannot be SAT"
  | Sat.Solver.Unsat ->
      (* acceptable only if it solved within the first restart budget;
         PHP(7,6) needs far more than 100 conflicts *)
      Alcotest.fail "expected budget exhaustion"

let test_solver_stats_move () =
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let s = Sat.Solver.create f in
  ignore (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "conflicts counted" true (st.Sat.Solver.conflicts > 0);
  Alcotest.(check bool) "decisions counted" true (st.Sat.Solver.decisions > 0);
  Alcotest.(check bool) "propagations counted" true (st.Sat.Solver.propagations > 0)

(* ------------------------------------------------------------------ *)
(* Bsat *)

let test_bsat_enumerates_all () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1; 2; 3 ] ] in
  let out = Sat.Bsat.enumerate ~limit:100 f in
  Alcotest.(check int) "7 models" 7 (List.length out.Sat.Bsat.models);
  Alcotest.(check bool) "exhausted" true out.Sat.Bsat.exhausted

let test_bsat_respects_limit () =
  let f = Cnf.Formula.create ~num_vars:4 [] in
  let out = Sat.Bsat.enumerate ~limit:5 f in
  Alcotest.(check int) "limit hit" 5 (List.length out.Sat.Bsat.models);
  Alcotest.(check bool) "not exhausted" false out.Sat.Bsat.exhausted

let test_bsat_unsat () =
  let f = Cnf.Formula.create ~num_vars:1 [ clause [ 1 ]; clause [ -1 ] ] in
  let out = Sat.Bsat.enumerate ~limit:10 f in
  Alcotest.(check int) "no models" 0 (List.length out.Sat.Bsat.models);
  Alcotest.(check bool) "exhausted" true out.Sat.Bsat.exhausted

let test_bsat_projected_blocking () =
  (* v3 is functionally determined (v3 = v1): blocking on {1,2} must
     enumerate exactly the 4 projections, each extended consistently *)
  let f =
    Cnf.Formula.create ~sampling_set:[ 1; 2 ] ~num_vars:3
      [ clause [ -1; 3 ]; clause [ 1; -3 ] ]
  in
  let out = Sat.Bsat.enumerate ~limit:100 f in
  Alcotest.(check int) "4 projected models" 4 (List.length out.Sat.Bsat.models);
  Alcotest.(check bool) "exhausted" true out.Sat.Bsat.exhausted;
  List.iter
    (fun m ->
      Alcotest.(check bool) "v3 = v1" (Cnf.Model.value m 1) (Cnf.Model.value m 3))
    out.Sat.Bsat.models

let test_bsat_projection_collapses_classes () =
  (* free v1 v2, sampling set {1}: only 2 cells *)
  let f = Cnf.Formula.create ~sampling_set:[ 1 ] ~num_vars:2 [] in
  let out = Sat.Bsat.enumerate ~limit:100 f in
  Alcotest.(check int) "2 projected models" 2 (List.length out.Sat.Bsat.models)

let test_bsat_count_upto () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1 ] ] in
  Alcotest.(check int) "4 models" 4 (Sat.Bsat.count_upto ~limit:100 f);
  Alcotest.(check int) "clamped" 2 (Sat.Bsat.count_upto ~limit:2 f)

(* ------------------------------------------------------------------ *)
(* Brute-force reference consistency *)

let test_brute_simple () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1; 2 ]; clause [ -1; -2 ] ] in
  (* models: exactly one of v1,v2 true; v3 free → 4 models *)
  Alcotest.(check int) "count" 4 (Sat.Brute.count f);
  Alcotest.(check bool) "sat" true (Sat.Brute.is_sat f)

let test_brute_projected () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ -1; 3 ]; clause [ 1; -3 ] ] in
  Alcotest.(check int) "8->4 on {1,2}" 4 (Sat.Brute.count_projected f [| 1; 2 |])

(* ------------------------------------------------------------------ *)
(* Luby sequence (regression: term 2 used to recurse forever) *)

let test_luby_sequence () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let actual = List.init 15 (fun i -> Sat.Luby.term (i + 1)) in
  Alcotest.(check (list int)) "first 15 terms" expected actual

let test_luby_budget () =
  Alcotest.(check int) "budget scales" 400 (Sat.Luby.budget ~base:100 7)

(* ------------------------------------------------------------------ *)
(* Randomized cross-checks *)

let prop_solver_agrees_with_brute =
  QCheck2.Test.make ~count:400 ~name:"cdcl agrees with brute force"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let expected = Sat.Brute.is_sat f in
      match Test_util.Check.checked_solve f with
      | Sat.Solver.Sat, s ->
          expected && Cnf.Model.satisfies f (Sat.Solver.model s)
      | Sat.Solver.Unsat, _ -> not expected
      | Sat.Solver.Unknown, _ -> false)

let prop_bsat_counts_match_brute =
  QCheck2.Test.make ~count:200 ~name:"bsat enumeration count = brute count"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let expected = Sat.Brute.count f in
      let out = Sat.Bsat.enumerate ~limit:(expected + 10) f in
      out.Sat.Bsat.exhausted && List.length out.Sat.Bsat.models = expected)

let prop_bsat_projected_counts_match_brute =
  QCheck2.Test.make ~count:200 ~name:"projected bsat count = brute projected count"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100000))
    (fun (spec, pseed) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create pseed in
      (* random non-empty projection set *)
      let proj =
        List.filter (fun _ -> Rng.bool rng) (List.init nv (fun i -> i + 1))
      in
      let proj = if proj = [] then [ 1 ] else proj in
      let proj = Array.of_list proj in
      let expected = Sat.Brute.count_projected f proj in
      let out = Sat.Bsat.enumerate ~blocking_vars:proj ~limit:(expected + 10) f in
      out.Sat.Bsat.exhausted && List.length out.Sat.Bsat.models = expected)

let prop_native_xor_matches_blasted =
  (* at sizes beyond brute force, the native XOR engine must agree
     with solving the CNF expansion of the same formula *)
  QCheck2.Test.make ~count:100 ~name:"native xor verdict = blasted verdict"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 8 16))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let f =
        Test_util.Gen.random_formula_with_xors rng ~num_vars:nv
          ~num_clauses:(2 * nv) ~num_xors:3 ~width:3
      in
      let native = Sat.Solver.create f in
      let blasted = Sat.Solver.create (Cnf.Formula.blast_xors f) in
      match (Sat.Solver.solve native, Sat.Solver.solve blasted) with
      | Sat.Solver.Sat, Sat.Solver.Sat ->
          Cnf.Model.satisfies f (Sat.Solver.model native)
      | Sat.Solver.Unsat, Sat.Solver.Unsat -> true
      | _ -> false)

let test_deadline_returns_unknown () =
  (* a deadline in the past must abort promptly with Unknown on an
     instance too hard to finish instantly *)
  let f = pigeonhole ~pigeons:10 ~holes:9 in
  let s = Sat.Solver.create f in
  let deadline = Unix.gettimeofday () +. 0.05 in
  let t0 = Unix.gettimeofday () in
  let r = Sat.Solver.solve ~deadline s in
  let elapsed = Unix.gettimeofday () -. t0 in
  match r with
  | Sat.Solver.Unknown ->
      Alcotest.(check bool) (Printf.sprintf "prompt (%.2fs)" elapsed) true
        (elapsed < 5.0)
  | Sat.Solver.Unsat -> () (* finished within the slice: also fine *)
  | Sat.Solver.Sat -> Alcotest.fail "PHP(10,9) cannot be SAT"

let test_bsat_deadline () =
  let f = pigeonhole ~pigeons:10 ~holes:9 in
  let out =
    Sat.Bsat.enumerate ~deadline:(Unix.gettimeofday () +. 0.05) ~limit:5 f
  in
  Alcotest.(check bool) "flagged or finished" true
    (out.Sat.Bsat.timed_out || out.Sat.Bsat.exhausted)

let prop_bsat_models_distinct_on_projection =
  QCheck2.Test.make ~count:100 ~name:"bsat models pairwise distinct on projection"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let out = Sat.Bsat.enumerate ~limit:50 f in
      let proj = Cnf.Formula.sampling_vars f in
      let keys =
        List.map (fun m -> Cnf.Model.key (Cnf.Model.restrict m proj)) out.Sat.Bsat.models
      in
      List.length keys = List.length (List.sort_uniq String.compare keys))

(* The incremental witness check against the full one: random
   formulas with XORs plus a random XOR layer, walked through a model
   sequence mixing satisfying models, satisfying models one bit away,
   random models and wider models. The reference is always the last
   model that passed, as in an enumeration. *)
let prop_incremental_check_matches_full =
  QCheck2.Test.make ~count:300 ~name:"incremental witness check = full check"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 1_000_000))
    (fun (spec, seed) ->
      let f = Test_util.Gen.build_spec spec in
      let rng = Rng.create seed in
      let n = f.Cnf.Formula.num_vars in
      let layer = List.init (Rng.int rng 3) (fun _ -> Test_util.Gen.random_xor rng ~num_vars:n) in
      let full = Cnf.Formula.add_xors f layer in
      let model_of bits width = Cnf.Model.make width (fun v -> v <= n && bits land (1 lsl (v - 1)) <> 0) in
      let sat =
        List.filter
          (fun bits -> Cnf.Model.satisfies full (model_of bits n))
          (List.init (1 lsl n) Fun.id)
        |> Array.of_list
      in
      if Array.length sat = 0 then true
      else begin
        let occ = Cnf.Model.occurrences f in
        let last = ref (model_of sat.(0) n) in
        let ok = ref true in
        for _ = 1 to 30 do
          let bits =
            match Rng.int rng 3 with
            | 0 -> sat.(Rng.int rng (Array.length sat))
            | 1 -> sat.(Rng.int rng (Array.length sat)) lxor (1 lsl Rng.int rng n)
            | _ -> Rng.int rng (1 lsl n)
          in
          let m = model_of bits (if Rng.int rng 8 = 0 then n + 2 else n) in
          let expected = Cnf.Model.satisfies full m in
          if Cnf.Model.satisfies_after occ ~layer ~prev:!last m <> expected then ok := false;
          if expected then last := m
        done;
        !ok
      end)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_incremental_check_matches_full;
      prop_solver_agrees_with_brute;
      prop_bsat_counts_match_brute;
      prop_bsat_projected_counts_match_brute;
      prop_bsat_models_distinct_on_projection;
      prop_native_xor_matches_blasted;
    ]

let () =
  Alcotest.run "sat"
    [
      ( "basic",
        [
          Alcotest.test_case "empty formula" `Quick test_empty_formula;
          Alcotest.test_case "unit clauses" `Quick test_unit_clauses;
          Alcotest.test_case "contradictory units" `Quick test_contradictory_units;
          Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "pigeonhole unsat larger" `Quick test_pigeonhole_unsat_larger;
        ] );
      ( "xor",
        [
          Alcotest.test_case "unit propagation" `Quick test_xor_unit_propagation;
          Alcotest.test_case "chain unsat" `Quick test_xor_chain_unsat;
          Alcotest.test_case "chain sat" `Quick test_xor_chain_sat;
          Alcotest.test_case "empty true" `Quick test_xor_empty_true_unsat;
          Alcotest.test_case "empty false" `Quick test_xor_empty_false_sat;
          Alcotest.test_case "long forced" `Quick test_xor_long_forced;
          Alcotest.test_case "unique solution system" `Quick test_xor_system_unique_solution;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "blocking enumeration" `Quick test_incremental_blocking;
          Alcotest.test_case "conflict limit" `Quick test_conflict_limit_returns_unknown;
          Alcotest.test_case "deadline" `Quick test_deadline_returns_unknown;
          Alcotest.test_case "bsat deadline" `Quick test_bsat_deadline;
          Alcotest.test_case "stats" `Quick test_solver_stats_move;
        ] );
      ( "bsat",
        [
          Alcotest.test_case "enumerates all" `Quick test_bsat_enumerates_all;
          Alcotest.test_case "respects limit" `Quick test_bsat_respects_limit;
          Alcotest.test_case "unsat" `Quick test_bsat_unsat;
          Alcotest.test_case "projected blocking" `Quick test_bsat_projected_blocking;
          Alcotest.test_case "projection collapses" `Quick test_bsat_projection_collapses_classes;
          Alcotest.test_case "count_upto" `Quick test_bsat_count_upto;
        ] );
      ( "luby",
        [
          Alcotest.test_case "sequence" `Quick test_luby_sequence;
          Alcotest.test_case "budget" `Quick test_luby_budget;
        ] );
      ( "brute",
        [
          Alcotest.test_case "simple" `Quick test_brute_simple;
          Alcotest.test_case "projected" `Quick test_brute_projected;
        ] );
      ("properties", qcheck_cases);
    ]
