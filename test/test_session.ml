(* Tests for the incremental solver-session layer: assumption solving,
   retractable constraint groups, the differential guarantee that
   session enumeration is observationally equal to the fresh-solver
   path, and end-to-end checks of ApproxMC and UniGen against brute
   force. *)

let random_lits rng ~num_vars =
  List.init
    (1 + Rng.int rng 3)
    (fun _ -> Cnf.Lit.make (1 + Rng.int rng num_vars) (Rng.bool rng))

(* ------------------------------------------------------------------ *)
(* Handcrafted group / assumption behaviours *)

let test_failed_assumptions () =
  (* 1 ∧ (¬1 ∨ 2), assume ¬2: unsatisfiable by assumption only *)
  let f =
    Cnf.Formula.create ~num_vars:2
      [ Cnf.Clause.of_dimacs [ 1 ]; Cnf.Clause.of_dimacs [ -1; 2 ] ]
  in
  (* checked_solve certifies the assumption-UNSAT against
     f + assumption units with a RUP refutation *)
  let r, s = Test_util.Check.checked_solve ~assumptions:[ Cnf.Lit.neg 2 ] f in
  (match r with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat under ~assumptions:[-2]");
  let failed = Sat.Solver.failed_assumptions s in
  Alcotest.(check bool) "failed set nonempty" true (failed <> []);
  let units = List.map (fun l -> Cnf.Clause.of_list [ l ]) failed in
  Alcotest.(check bool) "formula + failed core unsat" false
    (Sat.Brute.is_sat (Cnf.Formula.add_clauses f units));
  (* the solver is not broken: a plain solve still succeeds *)
  Alcotest.(check bool) "solver survives" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_pop_rescinds_group_unsat () =
  let f = Cnf.Formula.create ~num_vars:3 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let s = Sat.Solver.create f in
  Sat.Solver.push_group s;
  Sat.Solver.add_group_clause s [ Cnf.Lit.pos 3 ];
  Sat.Solver.add_group_clause s [ Cnf.Lit.neg 3 ];
  Alcotest.(check bool) "group contradiction" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.pop_group s;
  Alcotest.(check bool) "unsat rescinded by pop" true
    (Sat.Solver.solve s = Sat.Solver.Sat)

let test_base_unit_shadowed_by_group () =
  (* a base unit added while a group assignment contradicts it must
     survive the pop (the lost_units revival path) *)
  let f = Cnf.Formula.create ~num_vars:2 [] in
  let s = Sat.Solver.create f in
  Sat.Solver.push_group s;
  Sat.Solver.add_group_clause s [ Cnf.Lit.neg 1 ];
  Alcotest.(check bool) "group unit sat" true
    (Sat.Solver.solve s = Sat.Solver.Sat);
  Sat.Solver.add_clause s [ Cnf.Lit.pos 1 ];
  Alcotest.(check bool) "base vs group contradiction" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.pop_group s;
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
      Alcotest.(check bool) "base unit survives pop" true
        (Cnf.Model.value (Sat.Solver.model s) 1)
  | _ -> Alcotest.fail "expected Sat after pop")

(* ------------------------------------------------------------------ *)
(* Property (a): solve ~assumptions = solving formula + unit clauses *)

let prop_assumptions_agree =
  QCheck2.Test.make ~count:300
    ~name:"solve ~assumptions = formula + unit clauses"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100_000))
    (fun (spec, aseed) ->
      let f = Test_util.Gen.build_spec spec in
      let rng = Rng.create aseed in
      let assumptions =
        List.init (Rng.int rng 5) (fun _ ->
            Cnf.Lit.make (1 + Rng.int rng f.Cnf.Formula.num_vars) (Rng.bool rng))
      in
      let units = List.map (fun l -> Cnf.Clause.of_list [ l ]) assumptions in
      let expected = Sat.Brute.is_sat (Cnf.Formula.add_clauses f units) in
      match Test_util.Check.checked_solve ~assumptions f with
      | Sat.Solver.Sat, s ->
          expected
          && Cnf.Model.satisfies f (Sat.Solver.model s)
          && List.for_all
               (fun l ->
                 Cnf.Model.value (Sat.Solver.model s) (Cnf.Lit.var l)
                 = Cnf.Lit.sign l)
               assumptions
      | Sat.Solver.Unsat, s ->
          (not expected)
          &&
          (* when the formula alone is satisfiable the failed-assumption
             core must be a genuine reason for the refusal *)
          if Sat.Brute.is_sat f then
            let failed = Sat.Solver.failed_assumptions s in
            failed <> []
            && not
                 (Sat.Brute.is_sat
                    (Cnf.Formula.add_clauses f
                       (List.map (fun l -> Cnf.Clause.of_list [ l ]) failed)))
          else true
      | Sat.Solver.Unknown, _ -> false)

(* ------------------------------------------------------------------ *)
(* Property (b): after pop_group the solver answers as if the group
   had never been pushed — across repeated push/solve/pop rounds *)

let prop_pop_restores =
  QCheck2.Test.make ~count:250 ~name:"pop_group restores pre-push behaviour"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_bound 100_000))
    (fun (spec, gseed1, gseed2) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let base_sat = Sat.Brute.is_sat f in
      let s = Sat.Solver.create f in
      let base_matches () =
        match Sat.Solver.solve s with
        | Sat.Solver.Sat ->
            base_sat && Cnf.Model.satisfies f (Sat.Solver.model s)
        | Sat.Solver.Unsat -> not base_sat
        | Sat.Solver.Unknown -> false
      in
      let layer_round gseed =
        let rng = Rng.create gseed in
        let lits =
          List.init (1 + Rng.int rng 5) (fun _ -> random_lits rng ~num_vars:nv)
        in
        let xor = Test_util.Gen.random_xor rng ~num_vars:nv in
        let g =
          Cnf.Formula.add_xors
            (Cnf.Formula.add_clauses f (List.map Cnf.Clause.of_list lits))
            [ xor ]
        in
        Sat.Solver.push_group s;
        List.iter (Sat.Solver.add_group_clause s) lits;
        Sat.Solver.add_group_xor s xor;
        let expected = Sat.Brute.is_sat g in
        let ok =
          match Sat.Solver.solve s with
          | Sat.Solver.Sat ->
              expected && Cnf.Model.satisfies g (Sat.Solver.model s)
          | Sat.Solver.Unsat -> not expected
          | Sat.Solver.Unknown -> false
        in
        Sat.Solver.pop_group s;
        ok
      in
      base_matches () && layer_round gseed1 && base_matches ()
      && layer_round gseed2 && base_matches ())

(* ------------------------------------------------------------------ *)
(* Property (c): blocking clauses persisted into the base survive
   XOR-layer swaps — no witness is ever returned twice, and the
   persisted chunks reconstruct the exact witness set *)

let small_spec =
  QCheck2.Gen.(
    map
      (fun (seed, nv, nc, nx) -> (seed, 1 + nv, nc, nx))
      (tup4 (int_bound 1_000_000) (int_bound 6) (int_bound 18) (int_bound 3)))

let prop_blocking_survives_swaps =
  QCheck2.Test.make ~count:120
    ~name:"persisted blocking clauses survive xor-layer swaps"
    QCheck2.Gen.(pair small_spec (int_bound 100_000))
    (fun (spec, xseed) ->
      let f = Test_util.Gen.build_spec spec in
      let proj = Cnf.Formula.sampling_vars f in
      let total = Sat.Brute.count_projected f proj in
      let full = Sat.Bsat.enumerate ~limit:(total + 1) f in
      let sess = Sat.Bsat.Session.create f in
      let rng = Rng.create xseed in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      let finished = ref false in
      let rounds = ref 0 in
      while (not !finished) && !rounds <= (total / 3) + 2 do
        incr rounds;
        let out = Sat.Bsat.Session.enumerate ~persist_blocking:true ~limit:3 sess in
        List.iter
          (fun m ->
            let k = Cnf.Model.key m in
            if Hashtbl.mem seen k then ok := false;
            Hashtbl.replace seen k ())
          out.Sat.Bsat.models;
        if out.Sat.Bsat.models = [] then finished := true
        else begin
          (* swap in a random XOR layer between persisting chunks: its
             witnesses must respect the blocking clauses added so far
             and the layer must vanish again afterwards *)
          let xors = [ Test_util.Gen.random_xor rng ~num_vars:f.Cnf.Formula.num_vars ] in
          let layer = Sat.Bsat.Session.enumerate ~xors ~limit:(total + 1) sess in
          let g = Cnf.Formula.add_xors f xors in
          List.iter
            (fun m ->
              if Hashtbl.mem seen (Cnf.Model.key m) then ok := false;
              if not (Cnf.Model.satisfies g m) then ok := false)
            layer.Sat.Bsat.models
        end
      done;
      !ok && !finished
      && Hashtbl.length seen = total
      && List.for_all
           (fun m -> Hashtbl.mem seen (Cnf.Model.key m))
           full.Sat.Bsat.models)

(* ------------------------------------------------------------------ *)
(* Differential guard: session enumeration equals the fresh path,
   layer after layer from one warm session *)

let prop_session_matches_fresh =
  QCheck2.Test.make ~count:200 ~name:"session enumerate = fresh enumerate"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_range 1 8))
    (fun (spec, xseed, limit) ->
      let f = Test_util.Gen.build_spec spec in
      let rng = Rng.create xseed in
      let sess = Sat.Bsat.Session.create f in
      let ok = ref true in
      for _ = 1 to 3 do
        let xors =
          List.init (Rng.int rng 3) (fun _ ->
              Test_util.Gen.random_xor rng ~num_vars:f.Cnf.Formula.num_vars)
        in
        let fresh = Sat.Bsat.enumerate ~limit (Cnf.Formula.add_xors f xors) in
        let inc = Sat.Bsat.Session.enumerate ~xors ~limit sess in
        if fresh.Sat.Bsat.exhausted <> inc.Sat.Bsat.exhausted then ok := false;
        if List.length fresh.Sat.Bsat.models <> List.length inc.Sat.Bsat.models
        then ok := false;
        (* the witness lists are canonical (hence comparable) exactly
           when the cell was enumerated completely *)
        if
          fresh.Sat.Bsat.exhausted
          && List.map Cnf.Model.key fresh.Sat.Bsat.models
             <> List.map Cnf.Model.key inc.Sat.Bsat.models
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* End-to-end differential: ApproxMC and UniGen, which run on warm
   sessions, agree with brute force *)

let test_approxmc_matches_brute () =
  let epsilon = 0.8 in
  let hashed_runs = ref 0 in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        Test_util.Gen.random_formula_with_xors rng ~num_vars:12 ~num_clauses:8
          ~num_xors:1 ~width:3
      in
      let brute = float_of_int (Sat.Brute.count f) in
      let name = Printf.sprintf "seed %d" seed in
      match
        Counting.Approxmc.count ~iterations:5 ~rng:(Rng.create (seed + 1))
          ~epsilon ~delta:0.2 f
      with
      | Error Counting.Approxmc.Unsat -> Alcotest.(check (float 0.0)) name 0.0 brute
      | Error Counting.Approxmc.Timed_out -> Alcotest.fail (name ^ ": timed out")
      | Ok r ->
          let est = r.Counting.Approxmc.estimate in
          if r.Counting.Approxmc.exact then
            Alcotest.(check (float 0.0)) (name ^ " exact") brute est
          else begin
            incr hashed_runs;
            (* the hashed path runs on one warm session per iteration;
               these fixed seeds land inside the (1+eps) envelope *)
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.1f within (1+eps) of %.0f" name est brute)
              true
              (est >= brute /. (1.0 +. epsilon) && est <= brute *. (1.0 +. epsilon))
          end)
    [ 3; 17; 42; 101 ];
  Alcotest.(check bool) "some count took the hashed path" true (!hashed_runs > 0)

let test_unigen_witnesses_are_models () =
  let sampled = ref 0 in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        Test_util.Gen.random_formula_with_xors rng ~num_vars:12 ~num_clauses:8
          ~num_xors:0 ~width:3
      in
      let name = Printf.sprintf "seed %d" seed in
      match
        Sampling.Unigen.prepare ~count_iterations:5
          ~rng:(Rng.create (seed + 1)) ~epsilon:6.0 f
      with
      | Error Sampling.Unigen.Unsat_formula ->
          Alcotest.(check bool) name false (Sat.Brute.is_sat f)
      | Error _ -> Alcotest.fail (name ^ ": prepare failed")
      | Ok p ->
          let draw jobs =
            Sampling.Unigen.sample_batch ~max_attempts:10 ~jobs ~seed:99 p 10
            |> Array.to_list
            |> List.map (function
                 | Ok m ->
                     Alcotest.(check bool) (name ^ " witness satisfies") true
                       (Cnf.Model.satisfies f m);
                     Cnf.Model.key m
                 | Error _ -> "<fail>")
          in
          incr sampled;
          let keys = draw 1 in
          Alcotest.(check bool) (name ^ " some witness") true
            (List.exists (fun k -> k <> "<fail>") keys);
          Alcotest.(check (list string)) (name ^ " jobs 2 = jobs 1") keys (draw 2))
    [ 5; 23; 77 ];
  Alcotest.(check bool) "some formula was sampled" true (!sampled > 0)

(* ------------------------------------------------------------------ *)
(* Session lifetime: the warm sessions a prepared state leaves on the
   domains that drew from it belong to that state. Once the caller
   drops the state, no pool worker may keep its formula alive. *)

let[@inline never] prepare_and_draw pool =
  let f = Cnf.Formula.create ~num_vars:12 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some f);
  (match
     Sampling.Unigen.prepare ~count_iterations:3 ~pool ~rng:(Rng.create 7)
       ~epsilon:6.0 f
   with
  | Ok p ->
      Alcotest.(check bool) "hashed phase" false (Sampling.Unigen.is_easy p);
      let outs = Sampling.Unigen.sample_batch ~pool ~max_attempts:10 ~seed:3 p 8 in
      Alcotest.(check bool) "drew witnesses" true (Array.exists Result.is_ok outs)
  | Error _ -> Alcotest.fail "prepare failed");
  weak

let test_sessions_freed_with_prepared_state () =
  Parallel.Domain_pool.with_pool ~jobs:2 @@ fun pool ->
  let weak = prepare_and_draw pool in
  Gc.full_major ();
  Alcotest.(check bool) "formula collected while the pool lives" false
    (Weak.check weak 0)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_assumptions_agree;
      prop_pop_restores;
      prop_blocking_survives_swaps;
      prop_session_matches_fresh;
    ]

let () =
  Alcotest.run "session"
    [
      ( "groups",
        [
          Alcotest.test_case "failed assumptions" `Quick test_failed_assumptions;
          Alcotest.test_case "pop rescinds group unsat" `Quick
            test_pop_rescinds_group_unsat;
          Alcotest.test_case "base unit shadowed by group" `Quick
            test_base_unit_shadowed_by_group;
        ] );
      ("properties", qcheck_cases);
      ( "differential",
        [
          Alcotest.test_case "approxmc = brute count within 1+eps" `Quick
            test_approxmc_matches_brute;
          Alcotest.test_case "unigen witnesses are models" `Quick
            test_unigen_witnesses_are_models;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "sessions freed with the prepared state" `Quick
            test_sessions_freed_with_prepared_state;
        ] );
    ]
