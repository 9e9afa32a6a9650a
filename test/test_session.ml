(* Tests for the incremental solver-session layer: retractable
   constraint groups, the differential guarantee that
   session enumeration is observationally equal to the fresh-solver
   path, blocking clauses that resume the search from the model's
   trail ([Solver.block]), end-to-end checks of ApproxMC and UniGen
   against brute force, and golden witness streams. *)

let random_lits rng ~num_vars =
  Array.init
    (1 + Rng.int rng 3)
    (fun _ -> Cnf.Lit.make (1 + Rng.int rng num_vars) (Rng.bool rng))

(* ------------------------------------------------------------------ *)
(* Handcrafted group behaviours *)

let test_pop_rescinds_group_unsat () =
  let f = Cnf.Formula.create ~num_vars:3 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let s = Sat.Solver.create f in
  Sat.Solver.push_group s;
  Sat.Solver.add_group_clause s [| Cnf.Lit.pos 3 |];
  Sat.Solver.add_group_clause s [| Cnf.Lit.neg 3 |];
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
  Sat.Solver.add_group_clause s [| Cnf.Lit.neg 1 |];
  Alcotest.(check bool) "group unit sat" true
    (Sat.Solver.solve s = Sat.Solver.Sat);
  Sat.Solver.add_clause s [| Cnf.Lit.pos 1 |];
  Alcotest.(check bool) "base vs group contradiction" true
    (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.pop_group s;
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
      Alcotest.(check bool) "base unit survives pop" true
        (Cnf.Model.value (Sat.Solver.model s) 1)
  | _ -> Alcotest.fail "expected Sat after pop")

let test_base_clause_under_broken_group () =
  (* a base clause added while a pushed group holds a contradiction
     must still hold once that group pops *)
  let s = Sat.Solver.create (Cnf.Formula.create ~num_vars:2 []) in
  Sat.Solver.push_group s;
  Sat.Solver.add_group_xor s (Cnf.Xor_clause.make [ 1 ] true);
  Sat.Solver.add_group_xor s (Cnf.Xor_clause.make [ 1 ] false);
  Sat.Solver.add_clause s [| Cnf.Lit.pos 2 |];
  Alcotest.(check bool) "group contradiction" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.pop_group s;
  match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
      Alcotest.(check bool) "base clause survives pop" true
        (Cnf.Model.value (Sat.Solver.model s) 2)
  | _ -> Alcotest.fail "expected Sat after pop"

(* ------------------------------------------------------------------ *)
(* Property: after pop_group the solver answers as if the group
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
            (Cnf.Formula.add_clauses f lits)
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
          let draw pool =
            Sampling.Unigen.sample_batch ~max_attempts:10 ?pool ~seed:99 p 10
            |> Array.to_list
            |> List.map (function
                 | Ok m ->
                     Alcotest.(check bool) (name ^ " witness satisfies") true
                       (Cnf.Model.satisfies f m);
                     Cnf.Model.key m
                 | Error _ -> "<fail>")
          in
          incr sampled;
          let keys = draw None in
          Alcotest.(check bool) (name ^ " some witness") true
            (List.exists (fun k -> k <> "<fail>") keys);
          Alcotest.(check (list string)) (name ^ " pool of 2 = no pool") keys
            (Parallel.Domain_pool.with_pool ~jobs:2 (fun pool -> draw (Some pool))))
    [ 5; 23; 77 ];
  Alcotest.(check bool) "some formula was sampled" true (!sampled > 0)

(* Warm = cold: a freshly prepared state, which draws on the workers
   ApproxMC counted with, takes accepted cells' witnesses from their
   caches within its first 10 draws; after 300 draws its per-domain
   caches decide many cells. Both times it draws what a copy imported
   from its portable view draws, with every cache empty. *)
let test_warm_cache_matches_cold () =
  let f =
    Lazy.force (Option.get (Workload.Suite.by_name "case_m1")).Workload.Suite.formula
  in
  Parallel.Domain_pool.with_pool ~jobs:2 @@ fun pool ->
  match Sampling.Unigen.prepare ~pool ~rng:(Rng.create 7) ~epsilon:6.0 f with
  | Error _ -> Alcotest.fail "prepare failed"
  | Ok warm ->
      Alcotest.(check bool) "hashed phase" false (Sampling.Unigen.is_easy warm);
      let cold () = Sampling.Unigen.import ~formula:f (Sampling.Unigen.export warm) in
      let key = function Ok m -> Cnf.Model.key m | Error _ -> "-" in
      let serial ?(n = 50) ~seed p =
        List.init n (fun i -> Sampling.Unigen.sample_index ~max_attempts:20 ~seed p i)
      in
      let keys = List.map (fun (o, _) -> key o) in
      let seeded = serial ~n:10 ~seed:3 warm in
      Alcotest.(check bool) "the first 10 draws reuse ApproxMC's witnesses" true
        (List.exists (fun (_, st) -> st.Sampling.Sampler.models_from_known > 0) seeded);
      Alcotest.(check (list string)) "sample_index 0..9: seeded = cold"
        (keys (serial ~n:10 ~seed:3 (cold ()))) (keys seeded);
      ignore (Sampling.Unigen.sample_batch ~pool ~max_attempts:20 ~seed:11 warm 300);
      Alcotest.(check bool) "the 300 draws decided cells from the cache" true
        ((Sampling.Unigen.stats warm).Sampling.Sampler.cells_from_known > 0);
      let serial = serial ~seed:13 in
      let warm_serial = serial warm in
      Alcotest.(check bool) "the compared draws decide cells from the cache" true
        (List.exists (fun (_, st) -> st.Sampling.Sampler.cells_from_known > 0) warm_serial);
      Alcotest.(check (list string)) "sample_index 0..49: warm = cold"
        (List.map (fun (o, _) -> key o) (serial (cold ())))
        (List.map (fun (o, _) -> key o) warm_serial);
      let batch p =
        Array.to_list
          (Array.map key (Sampling.Unigen.sample_batch ~pool ~max_attempts:20 ~seed:17 p 50))
      in
      Alcotest.(check (list string)) "jobs 2 batch: warm = cold" (batch (cold ())) (batch warm)

(* [prepare]'s one easy check, with limit max(hi_limit, pivot + 1),
   decides what the paper's two did: UniGen's with limit hi_limit, then
   ApproxMC's inside [Approxmc.count]. The oracle runs those two and
   imports the phase they give; the prepared state must agree on the
   phase, q and the estimate, count exactly when the oracle's count is
   exact (no core iteration, so no session reuse), and draw the same
   witnesses. The formulas
   have exactly k solutions for k around hiThresh (62.7 at ε = 6, 45.7
   at ε = 50) and around ApproxMC's pivot + 1 = 47: at ε = 50 hi_limit
   is 46, below 47, and k = 46 is counted exactly past the easy phase. *)
let exactly ~k =
  let w = 7 in
  Cnf.Formula.create ~num_vars:w
    (List.init ((1 lsl w) - k) (fun j ->
         (* the clause that only assignment k + j falsifies *)
         Cnf.Clause.of_dimacs
           (List.init w (fun b -> if ((k + j) lsr b) land 1 = 1 then -(b + 1) else b + 1))))

let two_checks_oracle ~epsilon ~seed f =
  let kappa, pivot = Sampling.Kappa_pivot.compute epsilon in
  let hi = Sampling.Kappa_pivot.hi_thresh ~kappa ~pivot in
  let out = Sat.Bsat.enumerate ~limit:(int_of_float (Float.floor hi) + 1) f in
  let n = List.length out.Sat.Bsat.models in
  let p_phase, exact =
    if out.Sat.Bsat.exhausted && float_of_int n <= hi then
      ( Sampling.Unigen.Portable_easy
          { num_vars = f.Cnf.Formula.num_vars;
            models = List.map Cnf.Model.to_dimacs out.Sat.Bsat.models },
        false )
    else
      match
        Counting.Approxmc.count ~iterations:5 ~rng:(Rng.create seed) ~epsilon:0.8
          ~delta:0.8 f
      with
      | Error _ -> Alcotest.fail "oracle count failed"
      | Ok c ->
          let log2 x = Float.log x /. Float.log 2.0 in
          ( Sampling.Unigen.Portable_hashed
              { q =
                  int_of_float
                    (Float.ceil
                       (c.Counting.Approxmc.log2_estimate +. log2 1.8
                      -. log2 (float_of_int pivot)));
                count_estimate = c.Counting.Approxmc.estimate },
            c.Counting.Approxmc.exact )
  in
  ( Sampling.Unigen.import ~formula:f
      { Sampling.Unigen.p_kappa = kappa; p_pivot = pivot; p_phase },
    exact )

let test_one_easy_check_boundary () =
  let phases = ref [] in
  List.iter
    (fun (epsilon, ks) ->
      List.iter
        (fun k ->
          let name = Printf.sprintf "eps %g, %d solutions" epsilon k in
          let f = exactly ~k in
          let seed = 17 + k in
          let oracle, exact = two_checks_oracle ~epsilon ~seed f in
          match
            Sampling.Unigen.prepare ~count_iterations:5 ~rng:(Rng.create seed) ~epsilon f
          with
          | Error _ -> Alcotest.fail (name ^ ": prepare failed")
          | Ok p ->
              let easy = Sampling.Unigen.is_easy p in
              Alcotest.(check bool) (name ^ ": is_easy") (Sampling.Unigen.is_easy oracle) easy;
              Alcotest.(check (option (pair int int))) (name ^ ": q_range")
                (Sampling.Unigen.q_range oracle) (Sampling.Unigen.q_range p);
              Alcotest.(check (float 0.0)) (name ^ ": count_estimate")
                (Sampling.Unigen.count_estimate oracle) (Sampling.Unigen.count_estimate p);
              if not easy then
                Alcotest.(check bool) (name ^ ": counted exactly") exact
                  (snd (Sampling.Unigen.prepare_solver p) = 0);
              let draws t =
                Array.to_list
                  (Array.map
                     (function Ok m -> Cnf.Model.key m | Error _ -> "-")
                     (Sampling.Unigen.sample_batch ~max_attempts:20 ~seed:5 t 12))
              in
              Alcotest.(check (list string)) (name ^ ": first draws") (draws oracle) (draws p);
              phases := (if easy then `Easy else if exact then `Exact else `Hashed) :: !phases)
        ks)
    [ (6.0, [ 45; 46; 47; 48; 61; 62; 63; 64 ]); (50.0, [ 44; 45; 46; 47; 48 ]) ];
  Alcotest.(check bool) "easy, exactly counted and hashed formulas all met" true
    (List.for_all (fun ph -> List.mem ph !phases) [ `Easy; `Exact; `Hashed ])

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
(* Solver.block: the blocking clause is installed like a learnt clause
   and the next solve resumes from the model's trail *)

let violation_of f =
  match f () with
  | _ -> None
  | exception Audit.Violation r -> Some r.Audit.invariant

let expect_sat name s =
  match Sat.Solver.solve s with
  | Sat.Solver.Sat -> Sat.Solver.model s
  | _ -> Alcotest.failf "%s: expected Sat" name

(* the literal of [v] that the last model falsifies, and its negation *)
let false_lit s v = Cnf.Lit.make v (not (Cnf.Model.value (Sat.Solver.model s) v))
let true_lit s v = Cnf.Lit.make v (Cnf.Model.value (Sat.Solver.model s) v)

let levels s =
  let view = Sat.Solver.audit_view s in
  (view, fun v -> view.Audit.State.level.(v))

(* [n] unconstrained variables: every one is a decision at its own level *)
let test_block_deepest_unique () =
  let s = Sat.Solver.create (Cnf.Formula.create ~num_vars:6 []) in
  let m = expect_sat "first" s in
  let _, level = levels s in
  let at l = List.find (fun v -> level v = l) [ 1; 2; 3; 4; 5; 6 ] in
  let a = at 2 and b = at 5 in
  Sat.Solver.block s [| false_lit s a; false_lit s b |];
  let view, level = levels s in
  Alcotest.(check int) "backjump to the second-deepest level" 2
    view.Audit.State.decision_level;
  Alcotest.(check int) "deepest literal implied there" 2 (level b);
  Alcotest.(check bool) "deepest literal now true" true
    (view.Audit.State.assigns.(b) = if Cnf.Model.value m b then -1 else 1);
  Alcotest.(check bool) "implication pending propagation" true
    (view.Audit.State.qhead < Array.length view.Audit.State.trail);
  Sat.Solver.check_invariants s;
  let m' = expect_sat "resumed" s in
  Alcotest.(check bool) "blocked assignment excluded" false
    (Cnf.Model.value m' a = Cnf.Model.value m a
    && Cnf.Model.value m' b = Cnf.Model.value m b)

(* x1 <-> x2 and x3 <-> x4: each pair shares one decision level *)
let test_block_tied_levels () =
  let f =
    Cnf.Formula.create ~num_vars:4
      (List.map Cnf.Clause.of_dimacs [ [ -1; 2 ]; [ 1; -2 ]; [ -3; 4 ]; [ 3; -4 ] ])
  in
  let s = Sat.Solver.create f in
  let m = expect_sat "first" s in
  let _, level = levels s in
  Alcotest.(check int) "pair shares a level" (level 1) (level 2);
  let top = level 1 in
  Sat.Solver.block s [| false_lit s 1; false_lit s 2 |];
  let view, _ = levels s in
  Alcotest.(check int) "one level below the tie" (top - 1) view.Audit.State.decision_level;
  Alcotest.(check bool) "both watches unassigned" true
    (view.Audit.State.assigns.(1) = 0 && view.Audit.State.assigns.(2) = 0);
  Alcotest.(check bool) "nothing enqueued" true
    (view.Audit.State.qhead = Array.length view.Audit.State.trail);
  Sat.Solver.check_invariants s;
  let m' = expect_sat "resumed" s in
  Alcotest.(check bool) "pair flipped" true
    (Cnf.Model.value m' 1 <> Cnf.Model.value m 1 && Cnf.Model.satisfies f m')

let at_root name s =
  Alcotest.(check int) (name ^ ": inserted at the root") 0
    (Sat.Solver.audit_view s).Audit.State.decision_level

let test_block_fallbacks () =
  (* a single literal above level 0 is a root unit *)
  let s = Sat.Solver.create (Cnf.Formula.create ~num_vars:3 []) in
  let m = expect_sat "unit" s in
  Sat.Solver.block s [| false_lit s 2 |];
  at_root "unit" s;
  let m' = expect_sat "unit resumed" s in
  Alcotest.(check bool) "unit flipped" true (Cnf.Model.value m' 2 <> Cnf.Model.value m 2);
  (* with a group pushed, the activation literal sits at assumption
     level 1: a clause whose second level is that one goes to the root *)
  let s = Sat.Solver.create (Cnf.Formula.create ~num_vars:3 []) in
  Sat.Solver.push_group s;
  ignore (expect_sat "group" s);
  Sat.Solver.block s [| false_lit s 3 |];
  at_root "group" s;
  ignore (expect_sat "group resumed" s);
  (* proof logging always inserts at the root *)
  let s = Sat.Solver.create_empty 4 in
  Sat.Solver.enable_proof_logging s;
  ignore (expect_sat "proof" s);
  let _, level = levels s in
  let a = List.find (fun v -> level v = 1) [ 1; 2; 3; 4 ]
  and b = List.find (fun v -> level v = 3) [ 1; 2; 3; 4 ] in
  Sat.Solver.block s [| false_lit s a; false_lit s b |];
  at_root "proof" s

let test_block_empties_cell () =
  (* x1 is fixed, x2 free: two witnesses, then the cell is empty *)
  let f = Cnf.Formula.create ~num_vars:2 [ Cnf.Clause.of_dimacs [ 1 ] ] in
  let s = Sat.Solver.create f in
  ignore (expect_sat "first" s);
  Sat.Solver.block s [| false_lit s 1; false_lit s 2 |];
  ignore (expect_sat "second" s);
  Sat.Solver.block s [| false_lit s 1; false_lit s 2 |];
  Alcotest.(check bool) "one-shot cell empty" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  (* in a group the cell empties through the failed activation
     assumption, and popping the group restores the witnesses *)
  let s = Sat.Solver.create f in
  Sat.Solver.push_group s;
  for i = 1 to 2 do
    ignore (expect_sat (Printf.sprintf "group %d" i) s);
    Sat.Solver.block s [| false_lit s 2 |]
  done;
  Alcotest.(check bool) "group cell empty" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "solver not broken" true (Sat.Solver.okay s);
  Sat.Solver.pop_group s;
  ignore (expect_sat "after pop" s)

let test_block_misuse () =
  let f = Cnf.Formula.create ~num_vars:3 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let expect name inv thunk =
    match violation_of thunk with
    | Some i when i = inv -> ()
    | Some i -> Alcotest.failf "%s: caught as %S, expected %S" name i inv
    | None -> Alcotest.failf "%s: not caught" name
  in
  let s = Sat.Solver.create f in
  expect "before any solve" "block-after-sat" (fun () ->
      Sat.Solver.block s [| Cnf.Lit.pos 3 |]);
  ignore (expect_sat "sat" s);
  expect "true literal" "block-literal-false" (fun () ->
      Sat.Solver.block s [| false_lit s 2; true_lit s 3 |]);
  ignore (expect_sat "sat again" s);
  Sat.Solver.block s [| false_lit s 3 |];
  expect "second block" "block-after-sat" (fun () ->
      Sat.Solver.block s [| false_lit s 3 |]);
  ignore (expect_sat "sat after block" s);
  Sat.Solver.add_clause s [| Cnf.Lit.pos 1; Cnf.Lit.pos 3 |];
  expect "after add_clause" "block-after-sat" (fun () ->
      Sat.Solver.block s [| false_lit s 3 |]);
  let u =
    Sat.Solver.create
      (Cnf.Formula.create ~num_vars:1 (List.map Cnf.Clause.of_dimacs [ [ 1 ]; [ -1 ] ]))
  in
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve u = Sat.Solver.Unsat);
  expect "after unsat" "block-after-sat" (fun () -> Sat.Solver.block u [| Cnf.Lit.pos 1 |])

(* Blocking-clause enumeration through [block] against brute force:
   random CNF + XOR base, a random sampling set, a random XOR layer
   and a random limit, on the one-shot path and on a warm session *)
let prop_block_enumeration =
  QCheck2.Test.make ~count:300 ~name:"block enumeration = brute projection"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_range 1 10))
    (fun (spec, xseed, limit) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create xseed in
      let proj =
        match List.filter (fun _ -> Rng.bool rng) (List.init nv (fun i -> i + 1)) with
        | [] -> [ 1 + Rng.int rng nv ]
        | vs -> vs
      in
      let f = Cnf.Formula.with_sampling_set f proj in
      let proj = Array.of_list proj in
      let sess = Sat.Bsat.Session.create f in
      let projection m = Cnf.Model.key (Cnf.Model.restrict m proj) in
      let check g (out : Sat.Bsat.outcome) =
        let expected =
          List.sort_uniq String.compare (List.map projection (Sat.Brute.solutions g))
        in
        let got = List.map projection out.Sat.Bsat.models in
        let distinct = List.sort_uniq String.compare got in
        (not out.Sat.Bsat.timed_out)
        && List.length distinct = List.length got
        && List.for_all (Cnf.Model.satisfies g) out.Sat.Bsat.models
        &&
        if out.Sat.Bsat.exhausted then distinct = expected
        else List.length got = limit && List.length expected >= limit
      in
      List.for_all
        (fun _ ->
          let xors =
            List.init (Rng.int rng 3) (fun _ -> Test_util.Gen.random_xor rng ~num_vars:nv)
          in
          let g = Cnf.Formula.add_xors f xors in
          check g (Sat.Bsat.enumerate ~limit g)
          && check g (Sat.Bsat.Session.enumerate ~xors ~limit sess))
        [ 1; 2; 3 ])

(* Known projections: a call that blocks a subset K of the cell's
   projections enumerates exactly the rest of the cell, within its
   limit, and the blocks leave with the call's group *)
let prop_known_projections =
  QCheck2.Test.make ~count:300 ~name:"enumerate ~known = cell minus known"
    QCheck2.Gen.(
      tup3 Test_util.Gen.formula_spec (int_bound 100_000) (int_range 1 10))
    (fun (spec, xseed, limit) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create xseed in
      let proj =
        match List.filter (fun _ -> Rng.bool rng) (List.init nv (fun i -> i + 1)) with
        | [] -> [ 1 + Rng.int rng nv ]
        | vs -> vs
      in
      let f = Cnf.Formula.with_sampling_set f proj in
      let proj = Array.of_list proj in
      let sess = Sat.Bsat.Session.create f in
      let projection m = Cnf.Model.key (Cnf.Model.restrict m proj) in
      let xors =
        List.init (Rng.int rng 3) (fun _ -> Test_util.Gen.random_xor rng ~num_vars:nv)
      in
      let g = Cnf.Formula.add_xors f xors in
      (* one witness per projection of the cell *)
      let cell =
        List.sort_uniq Cnf.Model.compare
          (List.map (fun m -> Cnf.Model.restrict m proj) (Sat.Brute.solutions g))
      in
      let known = List.filter (fun _ -> Rng.bool rng) cell in
      let rest =
        List.sort String.compare
          (List.map Cnf.Model.key
             (List.filter (fun p -> not (List.exists (Cnf.Model.equal p) known)) cell))
      in
      let out =
        Sat.Bsat.Session.enumerate ~xors
          ~known:
            (List.map
               (fun p ->
                 Array.map
                   (fun v -> Cnf.Lit.make v (not (Cnf.Model.value p v)))
                   (Sat.Bsat.Session.blocking_vars sess))
               known)
          ~limit sess
      in
      let got = List.sort String.compare (List.map projection out.Sat.Bsat.models) in
      let first =
        (not out.Sat.Bsat.timed_out)
        && List.for_all (Cnf.Model.satisfies g) out.Sat.Bsat.models
        && List.length (List.sort_uniq String.compare got) = List.length got
        && List.for_all (fun k -> List.mem k rest) got
        &&
        if out.Sat.Bsat.exhausted then got = rest
        else List.length got = limit && List.length rest >= limit
      in
      (* the same session without [known] sees the whole cell again *)
      let again = Sat.Bsat.Session.enumerate ~xors ~limit:(List.length cell + 1) sess in
      first
      && again.Sat.Bsat.exhausted
      && List.sort String.compare (List.map projection again.Sat.Bsat.models)
         = List.sort String.compare (List.map Cnf.Model.key cell))

(* After a Sat the trail stays in place; every other entry point must
   behave as on a solver that went back to the root *)
let prop_kept_trail_entry_points =
  QCheck2.Test.make ~count:300 ~name:"calls after a kept Sat trail = fresh"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100_000))
    (fun (spec, seed) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create seed in
      let s = Sat.Solver.create f in
      (* [current] is the formula [s] should now be equivalent to *)
      let agrees current =
        let fresh = Sat.Solver.create current in
        let r = Sat.Solver.solve s in
        Sat.Solver.check_invariants s;
        r = Sat.Solver.solve fresh
        &&
        match r with
        | Sat.Solver.Sat ->
            Cnf.Model.satisfies current (Cnf.Model.prefix (Sat.Solver.model s) nv)
        | _ -> true
      in
      let clause () = random_lits rng ~num_vars:nv in
      let c1 = clause () and c2 = clause () in
      let with_clause g c = Cnf.Formula.add_clauses g [ c ] in
      let f1 = with_clause f c1 in
      agrees f
      && (Sat.Solver.add_clause s c1;
          agrees f1)
      && (Sat.Solver.push_group s;
          Sat.Solver.add_group_clause s c2;
          agrees (with_clause f1 c2))
      && (Sat.Solver.pop_group s;
          agrees f1)
      && agrees f1)

(* Clause building against brute force. Group clauses carry repeated
   literals, tautologies and literals fixed at level 0 — by one-variable
   XORs of the same or a lower group, or, for base clauses added while
   a group is pushed, of a higher one — in one or two groups. After
   every step and every pop, the models the solver enumerates with
   [block] (in a scratch group; each blocking clause shuffled, and
   sometimes with a repeated literal, so the sorting path runs too)
   are exactly the brute-force models of the constraints in force. A
   last enumeration blocks at the root. *)
let prop_clause_building =
  QCheck2.Test.make ~count:200 ~name:"group clauses and blocks = brute models"
    ~print:(fun ((a, b, c, d), e) -> Printf.sprintf "(%d,%d,%d,%d) %d" a b c d e)
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100_000))
    (fun (spec, seed) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create seed in
      let s = Sat.Solver.create f in
      (* the constraints in force at each open group, innermost first *)
      let stack = ref [ f ] in
      let fixed = ref [] in
      let in_group g = stack := g (List.hd !stack) :: List.tl !stack in
      let clause () =
        let lits = Array.to_list (random_lits rng ~num_vars:nv) in
        let first = List.hd lits in
        let c =
          Array.of_list
            (lits
            @ (if Rng.bool rng then [ first ] else [])
            @ (if Rng.int rng 4 = 0 then [ Cnf.Lit.negate first ] else [])
            @
            match !fixed with
            | [] -> []
            | fs ->
                let l = List.nth fs (Rng.int rng (List.length fs)) in
                [ (if Rng.bool rng then l else Cnf.Lit.negate l) ])
        in
        Rng.shuffle rng c;
        c
      in
      let add_to_group () =
        let v = 1 + Rng.int rng nv and b = Rng.bool rng in
        let x = Cnf.Xor_clause.make [ v ] b in
        Sat.Solver.add_group_xor s x;
        in_group (fun g -> Cnf.Formula.add_xors g [ x ]);
        fixed := Cnf.Lit.make v b :: !fixed;
        if Rng.int rng 3 = 0 then begin
          let x = Test_util.Gen.random_xor rng ~num_vars:nv in
          Sat.Solver.add_group_xor s x;
          in_group (fun g -> Cnf.Formula.add_xors g [ x ])
        end;
        for _ = 1 to 1 + Rng.int rng 4 do
          let c = clause () in
          Sat.Solver.add_group_clause s c;
          in_group (fun g -> Cnf.Formula.add_clauses g [ c ])
        done
      in
      let add_to_base () =
        let c = clause () in
        Sat.Solver.add_clause s c;
        stack := List.map (fun g -> Cnf.Formula.add_clauses g [ c ]) !stack
      in
      let expected () =
        List.sort compare (List.map Cnf.Model.key (Sat.Brute.solutions (List.hd !stack)))
      in
      let blocking m =
        let c =
          Array.init nv (fun i -> Cnf.Lit.make (i + 1) (not (Cnf.Model.value m (i + 1))))
        in
        Rng.shuffle rng c;
        if Rng.bool rng then Array.append c [| c.(0) |] else c
      in
      let rec enumerate acc =
        match Sat.Solver.solve s with
        | Sat.Solver.Sat ->
            let m = Sat.Solver.model s in
            Sat.Solver.block s (blocking m);
            enumerate (Cnf.Model.key (Cnf.Model.prefix m nv) :: acc)
        | Sat.Solver.Unsat -> List.sort compare acc
        | Sat.Solver.Unknown -> QCheck2.Test.fail_report "unexpected Unknown"
      in
      let agrees () =
        Sat.Solver.push_group s;
        let got = enumerate [] in
        Sat.Solver.pop_group s;
        Sat.Solver.check_invariants s;
        got = expected ()
      in
      let push () =
        Sat.Solver.push_group s;
        stack := List.hd !stack :: !stack
      in
      let pop () =
        Sat.Solver.pop_group s;
        stack := List.tl !stack
      in
      agrees ()
      && (push ();
          add_to_group ();
          agrees ())
      && (add_to_base ();
          agrees ())
      && (Rng.bool rng
         || (push ();
             add_to_group ();
             agrees ())
            && (add_to_base ();
                agrees ())
            && (pop ();
                agrees ()))
      && (pop ();
          agrees ())
      && enumerate [] = expected ())

(* ------------------------------------------------------------------ *)
(* Golden streams: witness keys of a UniGen batch and ApproxMC's
   log2 estimate, pinned for generated formulas at fixed seeds. A
   change to the solver's search may reorder how witnesses are found,
   but not which ones a seed draws *)

(* Solver counters (conflicts, decisions, propagations,
   xor_propagations) of the preparation and of the 12 draws, pinned for
   the formulas that prepare and draw on the calling domain. A change
   that claims to keep every search step must keep them. *)
type counters = { prepare : int * int * int * int; draws : int * int * int * int }

let golden_counters =
  [ ("case(14,50)",
     { prepare = (1995, 2284, 11375, 3101); draws = (312, 312, 1712, 533) });
    ("case(16,70)",
     { prepare = (5845, 10156, 114563, 39489); draws = (638, 898, 10224, 3775) }) ]

let golden_formulas =
  [ ("case(14,50)", (fun rng -> Circuits.Generators.case_formula ~rng ~num_inputs:14 ~num_gates:50),
     "0x1p+3", "053109a85cce22ab7fec1c455c629e5b");
    ("case(16,70)", (fun rng -> Circuits.Generators.case_formula ~rng ~num_inputs:16 ~num_gates:70),
     "0x1.92b803473f7aep+3", "4f15ba5049edde861be77696153aee46");
    ( "dag(18,150,8,3)",
      (fun rng ->
        let nl =
          Circuits.Generators.random_dag ~rng ~name:"dag" ~num_inputs:18 ~num_gates:150
            ~num_outputs:8
        in
        (Circuits.Tseitin.with_output_parity ~rng ~num_conditions:3 nl).Circuits.Tseitin.formula),
      "0x1.cp+3", "c56fc290a726b79cfd783f7b89dc7764" ) ]

let test_golden i () =
  let name, build, log2, md5 = List.nth golden_formulas i in
  let f = build (Rng.create (101 + i)) in
  (match
     Counting.Approxmc.count ~iterations:9 ~rng:(Rng.create (201 + i)) ~epsilon:0.8
       ~delta:0.2 f
   with
  | Ok r ->
      Alcotest.(check string) (name ^ " log2 estimate") log2
        (Printf.sprintf "%h" r.Counting.Approxmc.log2_estimate)
  | Error _ -> Alcotest.fail (name ^ ": count failed"));
  (* every case runs the one stream-per-iteration ApproxMC loop: the
     last prepares across a 2-worker pool, the others on the calling
     domain *)
  let prepare pool =
    Sampling.Unigen.prepare ?pool ~rng:(Rng.create (301 + i)) ~epsilon:6.0 f
  in
  match
    if i = 2 then Parallel.Domain_pool.with_pool ~jobs:2 (fun p -> prepare (Some p))
    else prepare None
  with
  | Error _ -> Alcotest.fail (name ^ ": prepare failed")
  | Ok p ->
      Alcotest.(check bool) (name ^ " hashed phase") false (Sampling.Unigen.is_easy p);
      let keys =
        Sampling.Unigen.sample_batch ~max_attempts:20 ~seed:(401 + i) p 12
        |> Array.to_list
        |> List.map (function Ok m -> Cnf.Model.key m | Error _ -> "-")
      in
      Alcotest.(check string) (name ^ " witness stream") md5
        (Digest.to_hex (Digest.string (String.concat "\n" keys)));
      match List.assoc_opt name golden_counters with
      | None -> ()
      | Some pinned ->
          let quad (st : Sat.Solver.stats) =
            (st.conflicts, st.decisions, st.propagations, st.xor_propagations)
          in
          let q4 = Alcotest.(pair (pair int int) (pair int int)) in
          let split (a, b, c, d) = ((a, b), (c, d)) in
          Alcotest.check q4 (name ^ " prepare counters") (split pinned.prepare)
            (split (quad (fst (Sampling.Unigen.prepare_solver p))));
          Alcotest.check q4 (name ^ " draw counters") (split pinned.draws)
            (split (quad (Sampling.Sampler.solver_stats (Sampling.Unigen.stats p))))

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pop_restores;
      prop_session_matches_fresh;
      prop_block_enumeration;
      prop_known_projections;
      prop_kept_trail_entry_points;
      prop_clause_building;
    ]

let () =
  Alcotest.run "session"
    [
      ( "groups",
        [
          Alcotest.test_case "pop rescinds group unsat" `Quick
            test_pop_rescinds_group_unsat;
          Alcotest.test_case "base unit shadowed by group" `Quick
            test_base_unit_shadowed_by_group;
          Alcotest.test_case "base clause under a broken group" `Quick
            test_base_clause_under_broken_group;
        ] );
      ("properties", qcheck_cases);
      ( "block",
        [
          Alcotest.test_case "unique deepest level" `Quick test_block_deepest_unique;
          Alcotest.test_case "tied deepest levels" `Quick test_block_tied_levels;
          Alcotest.test_case "root fallbacks" `Quick test_block_fallbacks;
          Alcotest.test_case "cell that empties" `Quick test_block_empties_cell;
          Alcotest.test_case "misuse is an audit violation" `Quick test_block_misuse;
        ] );
      ( "differential",
        [
          Alcotest.test_case "approxmc = brute count within 1+eps" `Quick
            test_approxmc_matches_brute;
          Alcotest.test_case "unigen witnesses are models" `Quick
            test_unigen_witnesses_are_models;
          Alcotest.test_case "warm draw cache = cold import" `Quick
            test_warm_cache_matches_cold;
          Alcotest.test_case "one easy check = easy check + count" `Quick
            test_one_easy_check_boundary;
        ] );
      ( "golden",
        List.mapi
          (fun i (name, _, _, _) ->
            Alcotest.test_case (name ^ " stream") `Quick (test_golden i))
          golden_formulas );
      ( "lifetime",
        [
          Alcotest.test_case "sessions freed with the prepared state" `Quick
            test_sessions_freed_with_prepared_state;
        ] );
    ]
