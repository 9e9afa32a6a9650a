(* Tests for the core sampling library: ComputeKappaPivot, UniGen and
   its guarantees, the baselines, the ideal sampler, and the
   statistics machinery. *)

let clause = Cnf.Clause.of_dimacs

(* ------------------------------------------------------------------ *)
(* ComputeKappaPivot *)

let test_kappa_pivot_epsilon_6 () =
  (* for ε = 6 the paper's experiments: κ ≈ 0.546, pivot ≈ 40 *)
  let kappa, pivot = Sampling.Kappa_pivot.compute 6.0 in
  Alcotest.(check bool) (Printf.sprintf "kappa %.3f" kappa) true
    (kappa > 0.52 && kappa < 0.57);
  Alcotest.(check bool) (Printf.sprintf "pivot %d" pivot) true
    (pivot >= 38 && pivot <= 42)

let test_kappa_solves_equation () =
  List.iter
    (fun eps ->
      let kappa, _ = Sampling.Kappa_pivot.compute eps in
      let lhs = ((1.0 +. kappa) *. (2.23 +. (0.48 /. ((1.0 -. kappa) ** 2.0)))) -. 1.0 in
      Alcotest.(check (float 0.001)) (Printf.sprintf "eps %.2f" eps) eps lhs)
    [ 1.72; 2.0; 3.0; 6.0; 10.0; 50.0 ]

let test_kappa_monotone () =
  let k1, p1 = Sampling.Kappa_pivot.compute 2.0 in
  let k2, p2 = Sampling.Kappa_pivot.compute 10.0 in
  Alcotest.(check bool) "kappa grows with eps" true (k2 > k1);
  Alcotest.(check bool) "pivot shrinks with eps" true (p2 < p1)

let test_kappa_rejects_small_epsilon () =
  Alcotest.(check bool) "eps 1.71 rejected" true
    (try
       ignore (Sampling.Kappa_pivot.compute 1.71);
       false
     with Invalid_argument _ -> true)

let test_thresholds () =
  let kappa, pivot = Sampling.Kappa_pivot.compute 6.0 in
  let hi = Sampling.Kappa_pivot.hi_thresh ~kappa ~pivot in
  let lo = Sampling.Kappa_pivot.lo_thresh ~kappa ~pivot in
  Alcotest.(check bool) "lo < pivot < hi" true
    (lo < float_of_int pivot && float_of_int pivot < hi);
  Alcotest.(check (float 0.001)) "hi formula"
    (1.0 +. ((1.0 +. kappa) *. float_of_int pivot))
    hi

(* ------------------------------------------------------------------ *)
(* UniGen core behaviour *)

let prepare ?(epsilon = 6.0) ?(seed = 42) f =
  match
    Sampling.Unigen.prepare ~count_iterations:9 ~rng:(Rng.create seed) ~epsilon f
  with
  | Ok p -> p
  | Error _ -> Alcotest.fail "prepare failed"

(* one attempt (lines 12-22 once) as draw [i] of stream [seed], counted
   in [stats p] *)
let attempt ~seed p i =
  let outcome, st = Sampling.Unigen.sample_index ~max_attempts:1 ~seed p i in
  Sampling.Sampler.merge_into ~into:(Sampling.Unigen.stats p) st;
  outcome

let test_unigen_unsat () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1 ]; clause [ -1 ] ] in
  match Sampling.Unigen.prepare ~rng:(Rng.create 1) ~epsilon:6.0 f with
  | Error Sampling.Unigen.Unsat_formula -> ()
  | _ -> Alcotest.fail "expected Unsat_formula"

let test_unigen_easy_case () =
  (* 8 witnesses < hiThresh: must take the easy path *)
  let f = Cnf.Formula.create ~num_vars:3 [] in
  let p = prepare f in
  Alcotest.(check bool) "easy" true (Sampling.Unigen.is_easy p);
  Alcotest.(check bool) "q absent" true (Sampling.Unigen.q_range p = None);
  for i = 1 to 20 do
    match attempt ~seed:5 p i with
    | Ok m -> Alcotest.(check bool) "model valid" true (Cnf.Model.satisfies f m)
    | Error _ -> Alcotest.fail "easy case cannot fail"
  done

let test_unigen_rejects_small_epsilon () =
  let f = Cnf.Formula.create ~num_vars:3 [] in
  Alcotest.(check bool) "epsilon too small" true
    (try
       ignore (Sampling.Unigen.prepare ~rng:(Rng.create 1) ~epsilon:1.0 f);
       false
     with Invalid_argument _ -> true)

let test_unigen_hashed_case_produces_models () =
  (* 2^9 = 512 witnesses > hiThresh (~63): hashed path *)
  let f = Cnf.Formula.create ~num_vars:9 [] in
  let p = prepare f in
  Alcotest.(check bool) "not easy" false (Sampling.Unigen.is_easy p);
  (match Sampling.Unigen.q_range p with
  | None -> Alcotest.fail "expected q range"
  | Some (lo, hi) ->
      Alcotest.(check int) "window of 4" 3 (hi - lo);
      Alcotest.(check bool) (Printf.sprintf "q=%d sensible" hi) true
        (hi >= 3 && hi <= 6));
  let produced = ref 0 in
  for i = 1 to 50 do
    match attempt ~seed:6 p i with
    | Ok m ->
        incr produced;
        Alcotest.(check bool) "model valid" true (Cnf.Model.satisfies f m)
    | Error Sampling.Sampler.Cell_failure -> ()
    | Error _ -> Alcotest.fail "unexpected failure kind"
  done;
  (* Theorem 1: success probability ≥ 0.62; with 50 draws expect ≥ 25 *)
  Alcotest.(check bool)
    (Printf.sprintf "produced %d/50" !produced)
    true (!produced >= 25)

let test_unigen_success_probability_bound () =
  (* measured success probability across the hashed case must beat the
     theoretical 0.62 bound with slack (paper observes ≈ 1) *)
  let f = Cnf.Formula.create ~num_vars:10 [ clause [ 1; 2 ] ] in
  let p = prepare f in
  ignore (Sampling.Unigen.sample_batch ~max_attempts:1 ~seed:7 p 200);
  let st = Sampling.Unigen.stats p in
  let succ = Sampling.Sampler.success_probability st in
  Alcotest.(check bool) (Printf.sprintf "success %.2f >= 0.62" succ) true
    (succ >= 0.62)

let test_unigen_retrying () =
  let f = Cnf.Formula.create ~num_vars:9 [] in
  let p = prepare f in
  Array.iter
    (function
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "retrying should succeed on this formula")
    (Sampling.Unigen.sample_batch ~max_attempts:20 ~seed:8 p 30);
  (* every attempt is counted: 30 successes plus one per cell failure *)
  let st = Sampling.Unigen.stats p in
  Alcotest.(check int) "attempts = 30 + cell failures"
    (30 + st.Sampling.Sampler.cell_failures)
    st.Sampling.Sampler.samples_requested

let test_unigen_respects_independent_support () =
  (* v3 = v1 xor v2 is dependent; sampling set {1,2} *)
  let f =
    Cnf.Formula.create_with_xors ~sampling_set:[ 1; 2 ] ~num_vars:3 []
      [ Cnf.Xor_clause.make [ 1; 2; 3 ] false ]
  in
  let p = prepare f in
  for i = 1 to 20 do
    match attempt ~seed:9 p i with
    | Ok m ->
        Alcotest.(check bool) "consistent dependent var"
          (Cnf.Model.value m 3)
          (Cnf.Model.value m 1 <> Cnf.Model.value m 2)
    | Error _ -> Alcotest.fail "unexpected failure"
  done

(* The headline guarantee, checked empirically: on an enumerable
   formula the observed frequency of every witness stays within the
   (1+ε) band of Theorem 1 — and in fact much closer to uniform. *)
let test_unigen_almost_uniformity () =
  let f =
    Cnf.Formula.create ~num_vars:8 [ clause [ 1; 2; 3 ]; clause [ -1; -2 ] ]
  in
  let rf = Sat.Brute.count f in
  let p = prepare f in
  let samples = 20_000 in
  let keys = ref [] in
  let drawn = ref 0 and attempts = ref 0 in
  while !drawn < samples do
    incr attempts;
    match attempt ~seed:10 p !attempts with
    | Ok m ->
        incr drawn;
        keys := Cnf.Model.key m :: !keys
    | Error _ -> ()
  done;
  let h = Sampling.Stats.histogram_of_keys !keys in
  Alcotest.(check bool)
    (Printf.sprintf "all %d witnesses seen (%d distinct)" rf (Hashtbl.length h))
    true
    (Hashtbl.length h = rf);
  let epsilon = 6.0 in
  let expected = float_of_int samples /. float_of_int rf in
  Hashtbl.iter
    (fun _ c ->
      let ratio = float_of_int c /. expected in
      (* Theorem 1 allows [1/(1+ε), (1+ε)] around uniform (up to the
         |R_F|−1 vs |R_F| distinction); sampling noise is tiny at these
         counts *)
      if ratio < 1.0 /. (1.0 +. epsilon) || ratio > 1.0 +. epsilon then
        Alcotest.failf "witness frequency ratio %.2f outside tolerance" ratio)
    h;
  (* stronger: empirically the distribution is near-uniform *)
  let tv =
    Sampling.Stats.total_variation_from_uniform ~num_outcomes:rf
      ~num_samples:samples h
  in
  Alcotest.(check bool) (Printf.sprintf "TV %.3f small" tv) true (tv < 0.15)

(* ------------------------------------------------------------------ *)
(* UniWit *)

let test_uniwit_produces_valid_models () =
  let f = Cnf.Formula.create ~num_vars:8 [ clause [ 1; 2 ] ] in
  let rng = Rng.create 11 in
  let ok = ref 0 in
  for _ = 1 to 30 do
    match Sampling.Uniwit.sample ~rng f with
    | Ok m ->
        incr ok;
        Alcotest.(check bool) "valid" true (Cnf.Model.satisfies f m)
    | Error Sampling.Sampler.Cell_failure -> ()
    | Error _ -> Alcotest.fail "unexpected failure kind"
  done;
  (* UniWit's bound is only 1/8, but in practice it succeeds often *)
  Alcotest.(check bool) (Printf.sprintf "%d/30 produced" !ok) true (!ok >= 8)

let test_uniwit_unsat () =
  let f = Cnf.Formula.create ~num_vars:1 [ clause [ 1 ]; clause [ -1 ] ] in
  match Sampling.Uniwit.sample ~rng:(Rng.create 12) f with
  | Error Sampling.Sampler.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat"

let test_uniwit_easy_case () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1 ] ] in
  match Sampling.Uniwit.sample ~rng:(Rng.create 13) f with
  | Ok m -> Alcotest.(check bool) "valid" true (Cnf.Model.satisfies f m)
  | Error _ -> Alcotest.fail "small formula cannot fail"

let test_uniwit_hashes_full_support () =
  (* sampling set {1} is declared, but UniWit must ignore it and hash
     over all 10 variables: average xor length ≈ 5, not ≈ 0.5 *)
  let f = Cnf.Formula.create ~sampling_set:[ 1 ] ~num_vars:10 [] in
  let stats = Sampling.Sampler.fresh_stats () in
  let rng = Rng.create 14 in
  for _ = 1 to 20 do
    ignore (Sampling.Uniwit.sample ~stats ~rng f)
  done;
  let len = Sampling.Sampler.average_xor_length stats in
  Alcotest.(check bool) (Printf.sprintf "xor len %.1f ≈ |X|/2" len) true
    (len > 3.0 && len < 7.0)

(* ------------------------------------------------------------------ *)
(* XORSample' *)

let test_xorsample_valid_models () =
  let f = Cnf.Formula.create ~num_vars:8 [ clause [ 1; 2 ] ] in
  let rng = Rng.create 15 in
  let ok = ref 0 in
  for _ = 1 to 40 do
    (* |R_F| = 192, log2 ≈ 7.6: s = 5 leaves cells of ~6 *)
    match Sampling.Xorsample.sample ~rng ~s:5 f with
    | Ok m ->
        incr ok;
        Alcotest.(check bool) "valid" true (Cnf.Model.satisfies f m)
    | Error Sampling.Sampler.Cell_failure -> ()
    | Error _ -> Alcotest.fail "unexpected failure kind"
  done;
  Alcotest.(check bool) (Printf.sprintf "%d/40" !ok) true (!ok >= 10)

let test_xorsample_s_too_large_fails_often () =
  let f = Cnf.Formula.create ~num_vars:6 [] in
  let rng = Rng.create 16 in
  let failures = ref 0 in
  for _ = 1 to 30 do
    (* s = 10 > n = 6: cells are almost always empty *)
    match Sampling.Xorsample.sample ~rng ~s:10 f with
    | Error Sampling.Sampler.Cell_failure -> incr failures
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "%d/30 failures" !failures) true
    (!failures >= 20)

let test_xorsample_statistical_distance () =
  (* On a free formula the witnesses are exchangeable under the random
     affine XOR family, so XORSample' is exactly uniform over the 2^6
     models — the empirical distribution must be statistically close to
     uniform (chi-square p-value well away from 0, small TV distance). *)
  let f = Cnf.Formula.create ~num_vars:6 [] in
  let rng = Rng.create 19 in
  let target = 4_000 in
  let keys = ref [] in
  let accepted = ref 0 and attempts = ref 0 in
  while !accepted < target && !attempts < target * 30 do
    incr attempts;
    match Sampling.Xorsample.sample ~rng ~s:3 f with
    | Ok m ->
        incr accepted;
        keys := Cnf.Model.key m :: !keys
    | Error _ -> ()
  done;
  Alcotest.(check int) "collected enough accepted samples" target !accepted;
  let h = Sampling.Stats.histogram_of_keys !keys in
  Alcotest.(check int) "all 64 witnesses reached" 64 (Hashtbl.length h);
  let p =
    Sampling.Stats.uniformity_pvalue ~num_outcomes:64 ~num_samples:target h
  in
  Alcotest.(check bool) (Printf.sprintf "p-value %.4f" p) true (p > 1e-4);
  let tv =
    Sampling.Stats.total_variation_from_uniform ~num_outcomes:64
      ~num_samples:target h
  in
  Alcotest.(check bool) (Printf.sprintf "TV %.3f" tv) true (tv < 0.15)

(* ------------------------------------------------------------------ *)
(* MCMC baseline *)

let test_mcmc_valid_models () =
  let f = Cnf.Formula.create ~num_vars:10 [ clause [ 1; 2 ]; clause [ -3; 4 ] ] in
  let rng = Rng.create 71 in
  let ok = ref 0 in
  for _ = 1 to 20 do
    match Sampling.Mcmc.sample ~rng f with
    | Ok m ->
        incr ok;
        Alcotest.(check bool) "valid" true (Cnf.Model.satisfies f m)
    | Error _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "%d/20 produced" !ok) true (!ok >= 15)

let test_mcmc_handles_xors () =
  let f =
    Cnf.Formula.create_with_xors ~num_vars:6 []
      [ Cnf.Xor_clause.make [ 1; 2; 3 ] true; Cnf.Xor_clause.make [ 4; 5 ] false ]
  in
  let rng = Rng.create 72 in
  match Sampling.Mcmc.sample ~rng f with
  | Ok m -> Alcotest.(check bool) "valid" true (Cnf.Model.satisfies f m)
  | Error _ -> Alcotest.fail "easy xor system should be reachable"

let test_mcmc_fails_on_hard_unsat () =
  (* unsatisfiable: the walk can never reach energy 0 *)
  let f =
    Cnf.Formula.create ~num_vars:2
      [ clause [ 1 ]; clause [ -1; 2 ]; clause [ -2 ] ]
  in
  let rng = Rng.create 73 in
  match Sampling.Mcmc.sample ~steps:500 ~restarts:2 ~rng f with
  | Error Sampling.Sampler.Cell_failure -> ()
  | Ok _ -> Alcotest.fail "cannot sample an unsat formula"
  | Error _ -> Alcotest.fail "unexpected failure kind"

let test_mcmc_records_stats () =
  let f = Cnf.Formula.create ~num_vars:5 [] in
  let stats = Sampling.Sampler.fresh_stats () in
  let rng = Rng.create 74 in
  for _ = 1 to 5 do
    ignore (Sampling.Mcmc.sample ~stats ~rng f)
  done;
  Alcotest.(check int) "requested" 5 stats.Sampling.Sampler.samples_requested;
  Alcotest.(check int) "produced" 5 stats.Sampling.Sampler.samples_produced

(* ------------------------------------------------------------------ *)
(* US *)

let test_us_size_matches_exact_count () =
  let f = Cnf.Formula.create ~num_vars:8 [ clause [ 1; 2; 3 ] ] in
  let us = Sampling.Us.create f in
  Alcotest.(check int) "size = exact count"
    (Sampling.Us.exact_count f) (Sampling.Us.size us)

let test_us_unsat () =
  let f = Cnf.Formula.create ~num_vars:1 [ clause [ 1 ]; clause [ -1 ] ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sampling.Us.create f);
       false
     with Not_found -> true)

let test_us_limit () =
  let f = Cnf.Formula.create ~num_vars:12 [] in
  Alcotest.(check bool) "limit enforced" true
    (try
       ignore (Sampling.Us.create ~limit:100 f);
       false
     with Failure _ -> true)

let test_us_uniform () =
  let f = Cnf.Formula.create ~num_vars:6 [] in
  let us = Sampling.Us.create f in
  let rng = Rng.create 17 in
  let n = 64_000 in
  let keys = List.init n (fun _ -> Cnf.Model.key (Sampling.Us.sample ~rng us)) in
  let h = Sampling.Stats.histogram_of_keys keys in
  let p = Sampling.Stats.uniformity_pvalue ~num_outcomes:64 ~num_samples:n h in
  Alcotest.(check bool) (Printf.sprintf "p-value %.3f" p) true (p > 0.001)

let test_us_sample_index_range () =
  let f = Cnf.Formula.create ~num_vars:5 [] in
  let us = Sampling.Us.create f in
  let rng = Rng.create 18 in
  for _ = 1 to 200 do
    let i = Sampling.Us.sample_index ~rng us in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 32)
  done

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_histogram () =
  let h = Sampling.Stats.histogram_of_keys [ "a"; "b"; "a"; "c"; "a" ] in
  Alcotest.(check int) "a" 3 (Hashtbl.find h "a");
  Alcotest.(check int) "b" 1 (Hashtbl.find h "b");
  Alcotest.(check int) "distinct" 3 (Hashtbl.length h)

let test_occurrence_distribution () =
  let h = Sampling.Stats.histogram_of_keys [ "a"; "b"; "a"; "c"; "a"; "b" ] in
  let d = Sampling.Stats.occurrence_distribution h in
  Alcotest.(check (list (pair int int))) "series" [ (1, 1); (2, 1); (3, 1) ] d;
  let d0 = Sampling.Stats.occurrence_distribution ~support_size:10 h in
  Alcotest.(check (list (pair int int))) "with zeros"
    [ (0, 7); (1, 1); (2, 1); (3, 1) ]
    d0

let test_chi_square_uniform_data () =
  (* perfectly uniform data: statistic 0, p-value 1 *)
  let h = Sampling.Stats.histogram_of_keys [ "a"; "b"; "c"; "d" ] in
  let s = Sampling.Stats.chi_square_uniform ~num_outcomes:4 ~num_samples:4 h in
  Alcotest.(check (float 1e-9)) "statistic 0" 0.0 s;
  Alcotest.(check (float 1e-9)) "pvalue 1" 1.0
    (Sampling.Stats.chi_square_pvalue ~dof:3 s)

let test_chi_square_skewed_data () =
  let keys = List.init 1000 (fun _ -> "only") in
  let h = Sampling.Stats.histogram_of_keys keys in
  let p = Sampling.Stats.uniformity_pvalue ~num_outcomes:100 ~num_samples:1000 h in
  Alcotest.(check bool) (Printf.sprintf "rejects uniformity (p=%.6f)" p) true
    (p < 1e-6)

let test_gamma_function_values () =
  (* ln Γ(1) = 0, ln Γ(2) = 0, ln Γ(5) = ln 24 *)
  Alcotest.(check (float 1e-9)) "lnG(1)" 0.0 (Sampling.Stats.log_gamma 1.0);
  Alcotest.(check (float 1e-9)) "lnG(2)" 0.0 (Sampling.Stats.log_gamma 2.0);
  Alcotest.(check (float 1e-6)) "lnG(5)" (Float.log 24.0)
    (Sampling.Stats.log_gamma 5.0);
  (* Γ(1/2) = √π *)
  Alcotest.(check (float 1e-6)) "lnG(1/2)"
    (Float.log (Float.sqrt Float.pi))
    (Sampling.Stats.log_gamma 0.5)

let test_regularized_gamma () =
  (* P(1, x) = 1 − e^(−x) *)
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "P(1,%.1f)" x)
        (1.0 -. Float.exp (-.x))
        (Sampling.Stats.regularized_gamma_p 1.0 x))
    [ 0.1; 0.5; 1.0; 2.0; 5.0 ]

let test_chi_square_known_quantiles () =
  (* χ²(1): P[X > 3.841] ≈ 0.05 *)
  Alcotest.(check (float 0.003)) "3.841 @ dof 1" 0.05
    (Sampling.Stats.chi_square_pvalue ~dof:1 3.841);
  (* χ²(10): P[X > 18.307] ≈ 0.05 *)
  Alcotest.(check (float 0.003)) "18.307 @ dof 10" 0.05
    (Sampling.Stats.chi_square_pvalue ~dof:10 18.307)

let test_tv_and_kl () =
  let h = Sampling.Stats.histogram_of_keys [ "a"; "a"; "b"; "b" ] in
  (* uniform over {a,b}: zero distance *)
  Alcotest.(check (float 1e-9)) "TV 0" 0.0
    (Sampling.Stats.total_variation_from_uniform ~num_outcomes:2 ~num_samples:4 h);
  Alcotest.(check (float 1e-9)) "KL 0" 0.0
    (Sampling.Stats.kl_from_uniform ~num_outcomes:2 ~num_samples:4 h);
  let skew = Sampling.Stats.histogram_of_keys [ "a"; "a"; "a"; "a" ] in
  Alcotest.(check (float 1e-9)) "TV skewed" 0.5
    (Sampling.Stats.total_variation_from_uniform ~num_outcomes:2 ~num_samples:4 skew);
  Alcotest.(check (float 1e-9)) "KL skewed" 1.0
    (Sampling.Stats.kl_from_uniform ~num_outcomes:2 ~num_samples:4 skew)

let test_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Sampling.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0
    (Sampling.Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty mean NaN" true
    (Float.is_nan (Sampling.Stats.mean []))

let () =
  Alcotest.run "sampling"
    [
      ( "kappa_pivot",
        [
          Alcotest.test_case "epsilon 6" `Quick test_kappa_pivot_epsilon_6;
          Alcotest.test_case "solves equation" `Quick test_kappa_solves_equation;
          Alcotest.test_case "monotone" `Quick test_kappa_monotone;
          Alcotest.test_case "rejects small eps" `Quick test_kappa_rejects_small_epsilon;
          Alcotest.test_case "thresholds" `Quick test_thresholds;
        ] );
      ( "unigen",
        [
          Alcotest.test_case "unsat" `Quick test_unigen_unsat;
          Alcotest.test_case "easy case" `Quick test_unigen_easy_case;
          Alcotest.test_case "rejects small eps" `Quick test_unigen_rejects_small_epsilon;
          Alcotest.test_case "hashed case" `Quick test_unigen_hashed_case_produces_models;
          Alcotest.test_case "success bound" `Quick test_unigen_success_probability_bound;
          Alcotest.test_case "retrying" `Quick test_unigen_retrying;
          Alcotest.test_case "independent support" `Quick
            test_unigen_respects_independent_support;
          Alcotest.test_case "almost uniformity" `Slow test_unigen_almost_uniformity;
        ] );
      ( "uniwit",
        [
          Alcotest.test_case "valid models" `Quick test_uniwit_produces_valid_models;
          Alcotest.test_case "unsat" `Quick test_uniwit_unsat;
          Alcotest.test_case "easy case" `Quick test_uniwit_easy_case;
          Alcotest.test_case "full support hashing" `Quick test_uniwit_hashes_full_support;
        ] );
      ( "xorsample",
        [
          Alcotest.test_case "valid models" `Quick test_xorsample_valid_models;
          Alcotest.test_case "s too large" `Quick test_xorsample_s_too_large_fails_often;
          Alcotest.test_case "statistical distance" `Slow
            test_xorsample_statistical_distance;
        ] );
      ( "mcmc",
        [
          Alcotest.test_case "valid models" `Quick test_mcmc_valid_models;
          Alcotest.test_case "handles xors" `Quick test_mcmc_handles_xors;
          Alcotest.test_case "unsat" `Quick test_mcmc_fails_on_hard_unsat;
          Alcotest.test_case "stats" `Quick test_mcmc_records_stats;
        ] );
      ( "us",
        [
          Alcotest.test_case "size = exact count" `Quick test_us_size_matches_exact_count;
          Alcotest.test_case "unsat" `Quick test_us_unsat;
          Alcotest.test_case "limit" `Quick test_us_limit;
          Alcotest.test_case "uniform" `Quick test_us_uniform;
          Alcotest.test_case "index range" `Quick test_us_sample_index_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "occurrence distribution" `Quick test_occurrence_distribution;
          Alcotest.test_case "chi2 uniform" `Quick test_chi_square_uniform_data;
          Alcotest.test_case "chi2 skewed" `Quick test_chi_square_skewed_data;
          Alcotest.test_case "log gamma" `Quick test_gamma_function_values;
          Alcotest.test_case "regularized gamma" `Quick test_regularized_gamma;
          Alcotest.test_case "chi2 quantiles" `Quick test_chi_square_known_quantiles;
          Alcotest.test_case "tv and kl" `Quick test_tv_and_kl;
          Alcotest.test_case "mean stddev" `Quick test_mean_stddev;
        ] );
    ]
