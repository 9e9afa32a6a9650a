(* End-to-end integration tests: whole pipelines across libraries,
   exactly as a downstream user would chain them. *)

let clause = Cnf.Clause.of_dimacs

(* circuit -> Tseitin -> UniGen -> simulate *)
let test_circuit_to_sample_pipeline () =
  let module B = Circuits.Netlist.Builder in
  let b = B.create "pipeline" in
  let xs = Circuits.Arith.input_word b ~width:6 in
  let sum =
    Circuits.Arith.ripple_adder b xs (Circuits.Arith.constant b ~width:6 7)
  in
  (* constrain: (x + 7) has bit 2 set *)
  B.output b (List.nth sum 2);
  let nl = B.finish b in
  let enc = Circuits.Tseitin.encode nl in
  let f = enc.Circuits.Tseitin.formula in
  let rng = Rng.create 17 in
  match Sampling.Unigen.prepare ~count_iterations:5 ~rng ~epsilon:6.0 f with
  | Error _ -> Alcotest.fail "prepare failed"
  | Ok p ->
      for i = 1 to 25 do
        match fst (Sampling.Unigen.sample_index ~seed:17 p i) with
        | Error _ -> Alcotest.fail "sampling failed"
        | Ok m ->
            Alcotest.(check bool) "witness of the formula" true
              (Cnf.Model.satisfies f m);
            (* decode the stimulus and check by SIMULATION *)
            let x =
              Circuits.Arith.to_int
                (Array.map
                   (fun v -> Cnf.Model.value m v)
                   enc.Circuits.Tseitin.input_vars)
            in
            Alcotest.(check bool)
              (Printf.sprintf "x=%d satisfies the spec" x)
              true
              ((x + 7) land 4 <> 0)
      done

(* DIMACS file -> support discovery -> declared set -> ApproxMC vs
   exact count consistency *)
let test_dimacs_support_count_pipeline () =
  let text =
    "p cnf 5 5\n-4 1 0\n4 -1 0\n-5 2 0\n5 -2 0\n1 2 3 0\n"
  in
  let f = Cnf.Dimacs.parse_string text in
  (* v4 = v1 and v5 = v2: a minimal independent support has 3
     variables ({1,2,3} or the equivalent {3,4,5}, depending on the
     greedy order) *)
  let support = Sat.Indsupport.of_formula f in
  Alcotest.(check int) "minimal support size" 3 (List.length support);
  Alcotest.(check bool) "support is independent" true
    (Sat.Indsupport.check f support = Sat.Indsupport.Independent);
  let g = Cnf.Formula.with_sampling_set f support in
  let exact = Counting.Exact_counter.count f in
  match
    Counting.Approxmc.count ~iterations:9 ~rng:(Rng.create 2) ~epsilon:0.8
      ~delta:0.8 g
  with
  | Error _ -> Alcotest.fail "approxmc failed"
  | Ok r ->
      (* projected count on an independent support = full count *)
      Alcotest.(check (float 0.01))
        "approx = exact" (float_of_int exact) r.Counting.Approxmc.estimate

(* solver UNSAT verdict inside a workflow carries a checkable proof *)
let test_unsat_pipeline_with_proof () =
  (* squaring circuit asserted to an impossible residue: x² ≡ 2 mod 4
     has no solutions (squares are 0 or 1 mod 4) *)
  let nl =
    Circuits.Generators.squaring_equivalence ~bits:5 ~residue:2 ~modulus_bits:2
  in
  let f = (Circuits.Tseitin.encode nl).Circuits.Tseitin.formula in
  let s = Sat.Solver.create f in
  Sat.Solver.enable_proof_logging s;
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "x^2 = 2 mod 4 is impossible");
  Alcotest.(check bool) "refutation verifies" true
    (Sat.Drat.refutes f (Sat.Solver.proof s))

(* generated DIMACS file round-trips through the CLI-facing writer and
   yields the same sample distribution support *)
let test_dimacs_file_sampling_equivalence () =
  let rng = Rng.create 31 in
  let f = Circuits.Generators.case_formula ~rng ~num_inputs:8 ~num_gates:30 in
  let path = Filename.temp_file "unigen_integration" ".cnf" in
  Cnf.Dimacs.write_file path f;
  let g = Cnf.Dimacs.parse_file path in
  Sys.remove path;
  let witnesses formula =
    let out = Sat.Bsat.enumerate ~limit:5000 formula in
    Alcotest.(check bool) "exhausted" true out.Sat.Bsat.exhausted;
    List.map
      (fun m -> Cnf.Model.key (Cnf.Model.restrict m (Cnf.Formula.sampling_vars formula)))
      out.Sat.Bsat.models
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string)) "same projected witness set" (witnesses f)
    (witnesses g)

(* MCMC, XORSample', UniWit and UniGen all sample the same witness set *)
let test_all_samplers_agree_on_support () =
  let f =
    Cnf.Formula.create ~num_vars:6 [ clause [ 1; 2 ]; clause [ -1; -2; 3 ] ]
  in
  let valid = Hashtbl.create 64 in
  List.iter
    (fun m -> Hashtbl.replace valid (Cnf.Model.key m) ())
    (Sat.Brute.solutions f);
  let check_sampler name outcome =
    match outcome with
    | Ok m ->
        Alcotest.(check bool) (name ^ " in witness set") true
          (Hashtbl.mem valid (Cnf.Model.key m))
    | Error _ -> ()
  in
  let rng = Rng.create 37 in
  (match Sampling.Unigen.prepare ~count_iterations:5 ~rng ~epsilon:6.0 f with
  | Ok p ->
      for i = 1 to 10 do
        check_sampler "unigen"
          (fst (Sampling.Unigen.sample_index ~max_attempts:1 ~seed:37 p i))
      done
  | Error _ -> Alcotest.fail "prepare failed");
  for _ = 1 to 10 do
    check_sampler "uniwit" (Sampling.Uniwit.sample ~rng f);
    check_sampler "xorsample" (Sampling.Xorsample.sample ~rng ~s:3 f);
    check_sampler "mcmc" (Sampling.Mcmc.sample ~rng f)
  done

(* the workload suite instances stay reproducible: same name, same
   formula, across forcings *)
let test_suite_determinism () =
  match (Workload.Suite.by_name "case_s1", Workload.Suite.by_name "case_s1") with
  | Some a, Some b ->
      let fa = Lazy.force a.Workload.Suite.formula in
      let fb = Lazy.force b.Workload.Suite.formula in
      Alcotest.(check string) "identical DIMACS" (Cnf.Dimacs.to_string fa)
        (Cnf.Dimacs.to_string fb)
  | _ -> Alcotest.fail "instance missing"

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "circuit->sample" `Slow
            test_circuit_to_sample_pipeline;
          Alcotest.test_case "dimacs->support->count" `Slow
            test_dimacs_support_count_pipeline;
          Alcotest.test_case "unsat with proof" `Quick test_unsat_pipeline_with_proof;
          Alcotest.test_case "dimacs file equivalence" `Slow
            test_dimacs_file_sampling_equivalence;
          Alcotest.test_case "samplers agree" `Quick test_all_samplers_agree_on_support;
          Alcotest.test_case "suite determinism" `Quick test_suite_determinism;
        ] );
    ]
