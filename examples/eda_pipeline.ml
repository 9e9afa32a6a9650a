(* End-to-end EDA flow: take a circuit in a standard interchange
   format (BLIF), construct an ISCAS-style verification instance with
   parity conditions, preprocess it, and generate constrained-random
   stimuli — the full pipeline a verification team would run.

   Run with:  dune exec examples/eda_pipeline.exe *)

(* A BLIF design, as a synthesis tool would emit it: a 6-bit
   population-count-threshold checker built from half adders. *)
let blif_design =
  {|
.model popcount_threshold
.inputs a0 a1 a2 a3 a4 a5
.outputs hi lo
# pairwise sums
.names a0 a1 s0
10 1
01 1
.names a0 a1 c0
11 1
.names a2 a3 s1
10 1
01 1
.names a2 a3 c1
11 1
.names a4 a5 s2
10 1
01 1
.names a4 a5 c2
11 1
# at least two of the carries set -> hi
.names c0 c1 c2 hi
11- 1
1-1 1
-11 1
# odd parity of the sums -> lo
.names s0 s1 s2 lo
100 1
010 1
001 1
111 1
.end
|}

let () =
  print_endline "1. parse the BLIF design";
  let nl = Circuits.Blif.of_string blif_design in
  Printf.printf "   %d inputs, %d gates, %d outputs\n"
    nl.Circuits.Netlist.num_inputs
    (Circuits.Netlist.num_gates nl)
    (Array.length nl.Circuits.Netlist.outputs);

  print_endline "2. re-export as AIGER (to show the AIG bridge) and re-import";
  let nl = Circuits.Aiger.of_string (Circuits.Aiger.to_string nl) in

  print_endline "3. build the verification instance: parity conditions on outputs";
  let rng = Rng.create 2014 in
  let enc = Circuits.Tseitin.with_output_parity ~rng ~num_conditions:1 nl in
  let f = enc.Circuits.Tseitin.formula in
  Printf.printf "   CNF: %d vars, %d clauses, sampling set (circuit inputs): %d\n"
    f.Cnf.Formula.num_vars (Cnf.Formula.num_clauses f)
    (Array.length (Cnf.Formula.sampling_vars f));

  print_endline "4. sampling-safe preprocessing";
  (match Preprocess.Simplify.run f with
  | Error `Unsat -> print_endline "   instance is UNSAT (unlucky parity seed)"
  | Ok r ->
      Printf.printf "   %d -> %d clauses, %d vars eliminated\n"
        r.Preprocess.Simplify.clauses_before r.Preprocess.Simplify.clauses_after
        (List.length r.Preprocess.Simplify.eliminated);
      let g = r.Preprocess.Simplify.simplified in

      print_endline "5. sample constrained-random stimuli with UniGen";
      (match Sampling.Unigen.prepare ~rng ~epsilon:6.0 g with
      | Error _ -> print_endline "   UNSAT after preprocessing?!"
      | Ok prepared ->
          Printf.printf "   legal input space: ~%.0f assignments\n"
            (Sampling.Unigen.count_estimate prepared);
          let inputs = enc.Circuits.Tseitin.input_vars in
          Array.iter
            (function
              | Ok m ->
                  (* lift back to the original formula and re-verify by
                     simulating the circuit on the sampled inputs *)
                  let m = Preprocess.Simplify.extend r m in
                  assert (Cnf.Model.satisfies f m);
                  let stimulus =
                    Array.map (fun v -> Cnf.Model.value m v) inputs
                  in
                  let outs = Circuits.Netlist.simulate nl stimulus in
                  Printf.printf "   stimulus %s -> outputs %s\n"
                    (String.concat ""
                       (List.map (fun b -> if b then "1" else "0")
                          (Array.to_list stimulus)))
                    (String.concat ""
                       (List.map (fun b -> if b then "1" else "0")
                          (Array.to_list outs)))
              | Error _ -> print_endline "   (sample failed)")
            (Sampling.Unigen.sample_batch ~seed:2014 prepared 8)));

  print_endline "6. done: same flow as bin/unigen_cli.exe convert + simplify + sample"
