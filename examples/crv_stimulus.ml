(* Constrained-random verification — the paper's motivating workload.

   A verification engineer declaratively constrains the inputs of a
   design under test; the witness generator then produces random
   stimuli satisfying the constraints. Uniformity matters because bugs
   hide in unknown corners of the constrained space.

   The DUT here accepts 16-bit packets: [opcode:4][src:4][dst:4][len:4]
   with the constraint block
     - opcode < 10          (only 10 opcodes exist)
     - src ≠ dst            (no self-addressed packets)
     - opcode ≥ 8 → len ≥ 4 (control packets carry a payload)

   Run with:  dune exec examples/crv_stimulus.exe *)

module B = Circuits.Netlist.Builder

let build_constraint_block () =
  let b = B.create "packet_constraints" in
  let opcode = Circuits.Arith.input_word b ~width:4 in
  let src = Circuits.Arith.input_word b ~width:4 in
  let dst = Circuits.Arith.input_word b ~width:4 in
  let len = Circuits.Arith.input_word b ~width:4 in
  let c1 = Circuits.Arith.less_than b opcode (Circuits.Arith.constant b ~width:4 10) in
  let c2 = B.not_ b (Circuits.Arith.equal b src dst) in
  let is_control =
    B.not_ b (Circuits.Arith.less_than b opcode (Circuits.Arith.constant b ~width:4 8))
  in
  let len_ok =
    B.not_ b (Circuits.Arith.less_than b len (Circuits.Arith.constant b ~width:4 4))
  in
  let c3 = B.or_ b (B.not_ b is_control) len_ok in
  B.output b (B.and_list b [ c1; c2; c3 ]);
  B.finish b

let field m input_vars lo =
  (* decode 4 bits starting at input index lo *)
  Circuits.Arith.to_int
    (Array.init 4 (fun i -> Cnf.Model.value m input_vars.(lo + i)))

let () =
  let nl = build_constraint_block () in
  let enc = Circuits.Tseitin.encode nl in
  let f = enc.Circuits.Tseitin.formula in
  let inputs = enc.Circuits.Tseitin.input_vars in
  Printf.printf "constraint block: %d CNF variables, %d clauses, %d stimulus bits\n"
    f.Cnf.Formula.num_vars (Cnf.Formula.num_clauses f) (Array.length inputs);

  let rng = Rng.create 7 in
  match Sampling.Unigen.prepare ~rng ~epsilon:6.0 f with
  | Error _ -> failwith "constraints unsatisfiable"
  | Ok prepared ->
      Printf.printf "legal stimulus space: ~%.0f packets\n\n"
        (Sampling.Unigen.count_estimate prepared);

      print_endline "twelve constrained-random stimuli:";
      print_endline "  opcode src dst len";
      let opcode_hist = Array.make 16 0 in
      let num = 500 in
      let shown = ref 0 in
      Array.iteri
        (fun i -> function
          | Ok m ->
              let opcode = field m inputs 0
              and src = field m inputs 4
              and dst = field m inputs 8
              and len = field m inputs 12 in
              (* re-check the constraints the verification engineer wrote *)
              assert (opcode < 10);
              assert (src <> dst);
              assert (opcode < 8 || len >= 4);
              opcode_hist.(opcode) <- opcode_hist.(opcode) + 1;
              if !shown < 12 then begin
                incr shown;
                Printf.printf "  %6d %3d %3d %3d\n" opcode src dst len
              end
          | Error _ -> Printf.eprintf "sample %d failed\n" i)
        (Sampling.Unigen.sample_batch ~seed:7 prepared num);

      (* Uniformity in action: every legal opcode appears with a
         frequency proportional to its share of the legal space. *)
      print_endline "\nopcode coverage over 500 stimuli (uniform sampling spreads it):";
      Array.iteri
        (fun op c ->
          if op < 10 then
            Printf.printf "  opcode %2d: %3d  %s\n" op c (String.make (c / 4) '#'))
        opcode_hist;
      let st = Sampling.Unigen.stats prepared in
      Printf.printf "\nsuccess probability %.3f, avg seconds/stimulus %.4f\n"
        (Sampling.Sampler.success_probability st)
        (Sampling.Sampler.average_seconds_per_sample st)
