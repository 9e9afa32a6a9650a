(* Coverage closure: why uniformity matters.

   Verification teams track functional coverage — every "bin" of
   interesting behaviour must be exercised by some stimulus. A
   uniform generator covers bins at the coupon-collector rate; a
   generator that keeps returning witnesses from the same region
   (e.g. the deterministic solutions a plain SAT solver enumerates)
   leaves bins unhit.

   This example compares three stimulus sources on the same
   constraint block:
   1. UniGen (almost-uniform, this library's core),
   2. plain solver enumeration (the naive baseline: take the next
      solution the CDCL solver happens to find),
   3. XORSample' with a poorly chosen s (the tuning problem the paper
      describes).

   Run with:  dune exec examples/coverage_closure.exe *)

module B = Circuits.Netlist.Builder

(* constraint: an 8-bit value v with v mod 4 ≠ 3 (192 legal values);
   coverage bins = the 16 values of the high nibble *)
let build () =
  let b = B.create "coverage_dut" in
  let v = Circuits.Arith.input_word b ~width:8 in
  let low2 = List.filteri (fun i _ -> i < 2) v in
  let bad = Circuits.Arith.equal b low2 (Circuits.Arith.constant b ~width:2 3) in
  B.output b (B.not_ b bad);
  B.finish b

let high_nibble m inputs =
  Circuits.Arith.to_int (Array.init 4 (fun i -> Cnf.Model.value m inputs.(4 + i)))

let bins_needed = 16

let run_until_covered name next =
  let hit = Array.make bins_needed false in
  let covered = ref 0 in
  let stimuli = ref 0 in
  let budget = 2000 in
  while !covered < bins_needed && !stimuli < budget do
    incr stimuli;
    match next () with
    | Some bin ->
        if not hit.(bin) then begin
          hit.(bin) <- true;
          incr covered
        end
    | None -> ()
  done;
  if !covered = bins_needed then
    Printf.printf "  %-22s all %d bins after %4d stimuli\n" name bins_needed !stimuli
  else
    Printf.printf "  %-22s only %2d/%d bins after %4d stimuli\n" name !covered
      bins_needed !stimuli

let () =
  let nl = build () in
  let enc = Circuits.Tseitin.encode nl in
  let f = enc.Circuits.Tseitin.formula in
  let inputs = enc.Circuits.Tseitin.input_vars in
  Printf.printf "coverage target: %d high-nibble bins over the legal space\n\n"
    bins_needed;

  (* 1. UniGen *)
  let rng = Rng.create 99 in
  (match Sampling.Unigen.prepare ~rng ~epsilon:6.0 f with
  | Error _ -> failwith "unsat"
  | Ok prepared ->
      let drawn = ref 0 in
      run_until_covered "UniGen" (fun () ->
          incr drawn;
          match fst (Sampling.Unigen.sample_index ~seed:99 prepared !drawn) with
          | Ok m -> Some (high_nibble m inputs)
          | Error _ -> None));

  (* 2. naive solver enumeration: deterministic solutions in the order
     the CDCL heuristics produce them — heavily clustered *)
  let solver = Sat.Solver.create f in
  run_until_covered "solver enumeration" (fun () ->
      match Sat.Solver.solve solver with
      | Sat.Solver.Sat ->
          let m = Sat.Solver.model solver in
          let block =
            Array.to_list inputs
            |> List.map (fun v -> Cnf.Lit.make v (not (Cnf.Model.value m v)))
          in
          Sat.Solver.add_clause solver block;
          Some (high_nibble m inputs)
      | _ -> None);

  (* 3. XORSample' with s chosen badly (too large: most cells empty) *)
  let rng3 = Rng.create 100 in
  run_until_covered "XORSample' (s=12)" (fun () ->
      match Sampling.Xorsample.sample ~rng:rng3 ~s:12 f with
      | Ok m -> Some (high_nibble m inputs)
      | Error _ -> None);

  (* and with s chosen well, for fairness *)
  let rng4 = Rng.create 101 in
  run_until_covered "XORSample' (s=4)" (fun () ->
      match Sampling.Xorsample.sample ~rng:rng4 ~s:4 f with
      | Ok m -> Some (high_nibble m inputs)
      | Error _ -> None);

  print_endline
    "\nUniGen needs no per-formula tuning; XORSample' coverage collapses\n\
     when its s parameter is misjudged, and plain enumeration visits\n\
     solutions in clustered order."
