type instance = {
  name : string;
  domain : string;
  formula : Cnf.Formula.t Lazy.t;
}

(* Deterministic per-instance randomness: the instance name seeds the
   generator, so the suite is stable across runs and machines. *)
let seed_of_name name = Hashtbl.hash name land 0xFFFFFF

(* Some generators can produce unsatisfiable instances (e.g. parity
   conditions that contradict the circuit). Bump the seed until the
   instance is satisfiable so the suite is usable unconditionally. *)
let ensure_sat ~name build =
  let rec go seed attempts =
    if attempts > 50 then
      failwith (Printf.sprintf "Suite.%s: no satisfiable seed found" name);
    let f = build (Rng.create seed) in
    let solver = Sat.Solver.create f in
    match
      Obs.Trace.span ~cat:"sat" "solver.solve" (fun () ->
          Sat.Solver.solve ~conflict_limit:200_000 solver)
    with
    | Sat.Solver.Sat -> f
    | Sat.Solver.Unsat | Sat.Solver.Unknown -> go (seed + 1) (attempts + 1)
  in
  go (seed_of_name name) 0

let make name domain build =
  { name; domain; formula = lazy (ensure_sat ~name build) }

(* --- "case*" family: random circuits with output parity conditions *)

let case name ~inputs ~gates =
  make name "circuit-parity" (fun rng ->
      Circuits.Generators.case_formula ~rng ~num_inputs:inputs ~num_gates:gates)

(* --- "Squaring*" family: x² ≡ residue (mod 2^k) equivalence circuits *)

let squaring name ~bits ~residue ~modulus_bits =
  make name "squaring" (fun _rng ->
      let nl =
        Circuits.Generators.squaring_equivalence ~bits ~residue ~modulus_bits
      in
      (Circuits.Tseitin.encode nl).Circuits.Tseitin.formula)

(* --- ISCAS89-style: sequential circuits unrolled, parity conditions *)

let iscas name ~kind ~width ~steps ~conditions =
  make name "iscas-parity" (fun rng ->
      let seq =
        match kind with
        | `Lfsr ->
            Circuits.Generators.lfsr ~name ~width
              ~taps:[ 0; (width / 2) - 1; width - 1 ]
        | `Fsm -> Circuits.Generators.nonlinear_fsm ~rng ~name ~width
      in
      let unrolled = Circuits.Sequential.unroll ~observe_last_only:false ~steps seq in
      (Circuits.Tseitin.with_output_parity ~rng ~num_conditions:conditions unrolled)
        .Circuits.Tseitin.formula)

(* --- program-synthesis sketches *)

let sketch name ~controls ~data ~tests =
  make name "synthesis" (fun rng ->
      let nl =
        Circuits.Generators.sketch ~rng ~name ~control_bits:controls
          ~data_bits:data ~num_tests:tests
      in
      (Circuits.Tseitin.encode nl).Circuits.Tseitin.formula)

(* --- large Tseitin formulas with small independent support
       ("tutorial3" / "LLReverse" analogs) *)

let large_tseitin name ~inputs ~gates ~outputs ~conditions =
  make name "large-tseitin" (fun rng ->
      let nl =
        Circuits.Generators.random_dag ~rng ~name ~num_inputs:inputs
          ~num_gates:gates ~num_outputs:outputs
      in
      (Circuits.Tseitin.with_output_parity ~rng ~num_conditions:conditions nl)
        .Circuits.Tseitin.formula)

(* --- multiplier equivalence ("Karatsuba" flavour) *)

let multiplier name ~bits =
  make name "equivalence" (fun _rng ->
      let nl = Circuits.Generators.multiplier_equivalence ~bits in
      (Circuits.Tseitin.encode nl).Circuits.Tseitin.formula)

(* ------------------------------------------------------------------ *)

let table2 =
  [
    (* small case circuits (Table 2 rows case121 .. case35) *)
    case "case_s1" ~inputs:14 ~gates:50;
    case "case_s2" ~inputs:16 ~gates:70;
    case "case_m1" ~inputs:18 ~gates:110;
    case "case_m2" ~inputs:20 ~gates:140;
    (* squaring family *)
    (* the first two stay below hiThresh (UniGen's easy case); the
       larger two have 2^(bits-1) witnesses and exercise the hashed
       path on a deep multiplier circuit *)
    squaring "squaring_5" ~bits:5 ~residue:1 ~modulus_bits:3;
    squaring "squaring_6" ~bits:6 ~residue:4 ~modulus_bits:4;
    squaring "squaring_7" ~bits:7 ~residue:1 ~modulus_bits:2;
    squaring "squaring_8" ~bits:8 ~residue:1 ~modulus_bits:2;
    (* ISCAS89-style sequential + parity *)
    iscas "s_lfsr16_3" ~kind:`Lfsr ~width:16 ~steps:3 ~conditions:3;
    iscas "s_lfsr20_4" ~kind:`Lfsr ~width:20 ~steps:4 ~conditions:4;
    iscas "s_fsm12_3" ~kind:`Fsm ~width:12 ~steps:3 ~conditions:2;
    iscas "s_fsm16_4" ~kind:`Fsm ~width:16 ~steps:4 ~conditions:3;
    iscas "s_fsm20_3" ~kind:`Fsm ~width:20 ~steps:3 ~conditions:3;
    (* synthesis sketches *)
    sketch "sk_login" ~controls:16 ~data:6 ~tests:2;
    sketch "sk_enqueue" ~controls:20 ~data:6 ~tests:3;
    sketch "sk_sort" ~controls:24 ~data:7 ~tests:3;
    sketch "sk_karatsuba" ~controls:28 ~data:8 ~tests:4;
    (* equivalence checking *)
    multiplier "mult_eq_4" ~bits:4;
    (* big Tseitin, small support *)
    large_tseitin "ll_reverse" ~inputs:20 ~gates:3000 ~outputs:10 ~conditions:4;
    large_tseitin "tutorial_xl" ~inputs:24 ~gates:6000 ~outputs:12 ~conditions:5;
  ]

let table1 =
  let names =
    [
      "squaring_7"; "squaring_8"; "squaring_6"; "s_lfsr16_3"; "s_lfsr20_4";
      "s_fsm16_4"; "sk_enqueue"; "sk_login"; "ll_reverse"; "sk_sort";
      "sk_karatsuba"; "tutorial_xl";
    ]
  in
  List.filter (fun i -> List.mem i.name names) table2

let quick =
  List.filter
    (fun i -> List.mem i.name [ "case_s1"; "squaring_5"; "s_fsm12_3"; "sk_login" ])
    table2

let uniformity_case =
  case "case_uniformity" ~inputs:11 ~gates:40

let by_name name =
  if name = uniformity_case.name then Some uniformity_case
  else List.find_opt (fun i -> i.name = name) table2

let num_vars i = (Lazy.force i.formula).Cnf.Formula.num_vars
