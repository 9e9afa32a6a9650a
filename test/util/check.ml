(* DRAT-checked solving shared by the test suites.

   Policy: an UNSAT verdict on an XOR-free formula is only trusted
   when it comes with a machine-checked RUP refutation, so a solver
   bug that answers UNSAT by accident cannot hide behind a test that
   merely expected UNSAT. XOR-bearing formulas are exempt (native XOR
   reasoning has no DRAT representation — see [Sat.Drat]). *)

let pure_cnf (f : Cnf.Formula.t) = Array.length f.xors = 0

let refutation_failure detail =
  failwith ("checked solve: UNSAT verdict not DRAT-certified: " ^ detail)

(* Same construction as [Sat.Solver.create], but with proof logging
   switched on before the clauses are loaded, so conflicts discovered
   while loading (e.g. contradictory units) are part of the log. *)
let logged_solver (f : Cnf.Formula.t) =
  let s = Sat.Solver.create_empty f.num_vars in
  Sat.Solver.enable_proof_logging s;
  Array.iter (Sat.Solver.add_clause s) f.clauses;
  s

let assert_refutable (f : Cnf.Formula.t) =
  let s = logged_solver f in
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | _ -> refutation_failure "certifying re-solve disagreed with UNSAT");
  if not (Sat.Drat.refutes f (Sat.Solver.proof s)) then
    refutation_failure "proof log fails RUP checking"

(* Drop-in replacement for [Solver.create] + [Solver.solve]. On a
   pure-CNF formula, an [Unsat] answer is certified by the solve's own
   proof log before being returned. *)
let checked_solve (f : Cnf.Formula.t) =
  if pure_cnf f then begin
    let s = logged_solver f in
    let r = Sat.Solver.solve s in
    (match r with
    | Sat.Solver.Unsat ->
        if not (Sat.Drat.refutes f (Sat.Solver.proof s)) then
          refutation_failure "proof log fails RUP checking"
    | _ -> ());
    (r, s)
  end
  else begin
    let s = Sat.Solver.create f in
    (Sat.Solver.solve s, s)
  end
