type verdict = Independent | Dependent | Unknown

(* Build the self-composition query for candidate set [s]. Variables of
   the copy are shifted by n; per dependent variable d we add a fresh
   "difference" variable diff_d ↔ (d ⊕ d') and require some diff_d. *)
let self_composition (f : Cnf.Formula.t) s =
  let f = Cnf.Formula.blast_xors f in
  let n = f.Cnf.Formula.num_vars in
  let in_s = Array.make (n + 1) false in
  List.iter
    (fun v ->
      if v < 1 || v > n then invalid_arg "Indsupport: variable out of range";
      in_s.(v) <- true)
    s;
  let shift l =
    let v = Cnf.Lit.var l and sign = Cnf.Lit.sign l in
    Cnf.Lit.make (v + n) sign
  in
  let copy_clauses =
    Array.to_list f.Cnf.Formula.clauses |> List.map (Array.map shift)
  in
  let dependents =
    List.init n (fun i -> i + 1) |> List.filter (fun v -> not in_s.(v))
  in
  let next = ref ((2 * n) + 1) in
  let equalities = ref [] in
  List.iter
    (fun v ->
      if in_s.(v) then begin
        (* v = v' *)
        equalities :=
          Cnf.Clause.of_dimacs [ -v; v + n ]
          :: Cnf.Clause.of_dimacs [ v; -(v + n) ]
          :: !equalities
      end)
    (List.init n (fun i -> i + 1));
  let diff_clauses = ref [] in
  let diff_lits =
    List.map
      (fun d ->
        let diff = !next in
        incr next;
        let d' = d + n in
        (* diff ↔ (d ⊕ d') *)
        diff_clauses :=
          Cnf.Clause.of_dimacs [ -diff; d; d' ]
          :: Cnf.Clause.of_dimacs [ -diff; -d; -d' ]
          :: Cnf.Clause.of_dimacs [ diff; -d; d' ]
          :: Cnf.Clause.of_dimacs [ diff; d; -d' ]
          :: !diff_clauses;
        Cnf.Lit.pos diff)
      dependents
  in
  let some_difference =
    match diff_lits with
    | [] -> [ Cnf.Clause.of_dimacs [] ] (* S = X: trivially independent *)
    | lits -> [ Cnf.Clause.of_list lits ]
  in
  Cnf.Formula.create ~num_vars:(!next - 1)
    (Array.to_list f.Cnf.Formula.clauses
    @ copy_clauses @ !equalities @ !diff_clauses @ some_difference)

let check ?(conflict_limit = 500_000) ?deadline f s =
  let query = self_composition f s in
  let solver = Solver.create query in
  match
    Obs.Trace.span ~cat:"sat" "solver.solve" (fun () ->
        Solver.solve ~conflict_limit ?deadline solver)
  with
  | Solver.Unsat -> Independent
  | Solver.Sat -> Dependent
  | Solver.Unknown -> Unknown

let minimize ?conflict_limit ?deadline f s =
  (match check ?conflict_limit ?deadline f s with
  | Independent -> ()
  | Dependent -> invalid_arg "Indsupport.minimize: set is not independent"
  | Unknown -> invalid_arg "Indsupport.minimize: could not verify input set");
  let rec go kept = function
    | [] -> List.rev kept
    | v :: rest -> begin
        let candidate = List.rev_append kept rest in
        match check ?conflict_limit ?deadline f candidate with
        | Independent -> go kept rest
        | Dependent | Unknown -> go (v :: kept) rest
      end
  in
  go [] (List.sort_uniq Int.compare s)

let of_formula ?conflict_limit ?deadline (f : Cnf.Formula.t) =
  minimize ?conflict_limit ?deadline f
    (List.init f.Cnf.Formula.num_vars (fun i -> i + 1))
