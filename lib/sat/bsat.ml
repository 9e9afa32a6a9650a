type outcome = {
  models : Cnf.Model.t list;
  exhausted : bool;
  timed_out : bool;
  stats : Solver.stats;
  reused : bool;
}

(* Models are returned in canonical (key) order, not discovery order:
   a session-backed enumeration discovers witnesses in an order that
   depends on the solver's accumulated learnt clauses and activities,
   i.e. on the session's history. Complete cells are history-
   independent as SETS, so sorting makes the outcome — and everything
   downstream that indexes into it, like UniGen's uniform pick — a
   pure function of the formula, restoring bit-identity between the
   fresh and session paths and across parallel schedules. The order is
   over the full model, not its projection onto the blocking set: a
   projected order would permute cells and change the witnesses drawn.
   [Cnf.Model.compare] gives it from the value bytes, building no key. *)
let sort_models ms = List.sort Cnf.Model.compare ms

let c_blocking_clauses = Obs.Metrics.counter "bsat.blocking_clauses"
let c_enumerations = Obs.Metrics.counter "bsat.enumerations"

(* The blocking-clause enumeration loop, shared by the one-shot and
   session paths; [verify] is the formula the witnesses must satisfy.
   Each blocking clause goes in through [Solver.block], in the pushed
   group if there is one, and the next solve resumes from the model's
   trail. The witness set of a cell that runs out is the same whatever
   order the search finds it in, and a cut cell only reports its
   count, so outcomes do not depend on where each search starts. *)
let enum_loop ?deadline ~limit ~blocking ~verify ~truncate solver =
  Obs.Metrics.incr c_enumerations;
  let audit = Audit.is_enabled () in
  (* projected keys of the witnesses found so far: with audit mode on,
     every new witness is re-checked against the accumulated
     blocking-clause set (a repeat projection means a blocking clause
     was lost or never took effect) *)
  let seen_keys = Hashtbl.create (if audit then 64 else 1) in
  let rec loop acc found =
    if found >= limit then (List.rev acc, `Cut)
    else
      match Solver.solve ?deadline solver with
      | Solver.Unsat -> (List.rev acc, `Exhausted)
      | Solver.Unknown -> (List.rev acc, `Timeout)
      | Solver.Sat ->
          let m = truncate (Solver.model solver) in
          if not (Cnf.Model.satisfies verify m) then
            Audit.fail ~invariant:"model-audit"
              ~detail:"Bsat.enumerate: solver returned a witness falsifying the formula"
              [ ("witness",
                 String.concat " " (List.map string_of_int (Cnf.Model.to_dimacs m)));
                ("found_so_far", string_of_int found) ];
          if audit then begin
            let k = Cnf.Model.key (Cnf.Model.restrict m blocking) in
            if Hashtbl.mem seen_keys k then
              Audit.fail ~invariant:"blocking-set"
                ~detail:
                  "Bsat.enumerate: witness repeats a projection already excluded by a blocking clause"
                [ ("witness",
                   String.concat " " (List.map string_of_int (Cnf.Model.to_dimacs m)));
                  ("found_so_far", string_of_int found) ];
            Hashtbl.add seen_keys k ()
          end;
          (* block this witness on the projection *)
          let block =
            Array.to_list blocking
            |> List.map (fun v -> Cnf.Lit.make v (not (Cnf.Model.value m v)))
          in
          Obs.Metrics.incr c_blocking_clauses;
          Solver.block solver block;
          loop (m :: acc) (found + 1)
  in
  loop [] 0

let outcome_of ~reused ~stats (models, status) =
  {
    models = sort_models models;
    exhausted = status = `Exhausted;
    timed_out = status = `Timeout;
    stats;
    reused;
  }

let enumerate ?deadline ?blocking_vars ~limit (f : Cnf.Formula.t) =
  Obs.Trace.span ~cat:"sat" "bsat.enumerate"
    ~args:[ ("limit", string_of_int limit) ]
  @@ fun () ->
  let blocking =
    match blocking_vars with
    | Some vs -> vs
    | None -> Cnf.Formula.sampling_vars f
  in
  let solver = Solver.create f in
  let res = enum_loop ?deadline ~limit ~blocking ~verify:f ~truncate:Fun.id solver in
  outcome_of ~reused:false ~stats:(Solver.stats solver) res

let count_upto ?deadline ~limit f =
  List.length (enumerate ?deadline ~limit f).models

module Session = struct
  type t = {
    formula : Cnf.Formula.t;
    blocking : int array;
    solver : Solver.t;
    base_vars : int; (* formula width, before activation variables *)
    mutable calls : int;
    owner : Audit.Ownership.t; (* sessions are single-domain resources *)
  }

  let create ?blocking_vars (f : Cnf.Formula.t) =
    let blocking =
      match blocking_vars with
      | Some vs -> vs
      | None -> Cnf.Formula.sampling_vars f
    in
    { formula = f; blocking; solver = Solver.create f;
      base_vars = f.Cnf.Formula.num_vars; calls = 0;
      owner = Audit.Ownership.create "Bsat.Session" }

  let calls s = s.calls
  let formula s = s.formula
  let blocking_vars s = s.blocking

  let stats s =
    Audit.Ownership.check s.owner;
    Solver.stats s.solver

  let enumerate ?deadline ?(xors = []) ?(known = []) ~limit s =
    Obs.Trace.span ~cat:"sat" "bsat.session.enumerate"
      ~args:
        [ ("limit", string_of_int limit);
          ("xor_rows", string_of_int (List.length xors));
          ("known", string_of_int (List.length known)) ]
    @@ fun () ->
    Audit.Ownership.check s.owner;
    let reused = s.calls > 0 in
    s.calls <- s.calls + 1;
    let solver = s.solver in
    let before = Solver.stats solver in
    let verify = Cnf.Formula.add_xors s.formula xors in
    let truncate m = Cnf.Model.prefix m s.base_vars in
    (* Everything this call adds — the XOR layer, the clauses blocking
       the [known] projections and the blocking clauses of the witnesses
       found — lives in one group popped on the way out, leaving only
       learnt clauses about the base formula behind. The raw layer goes
       to the Gauss matrix as is: a layer swap is a matrix push/pop,
       not a re-RREF, because the matrix reduces each row against its
       basis as it arrives. *)
    Solver.push_group solver;
    let res =
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.span ~cat:"sat" "xor_layer.pop" (fun () ->
              Solver.pop_group solver))
        (fun () ->
          Obs.Trace.span ~cat:"sat" "xor_layer.push"
            ~args:[ ("rows", string_of_int (List.length xors)) ]
            (fun () -> List.iter (Solver.add_group_xor solver) xors);
          List.iter
            (fun values ->
              if Array.length values <> Array.length s.blocking then
                invalid_arg "Bsat.Session.enumerate: known projection width";
              Solver.add_group_clause solver
                (Array.to_list
                   (Array.mapi (fun j v -> Cnf.Lit.make v (not values.(j))) s.blocking)))
            known;
          enum_loop ?deadline ~limit ~blocking:s.blocking ~verify ~truncate solver)
    in
    outcome_of ~reused
      ~stats:(Solver.stats_diff (Solver.stats solver) before)
      res
end
