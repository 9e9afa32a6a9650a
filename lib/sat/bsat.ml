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
let c_known_clauses = Obs.Metrics.counter "bsat.known_clauses"
let c_enumerations = Obs.Metrics.counter "bsat.enumerations"

let dimacs_of m = String.concat " " (List.map string_of_int (Cnf.Model.to_dimacs m))

(* The always-on check that each witness of one enumeration satisfies
   the formula: the first gets the full check, each later one the
   incremental check against the witness before it, which passed. *)
module Witness_audit = struct
  type t = {
    occ : Cnf.Model.occurrences;
    layer : Cnf.Xor_clause.t list;
    verify : Cnf.Formula.t; (* the indexed formula and the layer *)
    mutable last : Cnf.Model.t option; (* the last witness that passed *)
  }

  let create occ ~xors =
    { occ; layer = xors;
      verify = Cnf.Formula.add_xors (Cnf.Model.indexed occ) xors; last = None }

  let check a ~found m =
    let ok =
      match a.last with
      | None -> Cnf.Model.satisfies a.verify m
      | Some prev ->
          let ok = Cnf.Model.satisfies_after a.occ ~layer:a.layer ~prev m in
          if Audit.is_enabled () && ok <> Cnf.Model.satisfies a.verify m then
            Audit.fail ~invariant:"model-audit"
              ~detail:"Bsat.enumerate: the incremental witness check disagrees with the full one"
              [ ("witness", dimacs_of m); ("previous", dimacs_of prev);
                ("incremental", string_of_bool ok); ("found_so_far", string_of_int found) ];
          ok
    in
    if not ok then
      Audit.fail ~invariant:"model-audit"
        ~detail:"Bsat.enumerate: solver returned a witness falsifying the formula"
        [ ("witness", dimacs_of m); ("found_so_far", string_of_int found) ];
    a.last <- Some m
end

(* The blocking-clause enumeration loop, shared by the one-shot and
   session paths; [audit] checks each witness against the formula.
   Each blocking clause goes in through [Solver.block], in the pushed
   group if there is one, and the next solve resumes from the model's
   trail. The witness set of a cell that runs out is the same whatever
   order the search finds it in, and a cut cell only reports its
   count, so outcomes do not depend on where each search starts.
   The whole loop is one [solver.solve] span: a span per call would
   cost a trace event pair per witness, and [solver.solve_calls]
   counts the calls. *)
let enum_loop ?deadline ~limit ~blocking ~audit:witness_audit ~truncate solver =
  Obs.Trace.span ~cat:"sat" "solver.solve" @@ fun () ->
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
          Witness_audit.check witness_audit ~found m;
          if audit then begin
            let k = Cnf.Model.key (Cnf.Model.restrict m blocking) in
            if Hashtbl.mem seen_keys k then
              Audit.fail ~invariant:"blocking-set"
                ~detail:
                  "Bsat.enumerate: witness repeats a projection already excluded by a blocking clause"
                [ ("witness", dimacs_of m); ("found_so_far", string_of_int found) ];
            Hashtbl.add seen_keys k ()
          end;
          (* block this witness on the projection *)
          Obs.Metrics.incr c_blocking_clauses;
          Solver.block solver
            (Array.map (fun v -> Cnf.Lit.make v (not (Cnf.Model.value m v))) blocking);
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
  let audit = Witness_audit.create (Cnf.Model.occurrences f) ~xors:[] in
  let res = enum_loop ?deadline ~limit ~blocking ~audit ~truncate:Fun.id solver in
  outcome_of ~reused:false ~stats:(Solver.stats solver) res

let count_upto ?deadline ~limit f =
  List.length (enumerate ?deadline ~limit f).models

module Session = struct
  type t = {
    occ : Cnf.Model.occurrences; (* of the base formula, for the witness audit *)
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
    { occ = Cnf.Model.occurrences f; blocking; solver = Solver.create f;
      base_vars = f.Cnf.Formula.num_vars; calls = 0;
      owner = Audit.Ownership.create "Bsat.Session" }

  let calls s = s.calls
  let formula s = Cnf.Model.indexed s.occ
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
    let audit = Witness_audit.create s.occ ~xors in
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
            (fun c ->
              if Array.length c <> Array.length s.blocking then
                invalid_arg "Bsat.Session.enumerate: known projection width";
              Obs.Metrics.incr c_known_clauses;
              Solver.add_group_clause solver c)
            known;
          enum_loop ?deadline ~limit ~blocking:s.blocking ~audit ~truncate solver)
    in
    outcome_of ~reused
      ~stats:(Solver.stats_diff (Solver.stats solver) before)
      res
end
