(* Tests for the in-search Gauss-Jordan XOR engine: fixpoint
   equivalence against a from-scratch static RREF, matrix-state
   restoration across session push/pop, enumeration against brute
   force, and the observability surface. *)

(* ------------------------------------------------------------------ *)
(* Static reference: the propagation closure of an XOR system plus a
   set of forced literals, computed by repeated substitute-and-RREF
   until no new unit appears. This is what the incremental matrix must
   agree with at every clean fixpoint. *)

let static_closure rows units =
  let tbl = Hashtbl.create 16 in
  let unsat = ref false in
  let learn v b =
    match Hashtbl.find_opt tbl v with
    | Some b' -> if b <> b' then unsat := true
    | None -> Hashtbl.replace tbl v b
  in
  List.iter (fun (v, b) -> learn v b) units;
  let changed = ref true in
  while !changed && not !unsat do
    changed := false;
    let substituted =
      List.map
        (fun (r : Cnf.Xor_clause.t) ->
          let rhs = ref r.Cnf.Xor_clause.rhs in
          let rem =
            List.filter
              (fun v ->
                match Hashtbl.find_opt tbl v with
                | Some b ->
                    if b then rhs := not !rhs;
                    false
                | None -> true)
              (Array.to_list r.Cnf.Xor_clause.vars)
          in
          Cnf.Xor_clause.make rem !rhs)
        rows
    in
    match Cnf.Xor_gauss.eliminate substituted with
    | Error `Unsat -> unsat := true
    | Ok r ->
        List.iter
          (fun (v, b) ->
            if not (Hashtbl.mem tbl v) then begin
              learn v b;
              changed := true
            end)
          r.Cnf.Xor_gauss.units
  done;
  (!unsat, tbl)

(* Variables assigned at level 0 in the live solver, as (var, value)
   pairs restricted to the original formula variables. *)
let solver_assigned view ~num_vars =
  let out = ref [] in
  for v = num_vars downto 1 do
    match view.Audit.State.assigns.(v) with
    | 0 -> ()
    | x -> out := (v, x = 1) :: !out
  done;
  !out

(* The incremental matrix, fed one forced literal at a time, reaches
   exactly the static-RREF closure of (rows + literals so far) after
   each addition: same forced variables, same values, same
   (in)consistency verdict. This is the fixpoint-equivalence property
   behind the [gauss-fixpoint] audit invariant. *)
let prop_fixpoint_matches_static_rref =
  QCheck2.Test.make ~count:400
    ~name:"incremental gauss propagation = from-scratch static RREF"
    ~print:(fun (seed, nv, nx) -> Printf.sprintf "seed=%d nv=%d nx=%d" seed nv nx)
    QCheck2.Gen.(tup3 (int_bound 1_000_000) (int_bound 9) (int_bound 5))
    (fun (seed, nv, nx) ->
      let num_vars = 2 + nv in
      let rng = Rng.create seed in
      let rows =
        List.init (1 + nx) (fun _ ->
            Test_util.Gen.random_xor rng ~num_vars)
      in
      let s = Sat.Solver.create_empty num_vars in
      List.iter (Sat.Solver.add_xor s) rows;
      let steps = 1 + Rng.int rng num_vars in
      let units = ref [] in
      let ok = ref true in
      (try
         for _ = 1 to steps do
           if Sat.Solver.okay s then begin
             let v = 1 + Rng.int rng num_vars in
             let b = Rng.bool rng in
             units := (v, b) :: !units;
             Sat.Solver.add_clause s [| Cnf.Lit.make v b |];
             let expect_unsat, closure = static_closure rows !units in
             if expect_unsat then begin
               if Sat.Solver.okay s then begin
                 ok := false;
                 QCheck2.Test.fail_report
                   "static closure unsat but solver still okay"
               end
             end
             else begin
               if not (Sat.Solver.okay s) then begin
                 ok := false;
                 QCheck2.Test.fail_report
                   "solver broken but static closure consistent"
               end;
               let view = Sat.Solver.audit_view s in
               let got = solver_assigned view ~num_vars in
               let want =
                 Hashtbl.fold (fun v b acc -> (v, b) :: acc) closure []
                 |> List.sort compare
               in
               if got <> want then begin
                 ok := false;
                 let show l =
                   String.concat " "
                     (List.map (fun (v, b) -> Printf.sprintf "%d=%b" v b) l)
                 in
                 QCheck2.Test.fail_reportf
                   "fixpoint mismatch: solver [%s] closure [%s] rows [%s]"
                   (show got) (show want)
                   (String.concat "; "
                      (List.map
                         (fun (r : Cnf.Xor_clause.t) ->
                           Printf.sprintf "%s=%b"
                             (String.concat "+"
                                (List.map string_of_int
                                   (Array.to_list r.Cnf.Xor_clause.vars)))
                             r.Cnf.Xor_clause.rhs)
                         rows))
               end
             end
           end
         done
       with QCheck2.Test.Test_fail _ as e -> raise e);
      !ok)

(* ------------------------------------------------------------------ *)
(* Session round-trip: pushing an XOR layer as a group and popping it
   restores the matrix state. Restoration is semantic, not bit-level:
   the rebuild interleaves row re-addition with the surviving level-0
   assignments in a different order than the original incremental
   construction, so it may settle on a different — but equivalent —
   Jordan basis of the same row space. The property therefore checks
   (1) the groups and row counts come back, (2) the row spaces are
   mutually implied, (3) a full invariant sweep accepts the rebuilt
   state (the [gauss-fixpoint] invariant certifies agreement with a
   from-scratch RREF), and (4) the solver answers like a fresh one.
   When no level-0 assignment exists on either side of the round-trip
   the rebuild is a pure replay and the dump must match bit-for-bit. *)

let dump_rows rows =
  Array.to_list rows
  |> List.map (fun (d : Sat.Gauss.row_dump) ->
         Cnf.Xor_clause.make (Array.to_list d.Sat.Gauss.d_vars) d.Sat.Gauss.d_rhs)

let same_row_space before after =
  List.length before = List.length after
  && List.for_all2
       (fun (gb, rb) (ga, ra) ->
         gb = ga
         && Array.length rb = Array.length ra
         && (let xb = dump_rows rb and xa = dump_rows ra in
             List.for_all (Cnf.Xor_gauss.implies xb) xa
             && List.for_all (Cnf.Xor_gauss.implies xa) xb))
       before after

let prop_pushpop_restores_matrix =
  QCheck2.Test.make ~count:300
    ~name:"group pop restores gauss matrix state"
    ~print:(fun ((s, nv, nc, nx), g) ->
      Printf.sprintf "spec=(%d,%d,%d,%d) gseed=%d" s nv nc nx g)
    QCheck2.Gen.(tup2 Test_util.Gen.formula_spec (int_bound 1_000_000))
    (fun (spec, gseed) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let s = Sat.Solver.create f in
      let trail_empty v = Array.length v.Audit.State.trail = 0 in
      let clean_before = trail_empty (Sat.Solver.audit_view s) in
      let before = Sat.Solver.gauss_dump s in
      let rng = Rng.create gseed in
      let layer =
        List.init (1 + Rng.int rng 3) (fun _ ->
            Test_util.Gen.random_xor rng ~num_vars:nv)
      in
      Sat.Solver.push_group s;
      List.iter (Sat.Solver.add_group_xor s) layer;
      Sat.Solver.pop_group s;
      let after = Sat.Solver.gauss_dump s in
      if not (same_row_space before after) then
        QCheck2.Test.fail_report "pop_group did not restore the matrix row space";
      (* the rebuilt state passes the full sanitizer, including the
         gauss-basic / gauss-watch / gauss-fixpoint invariants *)
      Sat.Solver.check_invariants s;
      if clean_before && trail_empty (Sat.Solver.audit_view s)
         && before <> after
      then
        QCheck2.Test.fail_report
          "assignment-free round-trip must restore the exact matrix dump";
      (* and the restored solver still answers like a fresh one *)
      let fresh = Sat.Solver.create f in
      Sat.Solver.solve s = Sat.Solver.solve fresh)

(* ------------------------------------------------------------------ *)
(* Enumeration against brute force: on every exhausted cell the
   witnesses [Bsat.enumerate] returns are exactly the distinct
   projections onto the sampling set of the formula's brute-force
   solutions, once each. Odd seeds declare a random sampling subset so
   that blocking on a projection is exercised too. *)

let with_random_sampling_set seed (f : Cnf.Formula.t) =
  if seed land 1 = 0 then f
  else
    let rng = Rng.create (seed lsr 1) in
    let n = f.Cnf.Formula.num_vars in
    let subset = List.filter (fun _ -> Rng.bool rng) (List.init n (fun i -> i + 1)) in
    Cnf.Formula.with_sampling_set f (if subset = [] then [ 1 + Rng.int rng n ] else subset)

let projected_keys s models =
  List.map (fun m -> Cnf.Model.key (Cnf.Model.restrict m s)) models

let prop_enumeration_matches_brute =
  QCheck2.Test.make ~count:300
    ~name:"bsat enumerate: gauss engine = brute-force projections"
    ~print:(fun (s, nv, nc, nx) ->
      Printf.sprintf "spec=(%d,%d,%d,%d)" s nv nc nx)
    Test_util.Gen.formula_spec
    (fun ((seed, _, _, _) as spec) ->
      let f = with_random_sampling_set seed (Test_util.Gen.build_spec spec) in
      let s = Cnf.Formula.sampling_vars f in
      let limit = 64 in
      let g = Sat.Bsat.enumerate ~limit f in
      let brute =
        List.sort_uniq String.compare (projected_keys s (Sat.Brute.solutions f))
      in
      if g.Sat.Bsat.exhausted then begin
        (* not deduplicated: a repeated witness must show as a mismatch *)
        let got = List.sort String.compare (projected_keys s g.Sat.Bsat.models) in
        if got <> brute then
          QCheck2.Test.fail_reportf
            "exhausted cell: %d witnesses enumerated, %d distinct brute-force projections%s"
            (List.length got) (List.length brute)
            (if List.length got = List.length brute then " (different sets)" else "");
        true
      end
      else List.length g.Sat.Bsat.models = limit && List.length brute >= limit)

(* ------------------------------------------------------------------ *)
(* The matrix on its own, outside a solver, with hooks that write
   into a test-owned assignment and trail. *)

type harness = {
  assigns : int array;
  trail : int array;
  tsize : int ref;
  implied : (int * int) list ref; (* (literal, row), latest first *)
}

let harness ~num_vars =
  { assigns = Array.make (num_vars + 1) 0;
    trail = Array.make (num_vars + 1) 0;
    tsize = ref 0;
    implied = ref [] }

let assign h lit =
  h.assigns.(lit lsr 1) <- (if lit land 1 = 0 then 1 else -1);
  h.trail.(!(h.tsize)) <- lit;
  incr h.tsize

(* A matrix whose [enqueue] hook assigns and records every implied
   literal. *)
let recording_matrix h =
  Sat.Gauss.create ~group:0
    ~trail_size:(fun () -> !(h.tsize))
    ~enqueue:(fun _ lit row ->
      assign h lit;
      h.implied := (lit, row) :: !(h.implied))

(* Propagate the trail from [qhead] to a fixpoint; the first conflicting
   row, or -1. *)
let propagate_from h m qhead =
  let conflict = ref (-1) in
  let q = ref qhead in
  while !conflict < 0 && !q < !(h.tsize) do
    conflict := Sat.Gauss.on_assign m ~assigns:h.assigns ~var:(h.trail.(!q) lsr 1);
    incr q
  done;
  !conflict

(* The engine's literal encoding: [2v] positive, [2v + 1] negative. *)
let lit v b = (v lsl 1) lor if b then 0 else 1

(* The per-assignment path allocates nothing: with hooks allocated up
   front, a loop of watch moves, a unit, a satisfied detach, a
   conflict, a backtrack and a repair leaves [Gc.minor_words]
   unchanged. The first round grows the matrix's internal stacks to
   their working size and is not measured. *)
let test_zero_allocation () =
  Obs.Metrics.enable ();
  let h = harness ~num_vars:8 in
  let assigns = h.assigns and push = assign h in
  let units = ref 0 in
  let m =
    Sat.Gauss.create ~group:0
      ~trail_size:(fun () -> !(h.tsize))
      ~enqueue:(fun _ l _ ->
        incr units;
        push l)
  in
  let a = Sat.Gauss.add_row m ~assigns ~vars:[ 1; 2; 3; 4 ] ~rhs:true in
  let b = Sat.Gauss.add_row m ~assigns ~vars:[ 5; 6 ] ~rhs:false in
  let c = Sat.Gauss.add_row m ~assigns ~vars:[ 7; 8 ] ~rhs:true in
  Alcotest.(check (list int)) "rows added without conflict" [ -1; -1; -1 ] [ a; b; c ];
  let bad = ref 0 in
  let expect (want : int) got = if got <> want then incr bad in
  let round () =
    (* x1, x2: the row watching them moves its watches (and pivot) *)
    push (lit 1 true);
    expect (-1) (Sat.Gauss.on_assign m ~assigns ~var:1);
    push (lit 2 false);
    expect (-1) (Sat.Gauss.on_assign m ~assigns ~var:2);
    (* x3: one unassigned variable left, so x4 is implied and the row
       detaches *)
    push (lit 3 true);
    expect (-1) (Sat.Gauss.on_assign m ~assigns ~var:3);
    expect 1 assigns.(4);
    expect (-1) (Sat.Gauss.on_assign m ~assigns ~var:4);
    (* x7 x8 satisfy their row: a satisfied detach *)
    push (lit 7 true);
    push (lit 8 false);
    expect (-1) (Sat.Gauss.on_assign m ~assigns ~var:7);
    (* x5 x6 violate theirs: a conflict on row 1 *)
    push (lit 5 true);
    push (lit 6 false);
    expect 1 (Sat.Gauss.on_assign m ~assigns ~var:5);
    (* backtrack everything and repair *)
    Sat.Gauss.cancel_to m ~trail_size:0;
    for i = 0 to !(h.tsize) - 1 do
      assigns.(h.trail.(i) lsr 1) <- 0
    done;
    h.tsize := 0;
    expect (-1) (Sat.Gauss.repair m ~assigns)
  in
  round ();
  let rounds = 50 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let after = Gc.minor_words () in
  Obs.Metrics.disable ();
  Alcotest.(check int) "every round behaved" 0 !bad;
  Alcotest.(check int) "one unit per round" (rounds + 1) !units;
  Alcotest.(check (float 0.0)) "minor words allocated" 0.0 (after -. before)

(* A lazy reason or conflict clause, filled into a scratch buffer
   with room to spare: the filled prefix is the clause, and the slots
   past it are untouched. *)
let filled fill =
  let buf = Array.make 64 (-1) in
  let n = fill buf in
  for i = n to Array.length buf - 1 do
    if buf.(i) <> -1 then Alcotest.failf "slot %d past the %d filled was written" i n
  done;
  Array.sub buf 0 n

let reason_lits m ~assigns ~row ~implied =
  filled (Sat.Gauss.reason_into m ~assigns ~row ~implied)

let conflict_lits m ~assigns ~row = filled (Sat.Gauss.conflict_into m ~assigns ~row)

(* The reason order on a hand-built matrix: columns are numbered in
   the order variables first enter the matrix (x5 x3 x9 x1 here), and
   a reason lists the implied literal, then the others by descending
   column. *)
let test_reason_order () =
  let h = harness ~num_vars:9 in
  let m = recording_matrix h in
  Alcotest.(check int) "no conflict" (-1)
    (Sat.Gauss.add_row m ~assigns:h.assigns ~vars:[ 5; 3; 9; 1 ] ~rhs:true);
  assign h (lit 5 true);
  assign h (lit 9 false);
  assign h (lit 1 true);
  Alcotest.(check int) "no conflict" (-1) (propagate_from h m 0);
  Alcotest.(check (list (pair int int))) "x3 implied by row 0"
    [ (lit 3 true, 0) ] !(h.implied);
  Alcotest.(check (array int)) "implied, then x1 x9 x5"
    [| lit 3 true; lit 1 false; lit 9 true; lit 5 false |]
    (reason_lits m ~assigns:h.assigns ~row:0 ~implied:(lit 3 true));
  let h = harness ~num_vars:7 in
  let m = recording_matrix h in
  Alcotest.(check int) "no conflict" (-1)
    (Sat.Gauss.add_row m ~assigns:h.assigns ~vars:[ 4; 2; 7 ] ~rhs:false);
  assign h (lit 4 true);
  assign h (lit 2 false);
  assign h (lit 7 false);
  Alcotest.(check int) "row 0 violated" 0 (propagate_from h m 0);
  Alcotest.(check (array int)) "x7 x2 x4"
    [| lit 7 true; lit 2 true; lit 4 false |]
    (conflict_lits m ~assigns:h.assigns ~row:0)

(* The reason contract on random matrices driven by random decisions:
   every reason puts its implied literal first, holds each variable of
   the row exactly once, has every other literal false, and lists them
   by descending column; conflict clauses likewise, all false. *)
let prop_reason_contract =
  QCheck2.Test.make ~count:300 ~name:"gauss reasons: implied first, then descending columns"
    ~print:(fun (seed, nv, nr) -> Printf.sprintf "seed=%d nv=%d nr=%d" seed nv nr)
    QCheck2.Gen.(tup3 (int_bound 1_000_000) (int_bound 10) (int_bound 6))
    (fun (seed, nv, nr) ->
      let num_vars = 2 + nv in
      let rng = Rng.create seed in
      let h = harness ~num_vars in
      let m = recording_matrix h in
      let rows =
        List.init (1 + nr) (fun _ ->
            (List.init (1 + Rng.int rng 5) (fun _ -> 1 + Rng.int rng num_vars),
             Rng.bool rng))
      in
      (* column of each variable: its rank of first appearance *)
      let col = Array.make (num_vars + 1) (-1) in
      let ncols = ref 0 in
      List.iter
        (fun (vars, _) ->
          List.iter
            (fun v ->
              if col.(v) < 0 then begin
                col.(v) <- !ncols;
                incr ncols
              end)
            vars)
        rows;
      let conflict = ref (-1) in
      List.iter
        (fun (vars, rhs) ->
          if !conflict < 0 then
            conflict := Sat.Gauss.add_row m ~assigns:h.assigns ~vars ~rhs)
        rows;
      let qhead = ref 0 in
      let propagate () =
        if !conflict < 0 then begin
          let from = !qhead in
          qhead := !(h.tsize);
          conflict := propagate_from h m from;
          qhead := !(h.tsize)
        end
      in
      propagate ();
      while !conflict < 0 && !(h.tsize) < num_vars do
        let free = List.filter (fun v -> h.assigns.(v) = 0) (List.init num_vars (fun i -> i + 1)) in
        assign h (lit (List.nth free (Rng.int rng (List.length free))) (Rng.bool rng));
        propagate ()
      done;
      let is_false l = h.assigns.(l lsr 1) = (if l land 1 = 0 then -1 else 1) in
      let descending lits =
        let cols = List.map (fun l -> col.(l lsr 1)) lits in
        List.sort (fun a b -> compare b a) cols = cols
      in
      let same_vars lits row =
        List.sort compare (List.map (fun l -> l lsr 1) lits)
        = Array.to_list (Sat.Gauss.row_vars m ~row)
      in
      List.iter
        (fun (implied, row) ->
          match
            Array.to_list (reason_lits m ~assigns:h.assigns ~row ~implied)
          with
          | [] -> QCheck2.Test.fail_report "empty reason"
          | first :: rest ->
              if first <> implied then QCheck2.Test.fail_report "implied literal not first";
              if h.assigns.(implied lsr 1) <> (if implied land 1 = 0 then 1 else -1) then
                QCheck2.Test.fail_report "implied literal not true";
              if not (List.for_all is_false rest) then
                QCheck2.Test.fail_report "reason literal not false";
              if not (same_vars (first :: rest) row) then
                QCheck2.Test.fail_report "reason variables differ from the row's";
              if not (descending rest) then
                QCheck2.Test.fail_report "reason not in descending column order")
        !(h.implied);
      if !conflict >= 0 then begin
        let lits = Array.to_list (conflict_lits m ~assigns:h.assigns ~row:!conflict) in
        if not (List.for_all is_false lits) then
          QCheck2.Test.fail_report "conflict literal not false";
        if not (same_vars lits !conflict) then
          QCheck2.Test.fail_report "conflict variables differ from the row's";
        if not (descending lits) then
          QCheck2.Test.fail_report "conflict clause not in descending column order"
      end;
      true)

(* ------------------------------------------------------------------ *)
(* Observability: the gauss counters surface through Obs.Metrics when
   the Gauss engine does real work. *)

let test_gauss_counters_surface () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let rng = Rng.create 7 in
  let f =
    Test_util.Gen.random_formula_with_xors rng ~num_vars:12 ~num_clauses:10
      ~num_xors:6 ~width:3
  in
  let out = Sat.Bsat.enumerate ~limit:16 f in
  ignore (out.Sat.Bsat.models : Cnf.Model.t list);
  (* a session layer swap exercises push/pop accounting *)
  let session = Sat.Bsat.Session.create f in
  let xors = [ Cnf.Xor_clause.make [ 1; 2; 3 ] true ] in
  ignore (Sat.Bsat.Session.enumerate ~xors ~limit:4 session : Sat.Bsat.outcome);
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap.Obs.Metrics.counters with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool)
    "gauss_row_reductions > 0" true
    (counter "solver.gauss_row_reductions" > 0);
  Alcotest.(check bool)
    "gauss_detached_rows > 0" true
    (counter "solver.gauss_detached_rows" > 0);
  Alcotest.(check bool)
    "gauss_matrix_pushes > 0" true
    (counter "solver.gauss_matrix_pushes" > 0);
  Obs.Metrics.reset ();
  Obs.Metrics.disable ()

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fixpoint_matches_static_rref;
      prop_pushpop_restores_matrix;
      prop_enumeration_matches_brute;
      prop_reason_contract;
    ]

let () =
  Alcotest.run "gauss"
    [
      ("properties", qcheck_cases);
      ( "engine",
        [
          Alcotest.test_case "no allocation on the assignment path" `Quick
            test_zero_allocation;
          Alcotest.test_case "reason and conflict literal order" `Quick
            test_reason_order;
        ] );
      ( "observability",
        [
          Alcotest.test_case "gauss counters surface" `Quick
            test_gauss_counters_surface;
        ] );
    ]
