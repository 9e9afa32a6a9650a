(* Mutation tests for the correctness-audit subsystem: each seeded
   corruption of live solver state must be caught by the invariant
   sanitizer, and clean states must never trip it. *)

let clause = Cnf.Clause.of_dimacs
let xor_c vars rhs = Cnf.Xor_clause.make vars rhs

(* Run [f] and report which invariant (if any) it violated. *)
let violation_of f =
  match f () with
  | () -> None
  | exception Audit.Violation r -> Some r.Audit.invariant

let expect_violation name expected f =
  match violation_of f with
  | Some inv when List.mem inv expected -> ()
  | Some inv ->
      Alcotest.failf "%s: caught, but as invariant %S (expected one of %s)" name
        inv
        (String.concat ", " expected)
  | None -> Alcotest.failf "%s: corruption not detected" name

let expect_applied name applied = Alcotest.(check bool) (name ^ " applied") true applied

(* The suite must behave identically under UNIGEN_AUDIT=1 (the CI
   audit pass), so tests that toggle the global switch restore
   whatever state they found. *)
let with_audit b f =
  let was_enabled = Audit.is_enabled () in
  let old_period = Audit.get_period () in
  (if b then Audit.enable () else Audit.disable ());
  Fun.protect
    ~finally:(fun () ->
      Audit.set_period old_period;
      if was_enabled then Audit.enable () else Audit.disable ())
    f

(* ------------------------------------------------------------------ *)
(* Handcrafted corruptions, one per injector *)

let test_detects_dropped_watch () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1; 2 ]; clause [ -1; 3 ] ] in
  let s = Sat.Solver.create f in
  expect_applied "drop_watch" (Sat.Solver.Corrupt.drop_watch s);
  expect_violation "drop_watch" [ "watch-attached"; "two-watch" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_stale_group () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1; 2 ] ] in
  let s = Sat.Solver.create f in
  expect_applied "stale_group" (Sat.Solver.Corrupt.stale_group s);
  expect_violation "stale_group" [ "group-hygiene" ] (fun () ->
      Sat.Solver.check_invariants s)

(* Gauss-engine corruptions. Multi-variable XORs go into the in-search
   matrix; at a root fixpoint the matrix is clean, so the gauss-*
   checks are armed. *)

let test_detects_gauss_flipped_rhs () =
  (* force the row to unit-propagate: it ends up detached (satisfied),
     which is the state flip_rhs corrupts *)
  let s = Sat.Solver.create_empty 3 in
  Sat.Solver.add_xor s (xor_c [ 1; 2; 3 ] true);
  Sat.Solver.add_clause s [| Cnf.Lit.pos 1 |];
  Sat.Solver.add_clause s [| Cnf.Lit.pos 2 |];
  expect_applied "gauss_flip_rhs" (Sat.Solver.Corrupt.gauss_flip_rhs s);
  expect_violation "gauss_flip_rhs" [ "gauss-detached"; "reason-consistency" ]
    (fun () -> Sat.Solver.check_invariants s)

let test_detects_gauss_stolen_basic () =
  let s = Sat.Solver.create_empty 4 in
  Sat.Solver.add_xor s (xor_c [ 1; 2; 3 ] true);
  Sat.Solver.add_xor s (xor_c [ 2; 3; 4 ] false);
  expect_applied "gauss_steal_basic" (Sat.Solver.Corrupt.gauss_steal_basic s);
  expect_violation "gauss_steal_basic" [ "gauss-basic" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_gauss_false_detach () =
  let s = Sat.Solver.create_empty 3 in
  Sat.Solver.add_xor s (xor_c [ 1; 2; 3 ] true);
  expect_applied "gauss_false_detach" (Sat.Solver.Corrupt.gauss_false_detach s);
  expect_violation "gauss_false_detach" [ "gauss-detached" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_gauss_dropped_watch () =
  let s = Sat.Solver.create_empty 3 in
  Sat.Solver.add_xor s (xor_c [ 1; 2; 3 ] false);
  expect_applied "gauss_drop_watch" (Sat.Solver.Corrupt.gauss_drop_watch s);
  expect_violation "gauss_drop_watch" [ "gauss-watch" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_gauss_cleared_watcher () =
  let s = Sat.Solver.create_empty 3 in
  Sat.Solver.add_xor s (xor_c [ 1; 2; 3 ] false);
  expect_applied "gauss_clear_watcher" (Sat.Solver.Corrupt.gauss_clear_watcher s);
  expect_violation "gauss_clear_watcher" [ "gauss-watchers" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_duplicate_literal () =
  let f = Cnf.Formula.create ~num_vars:4 [ clause [ 1; 2; 3 ]; clause [ -1; 4 ] ] in
  let s = Sat.Solver.create f in
  expect_applied "duplicate_literal" (Sat.Solver.Corrupt.duplicate_literal s);
  expect_violation "duplicate_literal" [ "clause-distinct" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_bumped_trail_level () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1 ] ] in
  let s = Sat.Solver.create f in
  expect_applied "bump_trail_level" (Sat.Solver.Corrupt.bump_trail_level s);
  expect_violation "bump_trail_level"
    [ "trail-consistency"; "level-monotonic"; "reason-consistency" ]
    (fun () -> Sat.Solver.check_invariants s)

let test_detects_scrambled_heap () =
  let f = Cnf.Formula.create ~num_vars:4 [] in
  let s = Sat.Solver.create f in
  expect_applied "scramble_heap" (Sat.Solver.Corrupt.scramble_heap s);
  expect_violation "scramble_heap" [ "heap-index"; "heap-property" ] (fun () ->
      Sat.Solver.check_invariants s)

let test_detects_flipped_model_bit () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1 ]; clause [ 1; 2 ] ] in
  let s = Sat.Solver.create f in
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  expect_applied "flip_model_bit" (Sat.Solver.Corrupt.flip_model_bit s);
  expect_violation "flip_model_bit" [ "model-audit" ] (fun () ->
      Sat.Solver.audit_model s)

(* The witness check of an enumeration reads the second witness
   against the first: a second witness corrupted to falsify the formula
   must still be caught, with audit mode off (the incremental check
   alone) and on (both checks). x1 -> x2 -> x3 and x4 free: flipping
   x3 in a witness with x1 = 1 breaks the second clause. *)
let test_detects_corrupt_second_witness () =
  let f =
    Cnf.Formula.create ~num_vars:4 [ clause [ -1; 2 ]; clause [ -2; 3 ]; clause [ 1; 4 ] ]
  in
  let witnesses = (Sat.Bsat.enumerate ~limit:10 f).Sat.Bsat.models in
  let first = List.hd witnesses in
  let second =
    List.find
      (fun m -> Cnf.Model.value m 1 && not (Cnf.Model.equal m first))
      (List.tl witnesses)
  in
  let corrupt =
    Cnf.Model.make 4 (fun v -> if v = 3 then not (Cnf.Model.value second 3) else Cnf.Model.value second v)
  in
  Alcotest.(check bool) "corrupt witness falsifies" false (Cnf.Model.satisfies f corrupt);
  let run () =
    let a = Sat.Bsat.Witness_audit.create (Cnf.Model.occurrences f) ~xors:[] in
    Sat.Bsat.Witness_audit.check a ~found:0 first;
    Sat.Bsat.Witness_audit.check a ~found:1 corrupt
  in
  List.iter
    (fun on ->
      with_audit on (fun () ->
          expect_violation
            (Printf.sprintf "corrupt second witness (audit %b)" on)
            [ "model-audit" ] run))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Clean states never trip the sanitizer *)

let prop_clean_states_pass =
  QCheck2.Test.make ~count:300 ~name:"sanitizer accepts uncorrupted states"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let s = Sat.Solver.create f in
      Sat.Solver.check_invariants s;
      (match Sat.Solver.solve s with
      | Sat.Solver.Sat -> Sat.Solver.audit_model s
      | _ -> ());
      Sat.Solver.check_invariants s;
      true)

(* Every applicable corruption is detected on random solved states. *)
let injectors =
  [
    ("drop_watch", Sat.Solver.Corrupt.drop_watch, `Invariants);
    ("stale_group", Sat.Solver.Corrupt.stale_group, `Invariants);
    ("bump_trail_level", Sat.Solver.Corrupt.bump_trail_level, `Invariants);
    ("scramble_heap", Sat.Solver.Corrupt.scramble_heap, `Invariants);
    ("flip_model_bit", Sat.Solver.Corrupt.flip_model_bit, `Model);
    ("gauss_flip_rhs", Sat.Solver.Corrupt.gauss_flip_rhs, `Gauss);
    ("gauss_steal_basic", Sat.Solver.Corrupt.gauss_steal_basic, `Gauss);
    ("gauss_false_detach", Sat.Solver.Corrupt.gauss_false_detach, `Gauss);
    ("gauss_drop_watch", Sat.Solver.Corrupt.gauss_drop_watch, `Gauss);
    (* the watcher sets and clause literals are checked on dirty
       matrices and broken solvers too *)
    ("gauss_clear_watcher", Sat.Solver.Corrupt.gauss_clear_watcher, `Invariants);
    ("duplicate_literal", Sat.Solver.Corrupt.duplicate_literal, `Invariants);
  ]

let prop_corruptions_detected =
  QCheck2.Test.make ~count:300 ~name:"every applicable corruption is caught"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound (List.length injectors - 1)))
    (fun (spec, which) ->
      let f = Test_util.Gen.build_spec spec in
      let s = Sat.Solver.create f in
      ignore (Sat.Solver.solve s);
      let view = Sat.Solver.audit_view s in
      let name, inject, checker = List.nth injectors which in
      (* detection contracts hold on healthy, propagated states: on a
         broken solver (UNSAT) the sanitizer deliberately skips the
         trail / group / fixpoint checks *)
      if not (view.Audit.State.ok && view.Audit.State.at_fixpoint) then true
      else if
        (* gauss-* checks are armed only on clean matrices: a backjump
           at the end of [solve] legitimately leaves repairs pending *)
        checker = `Gauss
        && List.exists
             (fun g -> g.Audit.State.g_dirty)
             view.Audit.State.matrices
      then true
      else if not (inject s) then true (* not applicable to this state *)
      else
        (* flipping a don't-care model bit yields another genuine model
           of f: the auditor accepting it is correct, not a miss *)
        let detectable =
          match checker with
          | `Invariants | `Gauss -> true
          | `Model -> not (Cnf.Model.satisfies f (Sat.Solver.model s))
        in
        let check () =
          match checker with
          | `Invariants | `Gauss -> Sat.Solver.check_invariants s
          | `Model -> Sat.Solver.audit_model s
        in
        match violation_of check with
        | Some _ -> true
        | None ->
            if detectable then
              QCheck2.Test.fail_reportf "undetected corruption: %s" name
            else true)

(* ------------------------------------------------------------------ *)
(* Config and ownership behaviour *)

let test_tick_respects_enable () =
  with_audit false (fun () ->
      Alcotest.(check bool) "disabled: never fires" false (Audit.tick ()));
  with_audit true (fun () ->
      Audit.set_period 1;
      Alcotest.(check bool) "period 1: always fires" true (Audit.tick ());
      Audit.set_period 1000;
      Alcotest.(check bool) "long period: not yet" false (Audit.tick ()))

let test_set_period_rejects_nonpositive () =
  expect_violation "set_period 0" [ "audit-config" ] (fun () -> Audit.set_period 0)

let test_ownership_flags_cross_domain_use () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1; 2 ] ] in
  let s = Sat.Solver.create f in
  with_audit true (fun () ->
      let d =
        Domain.spawn (fun () ->
            violation_of (fun () -> Sat.Solver.check_invariants s))
      in
      match Domain.join d with
      | Some "domain-ownership" -> ()
      | Some inv -> Alcotest.failf "wrong invariant: %s" inv
      | None -> Alcotest.fail "cross-domain touch not flagged");
  (* same-domain use stays fine, audit on or off *)
  Sat.Solver.check_invariants s

let test_ownership_silent_when_disabled () =
  let f = Cnf.Formula.create ~num_vars:1 [] in
  let s = Sat.Solver.create f in
  with_audit false (fun () ->
      let d =
        Domain.spawn (fun () ->
            violation_of (fun () -> ignore (Sat.Solver.solve s)))
      in
      match Domain.join d with
      | None -> ()
      | Some inv -> Alcotest.failf "audit off must not flag (%s)" inv)

let () =
  Alcotest.run "audit"
    [
      ( "mutation",
        [
          Alcotest.test_case "dropped watch" `Quick test_detects_dropped_watch;
          Alcotest.test_case "stale group tag" `Quick test_detects_stale_group;
          Alcotest.test_case "gauss flipped rhs" `Quick test_detects_gauss_flipped_rhs;
          Alcotest.test_case "gauss stolen basic" `Quick test_detects_gauss_stolen_basic;
          Alcotest.test_case "gauss false detach" `Quick test_detects_gauss_false_detach;
          Alcotest.test_case "gauss dropped watch" `Quick test_detects_gauss_dropped_watch;
          Alcotest.test_case "gauss cleared watcher" `Quick test_detects_gauss_cleared_watcher;
          Alcotest.test_case "duplicated literal" `Quick test_detects_duplicate_literal;
          Alcotest.test_case "corrupt second witness" `Quick test_detects_corrupt_second_witness;
          Alcotest.test_case "bumped trail level" `Quick test_detects_bumped_trail_level;
          Alcotest.test_case "scrambled heap" `Quick test_detects_scrambled_heap;
          Alcotest.test_case "flipped model bit" `Quick test_detects_flipped_model_bit;
        ] );
      ( "config",
        [
          Alcotest.test_case "tick gating" `Quick test_tick_respects_enable;
          Alcotest.test_case "period validation" `Quick test_set_period_rejects_nonpositive;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "cross-domain flagged" `Quick test_ownership_flags_cross_domain_use;
          Alcotest.test_case "silent when disabled" `Quick test_ownership_silent_when_disabled;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_clean_states_pass; prop_corruptions_detected ] );
    ]
