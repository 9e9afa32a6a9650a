(* Tests for the CNF substrate: literals, clauses, XOR clauses,
   formulas, models, DIMACS. *)

let lit = Alcotest.testable Cnf.Lit.pp Cnf.Lit.equal

(* ------------------------------------------------------------------ *)
(* Literals *)

let test_lit_basics () =
  let p = Cnf.Lit.pos 5 and n = Cnf.Lit.neg 5 in
  Alcotest.(check int) "var pos" 5 (Cnf.Lit.var p);
  Alcotest.(check int) "var neg" 5 (Cnf.Lit.var n);
  Alcotest.(check bool) "sign pos" true (Cnf.Lit.sign p);
  Alcotest.(check bool) "sign neg" false (Cnf.Lit.sign n);
  Alcotest.check lit "negate pos" n (Cnf.Lit.negate p);
  Alcotest.check lit "negate neg" p (Cnf.Lit.negate n);
  Alcotest.check lit "double negate" p (Cnf.Lit.negate (Cnf.Lit.negate p))

let test_lit_dimacs_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check int) "roundtrip" i Cnf.Lit.(to_dimacs (of_dimacs i)))
    [ 1; -1; 7; -7; 100000; -100000 ]

let test_lit_index_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.check lit "roundtrip" l Cnf.Lit.(of_index (to_index l)))
    [ Cnf.Lit.pos 1; Cnf.Lit.neg 1; Cnf.Lit.pos 42; Cnf.Lit.neg 42 ]

let test_lit_invalid () =
  Alcotest.check_raises "var 0" (Invalid_argument "Lit.make: variable must be >= 1")
    (fun () -> ignore (Cnf.Lit.pos 0));
  Alcotest.check_raises "dimacs 0" (Invalid_argument "Lit.of_dimacs: zero")
    (fun () -> ignore (Cnf.Lit.of_dimacs 0))

(* ------------------------------------------------------------------ *)
(* Clauses *)

let test_clause_normalize_dedup () =
  let c = Cnf.Clause.of_dimacs [ 1; 2; 1; 2 ] in
  match Cnf.Clause.normalize c with
  | None -> Alcotest.fail "not a tautology"
  | Some c' -> Alcotest.(check int) "deduplicated" 2 (Array.length c')

let test_clause_normalize_tautology () =
  let c = Cnf.Clause.of_dimacs [ 1; -1; 2 ] in
  Alcotest.(check bool) "tautology" true (Cnf.Clause.normalize c = None);
  Alcotest.(check bool) "is_tautology" true (Cnf.Clause.is_tautology c)

let test_clause_eval () =
  let c = Cnf.Clause.of_dimacs [ 1; -2 ] in
  Alcotest.(check bool) "1=T" true (Cnf.Clause.eval (fun v -> v = 1) c);
  Alcotest.(check bool) "2=F satisfies -2" true (Cnf.Clause.eval (fun _ -> false) c);
  Alcotest.(check bool) "1=F 2=T falsifies" false (Cnf.Clause.eval (fun v -> v = 2) c)

let test_clause_vars () =
  let c = Cnf.Clause.of_dimacs [ 3; -1; 2; -3 ] in
  Alcotest.(check (list int)) "vars sorted uniq" [ 1; 2; 3 ] (Cnf.Clause.vars c);
  Alcotest.(check int) "max var" 3 (Cnf.Clause.max_var c)

let test_empty_clause () =
  let c = Cnf.Clause.of_dimacs [] in
  Alcotest.(check bool) "empty never satisfied" false (Cnf.Clause.eval (fun _ -> true) c);
  Alcotest.(check int) "max var 0" 0 (Cnf.Clause.max_var c)

(* ------------------------------------------------------------------ *)
(* XOR clauses *)

let test_xor_make_cancels_pairs () =
  let x = Cnf.Xor_clause.make [ 1; 2; 1 ] true in
  Alcotest.(check int) "x ⊕ x cancels" 1 (Cnf.Xor_clause.arity x)

let test_xor_eval () =
  let x = Cnf.Xor_clause.make [ 1; 2; 3 ] true in
  Alcotest.(check bool) "odd parity" true
    (Cnf.Xor_clause.eval (fun v -> v = 1) x);
  Alcotest.(check bool) "even parity" false
    (Cnf.Xor_clause.eval (fun v -> v = 1 || v = 2) x);
  Alcotest.(check bool) "all true, odd arity" true
    (Cnf.Xor_clause.eval (fun _ -> true) x)

let test_xor_empty () =
  let t = Cnf.Xor_clause.make [] true and f = Cnf.Xor_clause.make [] false in
  Alcotest.(check bool) "rhs=true unsat" false (Cnf.Xor_clause.eval (fun _ -> true) t);
  Alcotest.(check bool) "rhs=false taut" true (Cnf.Xor_clause.eval (fun _ -> true) f)

(* The CNF expansion of an XOR must have exactly the same solutions as
   the XOR on the original variables (projected over the original
   variables — fresh chaining variables are functionally determined). *)
let check_xor_cnf_equivalence vars rhs =
  let x = Cnf.Xor_clause.make vars rhs in
  let n = List.fold_left max 0 vars in
  let next = ref (n + 1) in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let clauses = Cnf.Xor_clause.to_cnf ~fresh ~chunk:3 x in
  let total = !next - 1 in
  let f = Cnf.Formula.create ~num_vars:(max total 1) clauses in
  (* enumerate original assignments; extension over fresh vars must
     exist iff the xor holds, and must be unique *)
  for mask = 0 to (1 lsl n) - 1 do
    let base v = mask land (1 lsl (v - 1)) <> 0 in
    let extensions = ref 0 in
    let aux_count = total - n in
    for aux = 0 to (1 lsl aux_count) - 1 do
      let value v = if v <= n then base v else aux land (1 lsl (v - n - 1)) <> 0 in
      if Cnf.Formula.eval f value then incr extensions
    done;
    let expected = if Cnf.Xor_clause.eval base x then 1 else 0 in
    if !extensions <> expected then
      Alcotest.failf "mask %d: %d extensions, expected %d" mask !extensions expected
  done

let test_xor_to_cnf_small () = check_xor_cnf_equivalence [ 1; 2 ] true
let test_xor_to_cnf_medium () = check_xor_cnf_equivalence [ 1; 2; 3; 4; 5 ] false
let test_xor_to_cnf_long () = check_xor_cnf_equivalence [ 1; 2; 3; 4; 5; 6; 7; 8 ] true

(* ------------------------------------------------------------------ *)
(* Formulas *)

let test_formula_eval () =
  let f =
    Cnf.Formula.create ~num_vars:3
      [ Cnf.Clause.of_dimacs [ 1; 2 ]; Cnf.Clause.of_dimacs [ -1; 3 ] ]
  in
  Alcotest.(check bool) "model" true (Cnf.Formula.eval f (fun v -> v <> 2));
  Alcotest.(check bool) "non-model" false
    (Cnf.Formula.eval f (fun v -> v = 1))

let test_formula_range_check () =
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Cnf.Formula.create ~num_vars:2 [ Cnf.Clause.of_dimacs [ 3 ] ]);
       false
     with Invalid_argument _ -> true)

let test_formula_sampling_set () =
  let f =
    Cnf.Formula.create ~sampling_set:[ 2; 1 ] ~num_vars:3
      [ Cnf.Clause.of_dimacs [ 1; 2; 3 ] ]
  in
  Alcotest.(check (array int)) "sorted" [| 1; 2 |] (Cnf.Formula.sampling_vars f);
  let g = Cnf.Formula.create ~num_vars:3 [] in
  Alcotest.(check (array int)) "default = all" [| 1; 2; 3 |]
    (Cnf.Formula.sampling_vars g)

let test_formula_blast_xors () =
  let f =
    Cnf.Formula.create_with_xors ~num_vars:4 []
      [ Cnf.Xor_clause.make [ 1; 2; 3; 4 ] true ]
  in
  let g = Cnf.Formula.blast_xors f in
  Alcotest.(check int) "no xors left" 0 (Array.length g.Cnf.Formula.xors);
  (* projected solutions agree: count assignments of vars 1..4 that
     extend to a solution of g *)
  let count_orig = ref 0 and count_blasted = ref 0 in
  for mask = 0 to 15 do
    let base v = mask land (1 lsl (v - 1)) <> 0 in
    if Cnf.Formula.eval f base then incr count_orig;
    let aux_bits = g.Cnf.Formula.num_vars - 4 in
    let found = ref false in
    for aux = 0 to (1 lsl aux_bits) - 1 do
      let value v = if v <= 4 then base v else aux land (1 lsl (v - 5)) <> 0 in
      if Cnf.Formula.eval g value then found := true
    done;
    if !found then incr count_blasted
  done;
  Alcotest.(check int) "same projected count" !count_orig !count_blasted

(* ------------------------------------------------------------------ *)
(* Models *)

let test_model_basics () =
  let m = Cnf.Model.make 4 (fun v -> v mod 2 = 0) in
  Alcotest.(check int) "num vars" 4 (Cnf.Model.num_vars m);
  Alcotest.(check bool) "v2" true (Cnf.Model.value m 2);
  Alcotest.(check bool) "v3" false (Cnf.Model.value m 3);
  Alcotest.(check (list int)) "dimacs" [ -1; 2; -3; 4 ] (Cnf.Model.to_dimacs m)

let test_model_restrict () =
  let m = Cnf.Model.make 5 (fun v -> v >= 3) in
  let r = Cnf.Model.restrict m [| 4; 2 |] in
  Alcotest.(check int) "restricted size" 2 (Cnf.Model.num_vars r);
  Alcotest.(check bool) "v4 kept" true (Cnf.Model.value r 4);
  Alcotest.(check bool) "v2 kept" false (Cnf.Model.value r 2);
  Alcotest.(check bool) "v3 absent" true
    (try
       ignore (Cnf.Model.value r 3);
       false
     with Invalid_argument _ -> true)

let test_model_keys () =
  let m1 = Cnf.Model.make 10 (fun v -> v = 3) in
  let m2 = Cnf.Model.make 10 (fun v -> v = 3) in
  let m3 = Cnf.Model.make 10 (fun v -> v = 4) in
  Alcotest.(check string) "equal models equal keys" (Cnf.Model.key m1) (Cnf.Model.key m2);
  Alcotest.(check bool) "different models differ" true
    (Cnf.Model.key m1 <> Cnf.Model.key m3)

let test_model_restricted_keys_distinguish_support () =
  let m = Cnf.Model.make 6 (fun _ -> false) in
  let a = Cnf.Model.restrict m [| 1; 2 |] and b = Cnf.Model.restrict m [| 3; 4 |] in
  Alcotest.(check bool) "different supports differ" true
    (Cnf.Model.key a <> Cnf.Model.key b)

let test_model_satisfies () =
  let f =
    Cnf.Formula.create_with_xors ~num_vars:3
      [ Cnf.Clause.of_dimacs [ 1 ] ]
      [ Cnf.Xor_clause.make [ 2; 3 ] true ]
  in
  let good = Cnf.Model.make 3 (fun v -> v <= 2) in
  let bad = Cnf.Model.make 3 (fun _ -> true) in
  Alcotest.(check bool) "good" true (Cnf.Model.satisfies f good);
  Alcotest.(check bool) "bad" false (Cnf.Model.satisfies f bad)

(* Witness histograms and dedup tables are keyed by these strings: a
   change of representation must leave them byte-for-byte. *)
let test_model_golden_keys () =
  let check name expected m = Alcotest.(check string) name expected (Cnf.Model.key m) in
  check "4 vars" "1,2,3,4,|\005" (Cnf.Model.make 4 (fun v -> v mod 2 = 0));
  check "10 vars, partial byte" "1,2,3,4,5,6,7,8,9,10,| \001"
    (Cnf.Model.make 10 (fun v -> v = 3 || v = 10));
  check "16 vars" "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,|\255\128"
    (Cnf.Model.make 16 (fun v -> v <= 9));
  check "restricted" "3,7,11,|\003"
    (Cnf.Model.restrict (Cnf.Model.make 12 (fun v -> v >= 6)) [| 11; 3; 7 |]);
  check "restricted onto 1..3" "1,2,3,|\005"
    (Cnf.Model.restrict (Cnf.Model.make 9 (fun v -> v <> 2)) [| 3; 1; 2 |]);
  check "empty" "|" (Cnf.Model.make 0 (fun _ -> true))

let test_model_prefix () =
  let m = Cnf.Model.make 9 (fun v -> v mod 3 = 0) in
  let p = Cnf.Model.prefix m 5 in
  Alcotest.(check (list int)) "first five" [ -1; -2; 3; -4; -5 ] (Cnf.Model.to_dimacs p);
  Alcotest.(check bool) "= restrict 1..5" true
    (Cnf.Model.equal p (Cnf.Model.restrict m [| 1; 2; 3; 4; 5 |]));
  Alcotest.(check bool) "full width is the model" true (Cnf.Model.prefix m 9 == m);
  Alcotest.check_raises "beyond the model"
    (Invalid_argument "Model.value: variable 10 absent") (fun () ->
      ignore (Cnf.Model.prefix m 10))

let test_model_satisfies_absent_variable () =
  let f = Cnf.Formula.create ~num_vars:3 [ Cnf.Clause.of_dimacs [ -3 ] ] in
  Alcotest.check_raises "variable 3 absent"
    (Invalid_argument "Model.value: variable 3 absent") (fun () ->
      ignore (Cnf.Model.satisfies f (Cnf.Model.make 2 (fun _ -> true))))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* The byte path of [Model.satisfies] reads only inside the model: a
   hand-built record may name a variable above [num_vars]. *)
let test_eval_bytes_out_of_range () =
  let formula clauses xors =
    { Cnf.Formula.num_vars = 2; clauses; xors; sampling_set = None }
  in
  let model = Cnf.Model.make 2 (fun _ -> false) in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ ": satisfies") true
        (raises_invalid (fun () -> Cnf.Model.satisfies f model));
      Alcotest.(check bool) (name ^ ": eval_bytes") true
        (raises_invalid (fun () -> Cnf.Formula.eval_bytes f (Bytes.make 2 '\000'))))
    [
      ("clause", formula [| Cnf.Clause.of_dimacs [ 5 ] |] [||]);
      ("clause after false literals", formula [| Cnf.Clause.of_dimacs [ 1; -3 ] |] [||]);
      ("xor", formula [||] [| { Cnf.Xor_clause.vars = [| 1; 7 |]; rhs = true } |]);
      ("xor variable 0", formula [||] [| { Cnf.Xor_clause.vars = [| 0 |]; rhs = true } |]);
    ]

(* ------------------------------------------------------------------ *)
(* DIMACS *)

let test_dimacs_roundtrip () =
  let f =
    Cnf.Formula.create_with_xors ~sampling_set:[ 1; 3 ] ~num_vars:4
      [ Cnf.Clause.of_dimacs [ 1; -2 ]; Cnf.Clause.of_dimacs [ 3; 4; -1 ] ]
      [ Cnf.Xor_clause.make [ 1; 4 ] false; Cnf.Xor_clause.make [ 2; 3 ] true ]
  in
  let g = Cnf.Dimacs.parse_string (Cnf.Dimacs.to_string f) in
  Alcotest.(check int) "vars" f.Cnf.Formula.num_vars g.Cnf.Formula.num_vars;
  Alcotest.(check int) "clauses" (Array.length f.Cnf.Formula.clauses)
    (Array.length g.Cnf.Formula.clauses);
  Alcotest.(check int) "xors" (Array.length f.Cnf.Formula.xors)
    (Array.length g.Cnf.Formula.xors);
  Alcotest.(check (array int)) "sampling set" (Cnf.Formula.sampling_vars f)
    (Cnf.Formula.sampling_vars g);
  (* semantic equality over all assignments *)
  for mask = 0 to 15 do
    let value v = mask land (1 lsl (v - 1)) <> 0 in
    Alcotest.(check bool) "same evaluation" (Cnf.Formula.eval f value)
      (Cnf.Formula.eval g value)
  done

let test_dimacs_parse_basic () =
  let f =
    Cnf.Dimacs.parse_string "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
  in
  Alcotest.(check int) "vars" 3 f.Cnf.Formula.num_vars;
  Alcotest.(check int) "clauses" 2 (Array.length f.Cnf.Formula.clauses)

let test_dimacs_parse_ind_line () =
  let f = Cnf.Dimacs.parse_string "p cnf 4 1\nc ind 1 2 0\n1 2 3 4 0\n" in
  Alcotest.(check (array int)) "sampling" [| 1; 2 |] (Cnf.Formula.sampling_vars f)

let test_dimacs_parse_xor_line () =
  let f = Cnf.Dimacs.parse_string "p cnf 3 1\nx 1 -2 3 0\n" in
  Alcotest.(check int) "one xor" 1 (Array.length f.Cnf.Formula.xors);
  let x = f.Cnf.Formula.xors.(0) in
  (* x 1 -2 3 0 means 1 ⊕ 2 ⊕ 3 = false (one negation flips rhs) *)
  Alcotest.(check bool) "rhs flipped" false x.Cnf.Xor_clause.rhs;
  Alcotest.(check int) "arity" 3 (Cnf.Xor_clause.arity x)

let test_dimacs_errors () =
  let expect_error s =
    try
      ignore (Cnf.Dimacs.parse_string s);
      Alcotest.failf "expected parse error on %S" s
    with Cnf.Dimacs.Parse_error _ -> ()
  in
  expect_error "1 2 0\n";
  (* missing header *)
  expect_error "p cnf 2 1\n1 2\n";
  (* missing terminator *)
  expect_error "p cnf 2 1\n1 x 0\n";
  (* bad token *)
  expect_error "p qbf 2 1\n1 0\n";
  (* OCaml literal syntax, once read as the clause 1 -2 *)
  expect_error "p cnf 0x3 1\n0b1 -0x2 0\n"

(* Constructor rejections surface as [Parse_error], never as the
   [Invalid_argument] that would escape a caller handling parse errors
   (the daemon's request handler does exactly that). *)
let test_dimacs_out_of_range_is_parse_error () =
  List.iter
    (fun s ->
      match Cnf.Dimacs.parse_string s with
      | _ -> Alcotest.failf "expected parse error on %S" s
      | exception Cnf.Dimacs.Parse_error _ -> ())
    [
      "p cnf 2 1\n1 5 0\n" (* clause variable above the header count *);
      "p cnf 2 1\nx 1 3 0\n" (* xor variable above the header count *);
      "p cnf 2 1\nc ind 4 0\n1 0\n" (* sampling variable out of range *);
      "p cnf 2 1\n1 0 2 0\n" (* literal 0 inside a clause *);
      "p cnf 2 1\nx 1 0 2 0\n" (* literal 0 inside an xor *);
      Printf.sprintf "p cnf 2 1\n%d 0\n" min_int (* no variable to negate *);
      Printf.sprintf "p cnf 2 1\nx %d 0\n" min_int;
    ]

(* DIMACS integers are [-?[0-9]+]; each OCaml literal form is refused
   in every kind of line, where [int_of_string] would take it as a
   valid count, literal or variable. *)
let test_dimacs_integer_form form () =
  List.iter
    (fun text ->
      match Cnf.Dimacs.parse_string text with
      | _ -> Alcotest.failf "expected parse error on %S" text
      | exception Cnf.Dimacs.Parse_error _ -> ())
    [
      Printf.sprintf "p cnf %s 1\n1 0\n" form;
      Printf.sprintf "p cnf 2000 %s\n1 0\n" form;
      Printf.sprintf "p cnf 2000 1\n1 %s 0\n" form;
      Printf.sprintf "p cnf 2000 1\n1 -%s 0\n" form;
      Printf.sprintf "p cnf 2000 1\nx 1 %s 0\n" form;
      Printf.sprintf "p cnf 2000 1\nc ind %s 0\n1 0\n" form;
    ]

let integer_forms = [ "0x3"; "0b1"; "0o7"; "0u5"; "+5"; "1_000" ]

let test_dimacs_negative_counts () =
  List.iter
    (fun (text, expected) ->
      match Cnf.Dimacs.parse_string text with
      | _ -> Alcotest.failf "expected parse error on %S" text
      | exception Cnf.Dimacs.Parse_error msg ->
          Alcotest.(check string) text expected msg)
    [
      ("p cnf -5 0\n", "bad var count \"-5\"");
      ("p cnf 3 -1\n1 0\n", "bad clause count \"-1\"");
    ]

let test_dimacs_file_io () =
  let f = Cnf.Formula.create ~num_vars:2 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let path = Filename.temp_file "unigen_test" ".cnf" in
  Cnf.Dimacs.write_file path f;
  let g = Cnf.Dimacs.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "vars" 2 g.Cnf.Formula.num_vars

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let prop_clause_normalize_preserves_semantics =
  QCheck2.Test.make ~count:200 ~name:"clause normalize preserves semantics"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 1 6))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let c = Test_util.Gen.random_clause rng ~num_vars:nv ~width:5 in
      let same_eval value =
        match Cnf.Clause.normalize c with
        | None -> Cnf.Clause.eval value c (* tautology: must eval true *)
        | Some c' -> Bool.equal (Cnf.Clause.eval value c) (Cnf.Clause.eval value c')
      in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let value v = mask land (1 lsl (v - 1)) <> 0 in
        if not (same_eval value) then ok := false
      done;
      !ok)

let prop_xor_cnf_projection_equivalent =
  QCheck2.Test.make ~count:100 ~name:"xor to_cnf projection-equivalent"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 1 7))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let x = Test_util.Gen.random_xor rng ~num_vars:nv in
      let next = ref (nv + 1) in
      let fresh () =
        let v = !next in
        incr next;
        v
      in
      let clauses = Cnf.Xor_clause.to_cnf ~fresh ~chunk:3 x in
      let f = Cnf.Formula.create ~num_vars:(max (!next - 1) 1) clauses in
      let aux_bits = !next - 1 - nv in
      let ok = ref true in
      for mask = 0 to (1 lsl nv) - 1 do
        let base v = mask land (1 lsl (v - 1)) <> 0 in
        let extends = ref false in
        for aux = 0 to (1 lsl aux_bits) - 1 do
          let value v =
            if v <= nv then base v else aux land (1 lsl (v - nv - 1)) <> 0
          in
          if Cnf.Formula.eval f value then extends := true
        done;
        if Bool.equal !extends (Cnf.Xor_clause.eval base x) then ()
        else ok := false
      done;
      !ok)

let prop_dimacs_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"dimacs roundtrip"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let g = Cnf.Dimacs.parse_string (Cnf.Dimacs.to_string f) in
      let nv = f.Cnf.Formula.num_vars in
      if g.Cnf.Formula.num_vars <> nv then false
      else begin
        let ok = ref true in
        let trials = min 256 (1 lsl nv) in
        for mask = 0 to trials - 1 do
          let value v = mask land (1 lsl (v - 1)) <> 0 in
          if not (Bool.equal (Cnf.Formula.eval f value) (Cnf.Formula.eval g value))
          then ok := false
        done;
        !ok
      end)

let prop_model_key_injective =
  QCheck2.Test.make ~count:200 ~name:"model keys injective"
    QCheck2.Gen.(triple (int_bound 100000) (int_bound 100000) (int_range 1 16))
    (fun (s1, s2, nv) ->
      let r1 = Rng.create s1 and r2 = Rng.create s2 in
      let m1 = Cnf.Model.make nv (fun _ -> Rng.bool r1) in
      let m2 = Cnf.Model.make nv (fun _ -> Rng.bool r2) in
      Bool.equal
        (String.equal (Cnf.Model.key m1) (Cnf.Model.key m2))
        (Cnf.Model.equal m1 m2))

(* A random model: contiguous over 0..19 variables (most widths not a
   multiple of 8), or the restriction of one onto a random subset —
   sometimes exactly 1..k, which is contiguous again. *)
let random_model rng =
  let n = Rng.int rng 20 in
  let m = Cnf.Model.make n (fun _ -> Rng.bool rng) in
  match Rng.int rng 3 with
  | 0 -> m
  | 1 -> Cnf.Model.prefix m (Rng.int rng (n + 1))
  | _ ->
      Cnf.Model.restrict m
        (Array.of_list (List.filter (fun _ -> Rng.bool rng) (List.init n succ)))

let vars_of m = Array.of_list (List.map abs (Cnf.Model.to_dimacs m))

(* A second model over the same variables as [m], or an unrelated one. *)
let partner rng m =
  if Rng.bool rng then random_model rng
  else
    let vars = vars_of m in
    let n = Array.fold_left max 0 vars in
    Cnf.Model.restrict (Cnf.Model.make (n + Rng.int rng 3) (fun _ -> Rng.bool rng)) vars

let sign x = Int.compare x 0

let prop_model_compare_is_key_order =
  QCheck2.Test.make ~count:1000 ~name:"model compare = key order"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = random_model rng in
      let b = partner rng a in
      let ka = Cnf.Model.key a and kb = Cnf.Model.key b in
      sign (Cnf.Model.compare a b) = sign (String.compare ka kb)
      && sign (Cnf.Model.compare b a) = sign (String.compare kb ka)
      && Cnf.Model.compare a a = 0
      && Bool.equal (Cnf.Model.equal a b) (String.equal ka kb))

let prop_model_roundtrips =
  QCheck2.Test.make ~count:500 ~name:"model to_dimacs / restrict round trips"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = random_model rng in
      let vars = vars_of m in
      let lits = Cnf.Model.to_dimacs m in
      let n = Array.fold_left max 0 vars in
      (* rebuilding from the DIMACS rendering gives back the model *)
      let rebuilt =
        Cnf.Model.restrict (Cnf.Model.make n (fun v -> List.mem v lits)) vars
      in
      (* restricting onto its own variables (in any order) is the identity *)
      let shuffled = Array.copy vars in
      Rng.shuffle rng shuffled;
      let self = Cnf.Model.restrict m shuffled in
      (* restriction composes: a subset of a subset *)
      let sub = Array.of_list (List.filter (fun _ -> Rng.bool rng) (Array.to_list vars)) in
      Cnf.Model.equal rebuilt m
      && Cnf.Model.equal self m
      && String.equal (Cnf.Model.key self) (Cnf.Model.key m)
      && Cnf.Model.num_vars m = Array.length vars
      && Array.for_all (fun v -> Bool.equal (Cnf.Model.value m v) (List.mem v lits)) vars
      && Cnf.Model.equal
           (Cnf.Model.restrict self sub)
           (Cnf.Model.restrict rebuilt sub))

(* A random formula over [num_vars] 0..7 whose clauses (width 0..5)
   and XORs (0..5 variables, repeats kept: the records are built by
   hand, not by [Xor_clause.make]) use only variables [1 .. used], so
   the top ones are often unused; and a random 0/1 buffer at least
   [num_vars] long. *)
let random_eval_case rng =
  let num_vars = Rng.int rng 8 in
  let used = if num_vars = 0 then 0 else 1 + Rng.int rng num_vars in
  let var () = 1 + Rng.int rng used in
  let width () = if used = 0 then 0 else Rng.int rng 6 in
  let clauses =
    List.init (Rng.int rng 9) (fun _ ->
        Array.init (width ()) (fun _ -> Cnf.Lit.make (var ()) (Rng.bool rng)))
  in
  let xors =
    List.init (Rng.int rng 4) (fun _ ->
        { Cnf.Xor_clause.vars = Array.init (width ()) (fun _ -> var ()); rhs = Rng.bool rng })
  in
  let f = Cnf.Formula.create_with_xors ~num_vars clauses xors in
  let b =
    Bytes.init (num_vars + Rng.int rng 3) (fun _ -> if Rng.bool rng then '\001' else '\000')
  in
  (f, b)

let prop_eval_bytes_is_eval =
  QCheck2.Test.make ~count:2000 ~name:"eval_bytes = eval"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let f, b = random_eval_case rng in
      let expected = Cnf.Formula.eval f (fun v -> Bytes.get b (v - 1) = '\001') in
      let n = Bytes.length b in
      let m = Cnf.Model.make n (fun v -> Bytes.get b (v - 1) = '\001') in
      (* the same values as a projected model (variables 1..n and n+2
         of a wider one) take the [Model.value] path *)
      let projected =
        Cnf.Model.restrict
          (Cnf.Model.make (n + 2) (fun v -> v <= n && Bytes.get b (v - 1) = '\001'))
          (Array.init (n + 1) (fun i -> if i = n then n + 2 else i + 1))
      in
      (* a model short of the formula's width answers or names a
         missing variable *)
      let short = Cnf.Model.prefix m (Rng.int rng (n + 1)) in
      Bool.equal (Cnf.Formula.eval_bytes f b) expected
      && Bool.equal (Cnf.Model.satisfies f m) expected
      && Bool.equal (Cnf.Model.satisfies f projected) expected
      && (match Cnf.Model.satisfies f short with
         | r -> Bool.equal r expected
         | exception Invalid_argument _ -> true)
      && Array.for_all
           (fun c ->
             Bool.equal (Cnf.Clause.eval_bytes b c)
               (Cnf.Clause.eval (fun v -> Bytes.get b (v - 1) = '\001') c))
           f.Cnf.Formula.clauses
      && Array.for_all
           (fun x ->
             Bool.equal (Cnf.Xor_clause.eval_bytes b x)
               (Cnf.Xor_clause.eval (fun v -> Bytes.get b (v - 1) = '\001') x))
           f.Cnf.Formula.xors)

(* [pack] against a bit-by-bit reading of the model, and [unpack] as
   its inverse, on widths around the 8-byte steps of the fast path. *)
let prop_model_pack_unpack =
  QCheck2.Test.make ~count:500 ~name:"model pack = bitwise, unpack inverts"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m = Cnf.Model.make n (fun _ -> Rng.bool rng) in
      let bytes = Array.make (Cnf.Model.packed_bytes m) (-1) in
      Cnf.Model.pack m (fun i b -> bytes.(i) <- b);
      let bit v = (bytes.((v - 1) / 8) lsr ((v - 1) mod 8)) land 1 = 1 in
      Array.length bytes = (n + 7) / 8
      && Array.for_all (fun b -> b >= 0 && b < 256) bytes
      && List.for_all (fun v -> Bool.equal (bit v) (Cnf.Model.value m v)) (List.init n succ)
      && Cnf.Model.equal (Cnf.Model.unpack n (Array.get bytes)) m)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_clause_normalize_preserves_semantics;
      prop_xor_cnf_projection_equivalent;
      prop_dimacs_roundtrip;
      prop_model_key_injective;
      prop_model_compare_is_key_order;
      prop_model_roundtrips;
      prop_model_pack_unpack;
      prop_eval_bytes_is_eval;
    ]

let () =
  Alcotest.run "cnf"
    [
      ( "lit",
        [
          Alcotest.test_case "basics" `Quick test_lit_basics;
          Alcotest.test_case "dimacs roundtrip" `Quick test_lit_dimacs_roundtrip;
          Alcotest.test_case "index roundtrip" `Quick test_lit_index_roundtrip;
          Alcotest.test_case "invalid" `Quick test_lit_invalid;
        ] );
      ( "clause",
        [
          Alcotest.test_case "normalize dedup" `Quick test_clause_normalize_dedup;
          Alcotest.test_case "normalize tautology" `Quick test_clause_normalize_tautology;
          Alcotest.test_case "eval" `Quick test_clause_eval;
          Alcotest.test_case "vars" `Quick test_clause_vars;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
        ] );
      ( "xor",
        [
          Alcotest.test_case "make cancels pairs" `Quick test_xor_make_cancels_pairs;
          Alcotest.test_case "eval" `Quick test_xor_eval;
          Alcotest.test_case "empty" `Quick test_xor_empty;
          Alcotest.test_case "to_cnf small" `Quick test_xor_to_cnf_small;
          Alcotest.test_case "to_cnf medium" `Quick test_xor_to_cnf_medium;
          Alcotest.test_case "to_cnf long" `Quick test_xor_to_cnf_long;
        ] );
      ( "formula",
        [
          Alcotest.test_case "eval" `Quick test_formula_eval;
          Alcotest.test_case "range check" `Quick test_formula_range_check;
          Alcotest.test_case "sampling set" `Quick test_formula_sampling_set;
          Alcotest.test_case "blast xors" `Quick test_formula_blast_xors;
        ] );
      ( "model",
        [
          Alcotest.test_case "basics" `Quick test_model_basics;
          Alcotest.test_case "restrict" `Quick test_model_restrict;
          Alcotest.test_case "keys" `Quick test_model_keys;
          Alcotest.test_case "restricted keys" `Quick
            test_model_restricted_keys_distinguish_support;
          Alcotest.test_case "satisfies" `Quick test_model_satisfies;
          Alcotest.test_case "golden keys" `Quick test_model_golden_keys;
          Alcotest.test_case "prefix" `Quick test_model_prefix;
          Alcotest.test_case "satisfies absent variable" `Quick
            test_model_satisfies_absent_variable;
          Alcotest.test_case "eval_bytes out of range" `Quick
            test_eval_bytes_out_of_range;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse basic" `Quick test_dimacs_parse_basic;
          Alcotest.test_case "parse ind" `Quick test_dimacs_parse_ind_line;
          Alcotest.test_case "parse xor" `Quick test_dimacs_parse_xor_line;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "file io" `Quick test_dimacs_file_io;
          Alcotest.test_case "out of range is a parse error" `Quick
            test_dimacs_out_of_range_is_parse_error;
          Alcotest.test_case "negative counts" `Quick test_dimacs_negative_counts;
        ]
        @ List.map
            (fun form ->
              Alcotest.test_case ("integer form " ^ form) `Quick
                (test_dimacs_integer_form form))
            integer_forms );
      ("properties", qcheck_cases);
    ]
