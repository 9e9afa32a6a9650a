(* Tests for lib/analysis: the token stream (incl. the quoted-string
   masking regression), the newline-offset index, every lint rule
   positive and negative through the library API on inline fixtures,
   one mutation test per concurrency rule proving it fires on a
   seeded bug, allowlist semantics incl. staleness, and the SARIF
   emitter. *)

open Analysis

let src ?(mli = true) path text = Rule.load ~mli_exists:mli ~path text

let findings ?allowlist ?design_doc ?(rules = Engine.default_rules) srcs =
  (Engine.analyze ?allowlist ?design_doc ~rules srcs).findings

let triples fs =
  List.map (fun (f : Findings.t) -> (f.rule, f.file, f.line)) fs

let check_triples msg expected fs =
  Alcotest.(check (list (triple string string int))) msg expected (triples fs)

(* ------------------------------------------------------------------ *)
(* Tokenizer *)

(* Regression for the old masker's quoted-string bug: a comment
   closer or a double quote inside a brace-pipe quoted string
   desynchronized masking for the rest of the file, so rules went
   blind (or hallucinated) after it. The tokenizer must keep lexing
   real code after the literal. *)
let test_quoted_string_mask () =
  let text =
    {x|let a = {|contains *) and " inside|}
let t = Hashtbl.create 16
|x}
  in
  let s = src ~mli:false "lib/foo/a.ml" text in
  let masked = Lazy.force s.masked in
  (* the literal is blanked ... *)
  Alcotest.(check bool)
    "literal blanked" false
    (String.length masked >= String.length "contains"
    && (let found = ref false in
        for i = 0 to String.length masked - 9 do
          if String.sub masked i 8 = "contains" then found := true
        done;
        !found));
  (* ... and the code after it still tokenizes: global-mutable-table
     fires on line 2 *)
  check_triples "rule fires after quoted string"
    [ ("global-mutable-table", "lib/foo/a.ml", 2) ]
    (findings ~rules:[ Rules_legacy.global_mutable_table ] [ s ])

let test_quoted_string_delimited () =
  (* {id|...|id}: an inner bare [|}] must NOT close it *)
  let text = "let a = {q|first |} second|q}\nlet t = Hashtbl.create 3\n" in
  let s = src ~mli:false "lib/foo/b.ml" text in
  check_triples "delimited quoted string spans the bare closer"
    [ ("global-mutable-table", "lib/foo/b.ml", 2) ]
    (findings ~rules:[ Rules_legacy.global_mutable_table ] [ s ])

let test_mask_matches_old_semantics () =
  (* comments nest; strings inside comments are skipped as strings;
     char literals blanked; newlines preserved *)
  let text =
    "let x = 1 (* outer (* nested *) \" *) unbalanced \" *) let y = '\\n'\n"
  in
  let s = src ~mli:false "lib/foo/c.ml" text in
  let masked = Lazy.force s.masked in
  Alcotest.(check int) "same length" (String.length text) (String.length masked);
  Alcotest.(check bool)
    "y binding survives masking" true
    (let found = ref false in
     for i = 0 to String.length masked - 6 do
       if String.sub masked i 5 = "let y" then found := true
     done;
     !found)

let test_lines_index () =
  let text = "a\nbb\n\nccc\n" in
  let lines = Token.Lines.make text in
  let naive pos =
    let l = ref 1 in
    for k = 0 to pos - 1 do
      if text.[k] = '\n' then incr l
    done;
    !l
  in
  for pos = 0 to String.length text do
    Alcotest.(check int)
      (Printf.sprintf "line_of %d" pos)
      (naive pos)
      (Token.Lines.line_of lines pos)
  done;
  Alcotest.(check int) "bol of 'ccc'" 6 (Token.Lines.bol_of lines 7)

let test_token_positions () =
  let text = "let x =\n  Random.int 7\n" in
  let toks, _ = Token.scan text in
  let code = Token.code toks in
  let random =
    Array.to_list code
    |> List.find (fun (t : Token.t) -> t.kind = Token.Uident "Random")
  in
  Alcotest.(check int) "Random on line 2" 2 random.line;
  Alcotest.(check int) "Random offset" 10 random.off

(* ------------------------------------------------------------------ *)
(* Legacy rules *)

let test_rule_random () =
  let pos = src "lib/core/x.ml" "let r = Random.int 5\n" in
  let neg_prng = src "lib/prng/rng.ml" "let r = Random.int 5\n" in
  let neg_qualified = src "lib/core/y.ml" "let r = My_Random.int 5\n" in
  let neg_masked =
    src "lib/core/z.ml" "(* Random *) let s = \"Random\"\n"
  in
  let rules = [ Rules_legacy.random_outside_prng ] in
  check_triples "fires in lib outside prng"
    [ ("random-outside-prng", "lib/core/x.ml", 1) ]
    (findings ~rules [ pos ]);
  check_triples "silent in lib/prng" [] (findings ~rules [ neg_prng ]);
  check_triples "silent on other idents" [] (findings ~rules [ neg_qualified ]);
  check_triples "silent in comments and strings" []
    (findings ~rules [ neg_masked ])

let test_rule_poly_compare () =
  let pos =
    src "lib/sat/x.ml" "let c = compare a b\nlet h = Hashtbl.hash v\n"
  in
  let neg_def = src "lib/sat/y.ml" "let compare a b = Int.compare a b\n" in
  let neg_typed = src "lib/sat/z.ml" "let c = Int.compare a b\n" in
  let neg_cold = src "lib/obs/w.ml" "let c = compare a b\n" in
  let rules = [ Rules_legacy.poly_compare_hot ] in
  check_triples "fires on bare compare and Hashtbl.hash"
    [ ("poly-compare-hot", "lib/sat/x.ml", 1);
      ("poly-compare-hot", "lib/sat/x.ml", 2) ]
    (findings ~rules [ pos ]);
  check_triples "definition site exempt" [] (findings ~rules [ neg_def ]);
  check_triples "typed comparator exempt" [] (findings ~rules [ neg_typed ]);
  check_triples "cold path exempt" [] (findings ~rules [ neg_cold ])

let test_rule_global_table () =
  let pos = src "lib/a/t.ml" "let tbl = Hashtbl.create 64\n" in
  let neg_local =
    src "lib/a/u.ml" "let f () =\n  let t = Hashtbl.create 4 in t\n"
  in
  let neg_bin = src "bin/b.ml" "let tbl = Hashtbl.create 64\n" in
  let rules = [ Rules_legacy.global_mutable_table ] in
  check_triples "fires on top-level table"
    [ ("global-mutable-table", "lib/a/t.ml", 1) ]
    (findings ~rules [ pos ]);
  check_triples "indented allocation exempt" [] (findings ~rules [ neg_local ]);
  check_triples "bin/ exempt" [] (findings ~rules [ neg_bin ])

let test_rule_missing_mli () =
  let pos = src ~mli:false "lib/a/m.ml" "let x = 1\n" in
  let neg = src ~mli:true "lib/a/n.ml" "let x = 1\n" in
  let neg_test = src ~mli:false "test/t.ml" "let x = 1\n" in
  let rules = [ Rules_legacy.missing_mli ] in
  check_triples "fires without mli"
    [ ("missing-mli", "lib/a/m.ml", 1) ]
    (findings ~rules [ pos ]);
  check_triples "silent with mli" [] (findings ~rules [ neg ]);
  check_triples "test/ exempt" [] (findings ~rules [ neg_test ])

let test_rule_print_hot () =
  let pos =
    src "lib/sat/solver.ml" "let () = Printf.printf \"%d\" 1\n"
  in
  let neg = src "lib/sat/session.ml" "let () = Printf.printf \"%d\" 1\n" in
  let rules = [ Rules_legacy.print_hot_path ] in
  check_triples "fires in hot module"
    [ ("print-hot-path", "lib/sat/solver.ml", 1) ]
    (findings ~rules [ pos ]);
  check_triples "silent outside the hot list" [] (findings ~rules [ neg ])

let test_rule_unmatched_span () =
  let paired_a = src "lib/a/p.ml" "let f () = Trace.span_begin \"load\"\n" in
  let paired_b = src "lib/a/q.ml" "let g () = Trace.span_end \"load\"\n" in
  let orphan =
    src "lib/a/r.ml" "let h () = Trace.span_begin ~cat:\"svc\" \"solo\"\n"
  in
  let rules = [ Rules_legacy.unmatched_span ] in
  check_triples "paired across files" []
    (findings ~rules [ paired_a; paired_b ]);
  check_triples "orphan begin flagged (label arg skipped)"
    [ ("unmatched-span", "lib/a/r.ml", 1) ]
    (findings ~rules [ orphan ])

(* ------------------------------------------------------------------ *)
(* Concurrency rules: negative (clean) + mutation (seeded bug) *)

let test_rule_domain_escape () =
  (* mutation: shared table mutated from a worker closure *)
  let seeded =
    src "lib/s/esc.ml"
      "let table = Hashtbl.create 16\n\
       let run ex =\n\
      \  Parallel.Domain_pool.submit ex\n\
      \    ~work:(fun () -> Hashtbl.add table 1 2)\n\
      \    ~finish:(fun _ -> ())\n"
  in
  (* clean: same shape, table only touched by the owner before submit *)
  let clean_owner =
    src "lib/s/own.ml"
      "let table = Hashtbl.create 16\n\
       let run ex =\n\
      \  Hashtbl.add table 1 2;\n\
      \  Parallel.Domain_pool.submit ex ~work:(fun () -> 3) ~finish:(fun _ -> ())\n"
  in
  (* clean: access mediated by a lock *)
  let clean_mutex =
    src "lib/s/med.ml"
      "let table = Hashtbl.create 16\n\
       let run ex =\n\
      \  Parallel.Domain_pool.submit ex\n\
      \    ~work:(fun () -> Mutex.lock guard; Hashtbl.add table 1 2; Mutex.unlock guard)\n\
      \    ~finish:(fun _ -> ())\n"
  in
  let rules = [ Rules_concurrency.domain_escape ] in
  check_triples "seeded escape caught"
    [ ("domain-escape", "lib/s/esc.ml", 4) ]
    (findings ~rules [ seeded ]);
  check_triples "owner-side use clean" [] (findings ~rules [ clean_owner ]);
  check_triples "mutex-mediated use clean" [] (findings ~rules [ clean_mutex ])

let test_rule_atomic_rmw () =
  let seeded =
    src "lib/s/rmw.ml"
      "let bump () =\n\
      \  let v = Atomic.get counter in\n\
      \  Atomic.set counter (v + 1)\n"
  in
  let clean_faa =
    src "lib/s/faa.ml"
      "let bump () = ignore (Atomic.fetch_and_add counter 1)\n"
  in
  let clean_cas =
    src "lib/s/cas.ml"
      "let bump () =\n\
      \  let v = Atomic.get counter in\n\
      \  if Atomic.compare_and_set counter v (v + 1) then () else ();\n\
      \  Atomic.set counter 0\n"
  in
  let clean_disjoint =
    src "lib/s/dis.ml"
      "let move () =\n\
      \  let v = Atomic.get a in\n\
      \  Atomic.set b v\n"
  in
  let clean_items =
    src "lib/s/items.ml"
      "let read () = Atomic.get flag\nlet reset () = Atomic.set flag false\n"
  in
  let rules = [ Rules_concurrency.atomic_rmw ] in
  check_triples "seeded get/set window caught"
    [ ("atomic-read-modify-write", "lib/s/rmw.ml", 3) ]
    (findings ~rules [ seeded ]);
  check_triples "fetch_and_add clean" [] (findings ~rules [ clean_faa ]);
  check_triples "CAS in scope exempts the set" []
    (findings ~rules [ clean_cas ]);
  check_triples "different cells clean" [] (findings ~rules [ clean_disjoint ]);
  check_triples "separate items clean" [] (findings ~rules [ clean_items ])

let test_rule_blocking_owner () =
  let seeded_sleep =
    src "lib/service/server.ml" "let wait () = Unix.sleepf 0.1\n"
  in
  let seeded_finish =
    src "lib/service/scheduler.ml"
      "let go ex fd buf =\n\
      \  Parallel.Domain_pool.submit ex ~work:(fun () -> 1)\n\
      \    ~finish:(fun _ -> ignore (Unix.read fd buf 0 1))\n"
  in
  let clean_worker =
    src "lib/service/scheduler.ml"
      "let go ex fd buf =\n\
      \  Parallel.Domain_pool.submit ex\n\
      \    ~work:(fun () -> ignore (Unix.read fd buf 0 1))\n\
      \    ~finish:(fun _ -> ())\n"
  in
  let clean_elsewhere = src "lib/obs/x.ml" "let wait () = Unix.sleepf 0.1\n" in
  let rules = [ Rules_concurrency.blocking_in_owner_loop ] in
  check_triples "seeded sleep on owner loop caught"
    [ ("blocking-in-owner-loop", "lib/service/server.ml", 1) ]
    (findings ~rules [ seeded_sleep ]);
  check_triples "seeded blocking read in finish thunk caught"
    [ ("blocking-in-owner-loop", "lib/service/scheduler.ml", 3) ]
    (findings ~rules [ seeded_finish ]);
  check_triples "blocking read in work closure clean" []
    (findings ~rules [ clean_worker ]);
  check_triples "sleep outside owner modules clean" []
    (findings ~rules [ clean_elsewhere ])

let test_rule_mutex_discipline () =
  let seeded =
    src "lib/s/lock.ml"
      "let f t =\n  Mutex.lock t.lock;\n  work t\n"
  in
  let clean_paired =
    src "lib/s/pair.ml"
      "let f t =\n  Mutex.lock t.lock;\n  work t;\n  Mutex.unlock t.lock\n"
  in
  let clean_protect =
    src "lib/s/prot.ml"
      "let f t =\n\
      \  Mutex.lock t.lock;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> work t)\n"
  in
  let seeded_wrong_lock =
    src "lib/s/wrong.ml"
      "let f a b =\n  Mutex.lock a.lock;\n  work a;\n  Mutex.unlock b.lock\n"
  in
  let rules = [ Rules_concurrency.mutex_discipline ] in
  check_triples "seeded missing unlock caught"
    [ ("mutex-discipline", "lib/s/lock.ml", 2) ]
    (findings ~rules [ seeded ]);
  check_triples "paired lock/unlock clean" []
    (findings ~rules [ clean_paired ]);
  check_triples "Fun.protect clean" [] (findings ~rules [ clean_protect ]);
  check_triples "unlock of a different lock caught"
    [ ("mutex-discipline", "lib/s/wrong.ml", 2) ]
    (findings ~rules [ seeded_wrong_lock ])

let test_rule_metric_registry () =
  let design = "registry: `svc.requests` and `svc.latency` are known" in
  let clean =
    src "lib/s/m1.ml" "let c = Metrics.counter \"svc.requests\"\n"
  in
  let dup =
    src "lib/s/m2.ml" "let c2 = Metrics.counter \"svc.requests\"\n"
  in
  let unregistered =
    src "lib/s/m3.ml" "let c3 = Metrics.counter \"svc.unknown\"\n"
  in
  let computed = src "lib/s/m4.ml" "let c4 = Metrics.counter name\n" in
  let test_scope =
    src "test/t.ml" "let c5 = Metrics.counter \"test.anything\"\n"
  in
  let rules = [ Rules_concurrency.metric_name_registry ] in
  check_triples "registered unique name clean" []
    (findings ~rules ~design_doc:design [ clean ]);
  check_triples "seeded duplicate registration caught"
    [ ("metric-name-registry", "lib/s/m2.ml", 1) ]
    (findings ~rules ~design_doc:design [ clean; dup ]);
  check_triples "seeded unregistered name caught"
    [ ("metric-name-registry", "lib/s/m3.ml", 1) ]
    (findings ~rules ~design_doc:design [ unregistered ]);
  check_triples "computed name skipped" []
    (findings ~rules ~design_doc:design [ computed ]);
  check_triples "test/ out of scope" []
    (findings ~rules ~design_doc:design [ test_scope ])

let test_rule_durable_write_discipline () =
  let seeded =
    src "lib/store/sidecar.ml"
      "let save path data =\n\
      \  let oc = open_out_bin path in\n\
      \  output_string oc data;\n\
      \  close_out oc\n"
  in
  let seeded_qualified =
    src "lib/service/spill.ml"
      "let w oc = Out_channel.output_string oc \"x\"\n"
  in
  let clean_atomic =
    src "lib/store/store.ml"
      "let atomic_write ~dir ~path data =\n\
      \  let oc = open_out_bin (path ^ \".tmp\") in\n\
      \  output_string oc data;\n\
      \  close_out oc;\n\
      \  Unix.rename (path ^ \".tmp\") path\n"
  in
  let clean_elsewhere =
    src "bin/report.ml"
      "let dump path data =\n\
      \  let oc = open_out path in\n\
      \  output_string oc data;\n\
      \  close_out oc\n"
  in
  let clean_unbuffered =
    src "lib/store/raw.ml"
      "let push fd data = ignore (Unix.write_substring fd data 0 3)\n"
  in
  let rules = Rules_durability.all in
  check_triples "seeded buffered writes caught"
    [
      ("durable-write-discipline", "lib/store/sidecar.ml", 2);
      ("durable-write-discipline", "lib/store/sidecar.ml", 3);
    ]
    (findings ~rules [ seeded ]);
  check_triples "seeded qualified writer caught"
    [ ("durable-write-discipline", "lib/service/spill.ml", 1) ]
    (findings ~rules [ seeded_qualified ]);
  check_triples "atomic_write body exempt" []
    (findings ~rules [ clean_atomic ]);
  check_triples "outside the durable layers clean" []
    (findings ~rules [ clean_elsewhere ]);
  check_triples "unbuffered syscall write clean" []
    (findings ~rules [ clean_unbuffered ])

(* ------------------------------------------------------------------ *)
(* Allowlist, severities, engine *)

let test_allowlist_suppression () =
  let s = src "lib/a/t.ml" "let tbl = Hashtbl.create 64\n" in
  let al =
    match
      Allowlist.of_string "# justified\nglobal-mutable-table lib/a/t.ml\n"
    with
    | Ok al -> al
    | Error e -> Alcotest.fail e
  in
  let report =
    Engine.analyze ~allowlist:al
      ~rules:[ Rules_legacy.global_mutable_table ] [ s ]
  in
  Alcotest.(check int) "finding still reported" 1
    (List.length report.findings);
  Alcotest.(check int) "allowlisted" 1 report.allowlisted;
  Alcotest.(check int) "not blocking" 0 report.blocking

let test_allowlist_stale () =
  let s = src "lib/a/clean.ml" "let x = 1\n" in
  let al =
    match Allowlist.of_string "print-hot-path lib/gone.ml # line 1\n" with
    | Ok al -> al
    | Error e -> Alcotest.fail e
  in
  let report =
    Engine.analyze ~allowlist:al ~rules:Engine.default_rules [ s ]
  in
  check_triples "stale entry becomes a blocking finding"
    [ ("stale-allowlist", "scripts/lint_allowlist.txt", 1) ]
    report.findings;
  Alcotest.(check int) "stale blocks" 1 report.blocking

let test_allowlist_malformed () =
  match Allowlist.of_string "one-token-only\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the line" true
        (String.length msg > 0)

let test_severity_blocking () =
  let info_rule =
    { Rule.name = "advice"; severity = Findings.Info; doc = "advisory";
      phase =
        Rule.File
          (fun s -> [ { Rule.file = s.path; line = 1; message = "fyi" } ]) }
  in
  let s = src "lib/a/x.ml" "let x = 1\n" in
  let report = Engine.analyze ~rules:[ info_rule ] [ s ] in
  Alcotest.(check int) "info reported" 1 (List.length report.findings);
  Alcotest.(check int) "info never blocks" 0 report.blocking

let test_deterministic_order () =
  let a = src "lib/a/a.ml" "let r = Random.int 5\n" in
  let b = src "lib/b/b.ml" "let r = Random.int 5\n" in
  let f1 = findings ~rules:Engine.default_rules [ a; b ] in
  let f2 = findings ~rules:Engine.default_rules [ b; a ] in
  Alcotest.(check (list (triple string string int)))
    "order independent of input order" (triples f1) (triples f2)

(* ------------------------------------------------------------------ *)
(* SARIF *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_sarif_structure () =
  let s = src "lib/a/t.ml" "let tbl = Hashtbl.create 64\nlet r = Random.int 2\n" in
  let al =
    match Allowlist.of_string "global-mutable-table lib/a/t.ml\n" with
    | Ok al -> al
    | Error e -> Alcotest.fail e
  in
  let report =
    Engine.analyze ~allowlist:al ~rules:Engine.default_rules [ s ]
  in
  let sarif = Sarif.to_string ~rules:Engine.default_rules report.findings in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif contains " ^ needle) true
        (contains sarif needle))
    [
      "\"version\": \"2.1.0\"";
      "\"runs\"";
      "\"results\"";
      "\"ruleId\": \"random-outside-prng\"";
      "\"level\": \"error\"";
      "\"startLine\": 1";
      "\"uri\": \"lib/a/t.ml\"";
      (* allowlisted finding carries a suppression *)
      "\"suppressions\"";
      (* rule metadata table present *)
      "\"id\": \"domain-escape\"";
    ];
  Alcotest.(check string) "severity level mapping" "warning"
    (Sarif.level_of_severity Findings.Warn)

let () =
  Alcotest.run "analysis"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "quoted-string masking" `Quick
            test_quoted_string_mask;
          Alcotest.test_case "delimited quoted string" `Quick
            test_quoted_string_delimited;
          Alcotest.test_case "mask semantics" `Quick
            test_mask_matches_old_semantics;
          Alcotest.test_case "lines index" `Quick test_lines_index;
          Alcotest.test_case "token positions" `Quick test_token_positions;
        ] );
      ( "legacy rules",
        [
          Alcotest.test_case "random-outside-prng" `Quick test_rule_random;
          Alcotest.test_case "poly-compare-hot" `Quick test_rule_poly_compare;
          Alcotest.test_case "global-mutable-table" `Quick
            test_rule_global_table;
          Alcotest.test_case "missing-mli" `Quick test_rule_missing_mli;
          Alcotest.test_case "print-hot-path" `Quick test_rule_print_hot;
          Alcotest.test_case "unmatched-span" `Quick test_rule_unmatched_span;
        ] );
      ( "concurrency rules",
        [
          Alcotest.test_case "domain-escape" `Quick test_rule_domain_escape;
          Alcotest.test_case "atomic-read-modify-write" `Quick
            test_rule_atomic_rmw;
          Alcotest.test_case "blocking-in-owner-loop" `Quick
            test_rule_blocking_owner;
          Alcotest.test_case "mutex-discipline" `Quick
            test_rule_mutex_discipline;
          Alcotest.test_case "metric-name-registry" `Quick
            test_rule_metric_registry;
        ] );
      ( "durability rules",
        [
          Alcotest.test_case "durable-write-discipline" `Quick
            test_rule_durable_write_discipline;
        ] );
      ( "engine",
        [
          Alcotest.test_case "allowlist suppression" `Quick
            test_allowlist_suppression;
          Alcotest.test_case "allowlist staleness" `Quick test_allowlist_stale;
          Alcotest.test_case "allowlist malformed" `Quick
            test_allowlist_malformed;
          Alcotest.test_case "severity blocking" `Quick test_severity_blocking;
          Alcotest.test_case "deterministic order" `Quick
            test_deterministic_order;
        ] );
      ("sarif", [ Alcotest.test_case "structure" `Quick test_sarif_structure ]);
    ]
