(* Thin driver over [lib/analysis]: the repo lint with token-stream
   rules, severities, the allowlist (with staleness enforcement), JSON
   on stdout and optional SARIF 2.1.0 for CI annotation.

   The rules encode correctness conventions the type checker cannot
   see but that the sampler's determinism and parallel safety depend
   on — all randomness through Rng, no shared tables escaping into
   Domain_pool closures, no blocking calls on the owner loop,
   paired spans and registered metric names. The full catalogue
   (name, severity, rationale) lives in DESIGN.md's "Static analysis"
   section and in each rule's [doc] field, which SARIF surfaces as
   rule metadata.

   Exit status: 0 clean (info-only or allowlisted findings included),
   1 blocking findings, 2 usage/parse errors. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  let root = ref "." in
  let sarif = ref "" in
  let args =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default .)");
      ("--sarif", Arg.Set_string sarif, "FILE also write SARIF 2.1.0 to FILE");
    ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lint [--root DIR] [--sarif FILE]";
  let root = !root in
  let allowlist =
    match
      Analysis.Allowlist.load (Filename.concat root "scripts/lint_allowlist.txt")
    with
    | Ok al -> { al with Analysis.Allowlist.path = "scripts/lint_allowlist.txt" }
    | Error msg ->
        prerr_endline ("lint: " ^ msg);
        exit 2
  in
  let design_doc =
    let p = Filename.concat root "DESIGN.md" in
    if Sys.file_exists p then Some (read_file p) else None
  in
  let sources = Analysis.Engine.load_repo ~root in
  if sources = [] then begin
    prerr_endline ("lint: no .ml files found under " ^ root);
    exit 2
  end;
  let report =
    Analysis.Engine.analyze ~allowlist ?design_doc
      ~rules:Analysis.Engine.default_rules sources
  in
  print_string (Analysis.Findings.list_to_json report.findings);
  if !sarif <> "" then begin
    let oc = open_out !sarif in
    output_string oc
      (Analysis.Sarif.to_string ~rules:Analysis.Engine.default_rules
         report.findings);
    close_out oc
  end;
  Printf.eprintf "lint: %d findings (%d allowlisted, %d blocking) in %d files\n"
    (List.length report.findings)
    report.allowlisted report.blocking report.files;
  if report.blocking > 0 then exit 1
