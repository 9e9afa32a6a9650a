let level_of_severity = function
  | Findings.Error -> "error"
  | Findings.Warn -> "warning"
  | Findings.Info -> "note"

(* a JSON string literal, quotes included *)
let str s = Json_codec.(to_string (Str s))

let rule_json (r : Rule.t) =
  Printf.sprintf
    "{\"id\": %s, \"shortDescription\": {\"text\": %s}, \
     \"defaultConfiguration\": {\"level\": \"%s\"}}"
    (str r.name) (str r.doc)
    (level_of_severity r.severity)

let result_json (f : Findings.t) =
  let suppressions =
    if f.allowlisted then
      ", \"suppressions\": [{\"kind\": \"external\", \"status\": \
       \"accepted\", \"justification\": \"scripts/lint_allowlist.txt\"}]"
    else ""
  in
  Printf.sprintf
    "{\"ruleId\": %s, \"level\": \"%s\", \"message\": {\"text\": \
     %s}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": \
     {\"uri\": %s}, \"region\": {\"startLine\": %d}}}]%s}"
    (str f.rule)
    (level_of_severity f.severity)
    (str f.message) (str f.file) f.line suppressions

let to_string ~rules findings =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\n  \"$schema\": \
     \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \
     \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \
     \"unigen-lint\", \"informationUri\": \
     \"https://github.com/unigen/unigen\", \"rules\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "      ";
      Buffer.add_string b (rule_json r))
    rules;
  Buffer.add_string b "\n    ]}},\n    \"results\": [\n";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "      ";
      Buffer.add_string b (result_json f))
    findings;
  Buffer.add_string b "\n    ]\n  }]\n}\n";
  Buffer.contents b
