type severity = Error | Warn | Info

let severity_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  message : string;
  allowlisted : bool;
}

let make ~rule ~severity ~file ~line message =
  { rule; severity; file; line; message; allowlisted = false }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match String.compare a.rule b.rule with
          | 0 -> String.compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

let blocking f =
  (not f.allowlisted) && (match f.severity with Error | Warn -> true | Info -> false)

let to_json f =
  let str s = Json_codec.(to_string (Str s)) in
  Printf.sprintf
    "{\"rule\": %s, \"severity\": \"%s\", \"file\": %s, \"line\": %d, \
     \"allowlisted\": %b, \"message\": %s}"
    (str f.rule)
    (severity_to_string f.severity)
    (str f.file) f.line f.allowlisted (str f.message)

let list_to_json fs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  ";
      Buffer.add_string b (to_json f))
    fs;
  Buffer.add_string b (if fs = [] then "]\n" else "\n]\n");
  Buffer.contents b
