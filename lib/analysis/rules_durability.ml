let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The layers that touch spill directories: the store itself and the
   service stack that injects/consumes it. Everything else (CLI report
   writers, bench output, the DIMACS writer) is out of scope — only
   files a restarted daemon or another daemon process sharing the
   directory will re-read must be crash-safe. *)
let in_scope f = starts_with "lib/store/" f || starts_with "lib/service/" f

(* Buffered channel writers. [Unix.write]/[write_substring] are not
   listed: unbuffered writes are exactly what [atomic_write] itself is
   built from, and the temp+rename discipline, not the syscall, is
   what the rule enforces. *)
let write_fns =
  [
    "open_out";
    "open_out_bin";
    "open_out_gen";
    "output_string";
    "output_bytes";
    "output_char";
    "output_substring";
  ]

(* Qualified heads under which the same writers live. *)
let write_heads = [ "Stdlib"; "Out_channel"; "Printf" ]

let hit file (tok : Token.t) message : Rule.hit =
  { file; line = tok.line; message }

let durable_write_discipline : Rule.t =
  {
    name = "durable-write-discipline";
    severity = Findings.Error;
    doc =
      "Files under a spill directory must be written through \
       Store.atomic_write (temp file + fsync + atomic rename): a buffered \
       open_out/output_* in the store or service layer can leave a torn \
       entry that a restarted daemon or another daemon process sharing \
       the directory then reads. The one \
       exemption is the top-level atomic_write binding itself.";
    phase =
      Rule.File
        (fun src ->
          if not (in_scope src.path) then []
          else begin
            let items = Rule.item_starts src in
            let inside_atomic_write i =
              let lo, _ = Rule.item_span items src.code i in
              lo + 1 < Array.length src.code
              && Rule.is_word src.code.(lo) "let"
              && Rule.is_word src.code.(lo + 1) "atomic_write"
            in
            let acc = ref [] in
            Array.iteri
              (fun i (tok : Token.t) ->
                let matched =
                  match Rule.dotted_path_at src.code i with
                  | None -> false
                  | Some (path, _) -> (
                      match String.split_on_char '.' path with
                      | [ w ] -> List.mem w write_fns
                      | [ head; w ] ->
                          List.mem head write_heads && List.mem w write_fns
                      | _ -> false)
                in
                if matched && not (inside_atomic_write i) then
                  acc :=
                    hit src.path tok
                      "buffered channel write in the durable-store path; \
                       route spill-file bytes through Store.atomic_write so \
                       a crash can never leave a torn entry"
                    :: !acc)
              src.code;
            List.rev !acc
          end);
  }

let all = [ durable_write_discipline ]
