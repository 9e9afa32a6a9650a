exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let tokens_of_line line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* A DIMACS integer is [-?[0-9]+]. [int_of_string] alone would also
   take OCaml literal syntax: 0x3, 0b1, 0o7, 0u5, +5, 1_000. *)
let int_token s =
  let n = String.length s in
  let rec digits i = i = n || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1)) in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  if start < n && digits start then int_of_string_opt s else None

let count what s =
  match int_token s with
  | Some n when n >= 0 -> n
  | _ -> fail "bad %s count %S" what s

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let num_vars = ref (-1) in
  let declared_clauses = ref (-1) in
  let clauses = ref [] in
  let xors = ref [] in
  let sampling = ref [] in
  let have_sampling = ref false in
  let parse_ints what toks =
    List.map
      (fun s ->
        match int_token s with
        | Some i -> i
        | None -> fail "bad integer %S in %s line" s what)
      toks
  in
  (* 0 only terminates a line, and min_int names no variable *)
  let check_literals what lits =
    List.iter
      (fun i -> if i = 0 || i = min_int then fail "bad literal %d in %s line" i what)
      lits
  in
  let add_clause toks =
    let ints = parse_ints "clause" toks in
    match List.rev ints with
    | 0 :: rev_lits ->
        check_literals "clause" rev_lits;
        let lits = List.rev_map Lit.of_dimacs rev_lits in
        clauses := Array.of_list lits :: !clauses
    | _ -> fail "clause line not terminated by 0"
  in
  let add_xor toks =
    let ints = parse_ints "xor" toks in
    match List.rev ints with
    | 0 :: rev_lits ->
        check_literals "xor" rev_lits;
        (* Each negative literal flips the right-hand side once:
           ¬a ⊕ b = c  ⇔  a ⊕ b = ¬c. *)
        let vars = List.rev_map abs rev_lits in
        let flips = List.length (List.filter (fun i -> i < 0) rev_lits) in
        let rhs = flips mod 2 = 0 in
        xors := Xor_clause.make vars rhs :: !xors
    | _ -> fail "xor line not terminated by 0"
  in
  let add_sampling toks =
    let ints = parse_ints "c ind" toks in
    match List.rev ints with
    | 0 :: rev_vars ->
        have_sampling := true;
        sampling := List.rev_append rev_vars !sampling
    | [] -> ()
    | _ -> fail "c ind line not terminated by 0"
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line = "" then ()
      else
        match tokens_of_line line with
        | [] -> ()
        | "c" :: "ind" :: rest -> add_sampling rest
        | "c" :: _ -> ()
        | "p" :: "cnf" :: nv :: nc :: _ ->
            num_vars := count "var" nv;
            declared_clauses := count "clause" nc
        | "p" :: _ -> fail "unsupported problem line %S" line
        | "x" :: rest -> add_xor rest
        | toks -> add_clause toks)
    lines;
  if !num_vars < 0 then fail "missing p cnf header";
  ignore !declared_clauses;
  let sampling_set = if !have_sampling then Some (List.rev !sampling) else None in
  (* The constructor rejects a variable outside 1..num_vars with
     [Invalid_argument]; to a caller parsing untrusted text that is a
     parse error like any other. *)
  match
    Formula.create_with_xors ?sampling_set ~num_vars:!num_vars
      (List.rev !clauses) (List.rev !xors)
  with
  | f -> f
  | exception Invalid_argument msg -> fail "%s" msg

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  try parse_string content
  with Parse_error msg -> raise (Parse_error (path ^ ": " ^ msg))

let to_string (f : Formula.t) =
  let buf = Buffer.create 4096 in
  (* empty XORs with rhs=false are tautologies and have no DIMACS
     rendering; drop them (and count only what is emitted) *)
  let emitted_xors =
    Array.to_list f.xors
    |> List.filter (fun (x : Xor_clause.t) -> Array.length x.vars > 0 || x.rhs)
  in
  Printf.bprintf buf "p cnf %d %d\n" f.num_vars
    (Array.length f.clauses + List.length emitted_xors);
  (match f.sampling_set with
  | None -> ()
  | Some s ->
      Buffer.add_string buf "c ind";
      Array.iter (fun v -> Printf.bprintf buf " %d" v) s;
      Buffer.add_string buf " 0\n");
  Array.iter
    (fun c ->
      Array.iter (fun l -> Printf.bprintf buf "%d " (Lit.to_dimacs l)) c;
      Buffer.add_string buf "0\n")
    f.clauses;
  List.iter
    (fun (x : Xor_clause.t) ->
      Buffer.add_char buf 'x';
      (* Encode rhs=false by negating the first variable. An emitted
         empty XOR necessarily has rhs=true ("x 0" = unsatisfiable). *)
      Array.iteri
        (fun i v ->
          let signed = if i = 0 && not x.rhs then -v else v in
          Printf.bprintf buf " %d" signed)
        x.vars;
      Buffer.add_string buf " 0\n")
    emitted_xors;
  Buffer.contents buf

let write_file path f =
  let oc = open_out path in
  output_string oc (to_string f);
  close_out oc
