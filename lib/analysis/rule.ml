type source = {
  path : string;
  text : string;
  tokens : Token.t array;
  code : Token.t array;
  lines : Token.Lines.t;
  masked : string Lazy.t;
  mli_exists : bool;
}

let load ?(mli_exists = false) ~path text =
  let tokens, lines = Token.scan text in
  {
    path;
    text;
    tokens;
    code = Token.code tokens;
    lines;
    masked = lazy (Token.mask text tokens);
    mli_exists;
  }

type context = { sources : source list; design_doc : string option }
type hit = { file : string; line : int; message : string }
type phase = File of (source -> hit list) | Repo of (context -> hit list)

type t = {
  name : string;
  severity : Findings.severity;
  doc : string;
  phase : phase;
}

(* ------------------------------------------------------------------ *)
(* Token helpers *)

let is_word (tok : Token.t) w =
  match tok.kind with
  | Token.Ident s | Token.Uident s -> s = w
  | _ -> false

let is_ident (tok : Token.t) =
  match tok.kind with Token.Ident _ | Token.Uident _ -> true | _ -> false

let ident_text (tok : Token.t) =
  match tok.kind with Token.Ident s | Token.Uident s -> s | _ -> ""

let contiguous (a : Token.t) (b : Token.t) = a.off + a.len = b.off
let is_dot (tok : Token.t) = tok.kind = Token.Op '.'

let prev_dotted code i =
  i > 0 && is_dot code.(i - 1) && contiguous code.(i - 1) code.(i)

(* the path continues at [i] with a contiguous [.ident] pair *)
let path_step code i =
  i + 2 <= Array.length code - 1
  && is_dot code.(i + 1)
  && contiguous code.(i) code.(i + 1)
  && is_ident code.(i + 2)
  && contiguous code.(i + 1) code.(i + 2)

let dotted_path_at code i =
  if i >= Array.length code || (not (is_ident code.(i))) || prev_dotted code i
  then None
  else begin
    let buf = Buffer.create 16 in
    Buffer.add_string buf (ident_text code.(i));
    let j = ref i in
    while path_step code !j do
      Buffer.add_char buf '.';
      Buffer.add_string buf (ident_text code.(!j + 2));
      j := !j + 2
    done;
    Some (Buffer.contents buf, !j + 1)
  end

let matches_qualified code i parts =
  match dotted_path_at code i with
  | Some (path, _) -> path = String.concat "." parts
  | None -> false

let ends_qualified code i parts =
  match dotted_path_at code i with
  | Some (path, stop) ->
      let want = String.concat "." parts in
      let pl = String.length path and wl = String.length want in
      if
        pl >= wl
        && String.sub path (pl - wl) wl = want
        && (pl = wl || path.[pl - wl - 1] = '.')
      then Some stop
      else None
  | None -> None

let item_keyword = function
  | "let" | "module" | "type" | "open" | "exception" | "external"
  | "include" | "val" ->
      true
  | _ -> false

let item_starts src =
  let acc = ref [] in
  Array.iteri
    (fun i (tok : Token.t) ->
      if
        tok.off = Token.Lines.bol_of src.lines tok.off
        && (match tok.kind with
           | Token.Ident s -> item_keyword s
           | _ -> false)
      then acc := i :: !acc)
    src.code;
  Array.of_list (List.rev !acc)

let item_span starts code i =
  let n = Array.length starts in
  let lo = ref 0 and hi = ref (Array.length code) in
  for k = 0 to n - 1 do
    if starts.(k) <= i then begin
      lo := starts.(k);
      hi := if k + 1 < n then starts.(k + 1) else Array.length code
    end
  done;
  (!lo, !hi)
