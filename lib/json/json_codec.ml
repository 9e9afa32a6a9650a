type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* below 1e17 an integral float prints every digit plus ".0";
         above it "%.17g" switches to an exponent, so neither form
         reads back as an [Int] *)
      Buffer.add_string buf
        (if not (Float.is_finite f) then "null"
         else if Float.is_integer f && Float.abs f < 1e17 then
           Printf.sprintf "%.1f" f
         else Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_into buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          print_into buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail "expected '%c' at offset %d, got '%c'" c st.pos c'
  | None -> fail "expected '%c' at offset %d, got end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "bad literal at offset %d" st.pos

(* The code point of a [\u] escape whose backslash and [u] are
   consumed. The four digits are checked by hand ([int_of_string] would
   also take "0x_1_2"); a UTF-16 surrogate pair is two escapes that
   make one code point. *)
let unicode_escape st =
  let hex4 () =
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    let hex = String.sub st.src st.pos (min 4 (String.length st.src - st.pos)) in
    if String.length hex < 4 || not (String.for_all is_hex hex) then
      fail "bad \\u escape at offset %d" st.pos;
    st.pos <- st.pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let lone () = fail "lone surrogate at offset %d" st.pos in
  let hi = hex4 () in
  if hi land 0xFC00 = 0xDC00 then lone ();
  if hi land 0xFC00 <> 0xD800 then Uchar.of_int hi
  else begin
    if not (st.pos + 2 <= String.length st.src && String.sub st.src st.pos 2 = "\\u")
    then lone ();
    st.pos <- st.pos + 2;
    let lo = hex4 () in
    if lo land 0xFC00 <> 0xDC00 then lone ();
    Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
  end

let parse_str st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> fail "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> Buffer.add_utf_8_uchar b (unicode_escape st)
            | c -> fail "bad escape '\\%c'" c);
            go ())
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

(* The RFC 8259 number grammar, [-? (0 | [1-9] [0-9]* ) (. [0-9]+)?
   ([eE] [+-]? [0-9]+)?]; the error names the offset of the first
   character that breaks it. Integers beyond [max_int] become floats. *)
let parse_number st =
  let start = st.pos in
  let accept c =
    match peek st with
    | Some c' when c' = c ->
        st.pos <- st.pos + 1;
        true
    | _ -> false
  in
  let is_digit () = match peek st with Some '0' .. '9' -> true | _ -> false in
  let digits () =
    if not (is_digit ()) then fail "bad number at offset %d" st.pos;
    while is_digit () do
      st.pos <- st.pos + 1
    done
  in
  ignore (accept '-' : bool);
  if accept '0' then (if is_digit () then fail "bad number at offset %d" st.pos)
  else digits ();
  if accept '.' then digits ();
  if accept 'e' || accept 'E' then begin
    ignore (accept '+' || accept '-' : bool);
    digits ()
  end;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> Float (float_of_string s)

let max_depth = 64

(* Consume an opening bracket at [depth] enclosing containers. The
   bound stops a hostile frame of a million ['['] after 64 levels of
   recursion instead of a million. *)
let enter st depth =
  if depth >= max_depth then
    fail "nesting deeper than %d at offset %d" max_depth st.pos;
  st.pos <- st.pos + 1;
  depth + 1

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_str st)
  | Some '{' ->
      let depth = enter st depth in
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else
        let rec members acc =
          skip_ws st;
          let k = parse_str st in
          skip_ws st;
          expect st ':';
          let v = parse_value st depth in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}' at offset %d" st.pos
        in
        members []
  | Some '[' ->
      let depth = enter st depth in
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else
        let rec elements acc =
          let v = parse_value st depth in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at offset %d" st.pos
        in
        elements []
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at offset %d" st.pos;
  v

(* ------------------------------------------------------------------ *)
(* Decoding helpers *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let get_string k v =
  match member k v with
  | Some (Str s) -> s
  | Some _ -> fail "field %S: expected a string" k
  | None -> fail "missing field %S" k

let get_int k v =
  match member k v with
  | Some (Int i) -> i
  | Some _ -> fail "field %S: expected an integer" k
  | None -> fail "missing field %S" k

let get_float k v =
  match member k v with
  | Some (Float f) -> f
  | Some (Int i) -> float_of_int i
  | Some _ -> fail "field %S: expected a number" k
  | None -> fail "missing field %S" k

let get_bool k v =
  match member k v with
  | Some (Bool b) -> b
  | Some Null | None -> false
  | Some _ -> fail "field %S: expected a boolean" k

let opt_int k v =
  match member k v with
  | Some (Int i) -> Some i
  | Some Null | None -> None
  | Some _ -> fail "field %S: expected an integer" k

let opt_float k v =
  match member k v with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | Some Null | None -> None
  | Some _ -> fail "field %S: expected a number" k

let opt_string k v =
  match member k v with
  | Some (Str s) -> Some s
  | Some Null | None -> None
  | Some _ -> fail "field %S: expected a string" k

let get_list k v =
  match member k v with
  | Some (List l) -> l
  | Some _ -> fail "field %S: expected an array" k
  | None -> fail "missing field %S" k

let to_int = function
  | Int i -> i
  | _ -> raise (Decode_error "expected an integer")
