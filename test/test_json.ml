(* Tests for the one JSON codec (lib/json): printer/parser round trip,
   the escaping rule every writer shares, the parser's nesting bound on
   hostile frames, non-finite floats, the number grammar, and [\u]
   escapes decoding to UTF-8. *)

module J = Json_codec
module Wire = Service.Wire

let decode_error s =
  match J.of_string s with
  | (_ : J.t) -> None
  | exception J.Decode_error msg -> Some msg

let depth_message =
  Printf.sprintf "nesting deeper than %d at offset %d" J.max_depth J.max_depth

(* ------------------------------------------------------------------ *)
(* Nesting bound *)

let nested_lists n = String.make n '[' ^ String.make n ']'

let nested_objects n =
  String.concat "" (List.init n (fun _ -> "{\"k\":")) ^ "0" ^ String.make n '}'

let test_depth_at_bound () =
  let rec depth = function
    | J.List [] -> 1
    | J.List [ v ] -> 1 + depth v
    | _ -> Alcotest.fail "unexpected shape"
  in
  Alcotest.(check int) "lists at the bound" J.max_depth
    (depth (J.of_string (nested_lists J.max_depth)));
  Alcotest.(check bool) "objects at the bound" true
    (match J.of_string (nested_objects J.max_depth) with
    | J.Obj [ ("k", _) ] -> true
    | _ -> false);
  Alcotest.(check (option string)) "lists one past the bound"
    (Some depth_message)
    (decode_error (nested_lists (J.max_depth + 1)));
  Alcotest.(check (option string)) "objects one past the bound"
    (Some
       (Printf.sprintf "nesting deeper than %d at offset %d" J.max_depth
          (5 * J.max_depth)))
    (decode_error (nested_objects (J.max_depth + 1)))

(* A frame of a million '[' passes the framing layer (it is far below
   max_frame) and must then fail as a clean decode error. The message
   names the offset where the parser stopped: the bound, not the end
   of the frame. *)
let test_hostile_nesting_frame () =
  let n = 1_000_000 in
  let frame = Wire.encode_frame (String.make n '[') in
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed d (Bytes.of_string frame) (String.length frame);
  match Wire.Decoder.next d with
  | None -> Alcotest.fail "frame not reassembled"
  | Some payload -> (
      Alcotest.(check int) "whole payload framed" n (String.length payload);
      match Wire.request_of_json (J.of_string payload) with
      | (_ : Wire.request) -> Alcotest.fail "hostile frame accepted"
      | exception J.Decode_error msg ->
          Alcotest.(check string) "stopped at the bound" depth_message msg)

(* ------------------------------------------------------------------ *)
(* Floats *)

let test_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) "prints null" "null" (J.to_string (J.Float f));
      Alcotest.(check bool) "parses back" true
        (J.of_string (J.to_string (J.List [ J.Float f ])) = J.List [ J.Null ]))
    [ infinity; neg_infinity; nan ]

let test_integral_floats_stay_floats () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%g round-trips as a float" f)
        true
        (J.of_string (J.to_string (J.Float f)) = J.Float f))
    [ 0.0; -3.0; 1e15; 1e16; -12345678901234568.0; 1e17; 1e300 ]

(* The RFC 8259 number grammar: each rejection names the offset of the
   first character that breaks it. *)
let test_number_grammar () =
  List.iter
    (fun (s, offset) ->
      Alcotest.(check (option string))
        (s ^ " rejected")
        (Some (Printf.sprintf "bad number at offset %d" offset))
        (decode_error s))
    [ ("+1", 0); (".5", 0); ("01", 1); ("-01", 2); ("1.", 2); ("1.e5", 2);
      ("-", 1); ("1e", 2); ("--1", 1); ("1e+", 3) ];
  List.iter
    (fun (s, v) -> Alcotest.(check bool) (s ^ " accepted") true (J.of_string s = v))
    [ ("0", J.Int 0); ("-0", J.Int 0); ("0.5", J.Float 0.5);
      ("-1.25e-3", J.Float (-1.25e-3)); ("1E+2", J.Float 100.0);
      ("4611686018427387904", J.Float 4611686018427387904.0) ]

(* ------------------------------------------------------------------ *)
(* \u escapes *)

let str_of s =
  match J.of_string s with
  | J.Str v -> v
  | _ -> Alcotest.fail "not a string"

let test_unicode_escapes () =
  Alcotest.(check string) "ASCII" "\001A/" (str_of {|"\u0001A\/"|});
  Alcotest.(check string) "two-byte" "caf\xc3\xa9" (str_of {|"caf\u00e9"|});
  Alcotest.(check string) "three-byte" "\xe2\x82\xac" (str_of {|"\u20AC"|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (str_of {|"\ud83d\ude00"|});
  Alcotest.(check string) "raw UTF-8 kept" "caf\xc3\xa9" (str_of "\"caf\xc3\xa9\"");
  List.iter
    (fun s ->
      match decode_error s with
      | Some msg ->
          Alcotest.(check bool) (s ^ ": lone surrogate") true
            (String.starts_with ~prefix:"lone surrogate" msg)
      | None -> Alcotest.failf "%s accepted" s)
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ude00"|}; {|"\ud83dA"|}; {|"\ud83d\ud83d"|} ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (decode_error s <> None))
    [ {|"\u12"|}; {|"\u00g1"|}; {|"\u_123"|}; {|"\u+123"|} ]

(* A client that ASCII-escapes (Python's json.dumps default) must get
   its trace id back as the same text. *)
let test_trace_id_utf8_echo () =
  let frame =
    {|{"op":"sample","formula":"p cnf 1 0\n","n":1,"trace_id":"caf\u00e9"}|}
  in
  match Wire.request_of_json (J.of_string frame) with
  | Wire.Sample r -> (
      Alcotest.(check (option string)) "decoded to UTF-8" (Some "caf\xc3\xa9")
        r.Wire.trace_id;
      let resp =
        Wire.Ok_sample
          {
            Wire.fingerprint = "abc";
            cache = Wire.Cache_miss;
            witnesses = [];
            produced = 0;
            requested = 1;
            queue_wait_s = 0.0;
            rsp_tag = None;
            rsp_trace_id = Option.get r.Wire.trace_id;
          }
      in
      match Wire.response_of_json (J.of_string (J.to_string (Wire.response_to_json resp))) with
      | Wire.Ok_sample o ->
          Alcotest.(check string) "echoed unchanged" "caf\xc3\xa9" o.Wire.rsp_trace_id
      | _ -> Alcotest.fail "response changed shape")
  | _ -> Alcotest.fail "not a sample request"

(* ------------------------------------------------------------------ *)
(* Round trip and shared escaper (qcheck) *)

let gen_value =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_range 0 12) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite;
        map (fun s -> J.Str s) str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map (fun l -> J.Obj l)
                (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
          ])
    4

let prop_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"of_string (to_string v) = v" ~print:J.to_string
    gen_value (fun v -> J.of_string (J.to_string v) = v)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* One trace event, written through the real sink and read back. *)
let trace_event ~cat ~args name =
  let path = Filename.temp_file "json_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.enable_file path;
  Obs.Trace.instant ~cat ~args name;
  Obs.Trace.close ();
  match J.of_string (read_file path) with
  | J.List [ ev ] -> ev
  | _ -> Alcotest.fail "expected one trace event"

let ascii = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 0x7f)) (int_range 0 16))

let prop_writers_share_escaper =
  QCheck2.Test.make ~count:200
    ~name:"report, trace and findings writers round-trip arbitrary strings"
    QCheck2.Gen.(triple ascii ascii ascii)
    (fun (a, b, c) ->
      let report =
        J.of_string (Obs.Report.json_of_fields [ (a, Obs.Report.String b) ])
      in
      let ev = trace_event ~cat:b ~args:[ (a, c) ] c in
      let finding =
        J.of_string
          (Analysis.Findings.to_json
             (Analysis.Findings.make ~rule:a ~severity:Analysis.Findings.Warn ~file:b
                ~line:3 c))
      in
      report = J.Obj [ (a, J.Str b) ]
      && J.member "name" ev = Some (J.Str c)
      && J.member "cat" ev = Some (J.Str b)
      && J.member "args" ev = Some (J.Obj [ (a, J.Str c) ])
      && finding
         = J.Obj
             [
               ("rule", J.Str a);
               ("severity", J.Str "warn");
               ("file", J.Str b);
               ("line", J.Int 3);
               ("allowlisted", J.Bool false);
               ("message", J.Str c);
             ])

let test_named_escapes () =
  Alcotest.(check string) "tab and CR are named" {|{"k": "\t\r\n\u0001\"\\"}|}
    (Obs.Report.json_of_fields [ ("k", Obs.Report.String "\t\r\n\001\"\\") ])

let test_get_bool () =
  let doc = J.of_string {|{"t": true, "f": false, "n": null, "s": "x"}|} in
  Alcotest.(check (list bool)) "true, false, null, missing"
    [ true; false; false; false ]
    (List.map (fun k -> J.get_bool k doc) [ "t"; "f"; "n"; "absent" ]);
  Alcotest.(check bool) "a string is an error" true
    (match J.get_bool "s" doc with
    | (_ : bool) -> false
    | exception J.Decode_error _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "json"
    [
      ( "nesting",
        [
          Alcotest.test_case "at the bound" `Quick test_depth_at_bound;
          Alcotest.test_case "hostile frame" `Quick test_hostile_nesting_frame;
        ] );
      ( "floats",
        [
          Alcotest.test_case "non-finite print null" `Quick test_non_finite_floats;
          Alcotest.test_case "integral floats stay floats" `Quick
            test_integral_floats_stay_floats;
        ] );
      ("numbers", [ Alcotest.test_case "RFC 8259 grammar" `Quick test_number_grammar ]);
      ( "unicode",
        [
          Alcotest.test_case "escapes decode to UTF-8" `Quick test_unicode_escapes;
          Alcotest.test_case "trace id echo" `Quick test_trace_id_utf8_echo;
        ] );
      ( "codec",
        [
          Alcotest.test_case "named escapes" `Quick test_named_escapes;
          Alcotest.test_case "get_bool" `Quick test_get_bool;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_writers_share_escaper;
        ] );
    ]
