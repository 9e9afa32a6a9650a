type value = Int of int | Float of float | Bool of bool | String of string

type section = { title : string; fields : (string * value) list }

type t = { mutable secs : section list (* reversed *) }

let host_fields () =
  [
    ("cores", Int (Domain.recommended_domain_count ()));
    ("ocaml_version", String Sys.ocaml_version);
    ("word_size", Int Sys.word_size);
  ]

let create ?(host = true) () =
  let t = { secs = [] } in
  if host then t.secs <- [ { title = "host"; fields = host_fields () } ];
  t

let add_section t title fields =
  if fields <> [] then t.secs <- { title; fields } :: t.secs

let sections t = List.rev t.secs

(* ------------------------------------------------------------------ *)
(* Metrics snapshot -> sections *)

let split_span_name name =
  let p = Metrics.span_prefix in
  let lp = String.length p in
  if String.length name > lp && String.sub name 0 lp = p then
    Some (String.sub name lp (String.length name - lp))
  else None

let span_histograms (s : Metrics.snapshot) =
  List.filter_map
    (fun (name, h) ->
      match split_span_name name with
      | Some base -> Some (base, h)
      | None -> None)
    s.Metrics.histograms

let value_histograms (s : Metrics.snapshot) =
  List.filter (fun (name, _) -> split_span_name name = None) s.Metrics.histograms

let phase_fields (s : Metrics.snapshot) =
  List.map
    (fun (name, (h : Metrics.Hist.data)) -> (name, Float h.Metrics.Hist.sum))
    (span_histograms s)

let metrics_sections (s : Metrics.snapshot) =
  let counters =
    List.map (fun (name, n) -> (name, Int n)) s.Metrics.counters
    @ List.map (fun (name, v) -> (name, Float v)) s.Metrics.gauges
    @ List.concat_map
        (fun (name, (h : Metrics.Hist.data)) ->
          [
            (name ^ ".count", Int h.Metrics.Hist.count);
            ( name ^ ".mean",
              Float
                (if h.Metrics.Hist.count = 0 then 0.0
                 else h.Metrics.Hist.sum /. float_of_int h.Metrics.Hist.count) );
            (name ^ ".p90", Float (Metrics.Hist.quantile h 0.9));
          ])
        (value_histograms s)
  in
  let phases = phase_fields s in
  let calls =
    List.map
      (fun (name, (h : Metrics.Hist.data)) -> (name, Int h.Metrics.Hist.count))
      (span_histograms s)
  in
  List.filter
    (fun (_, fields) -> fields <> [])
    [ ("metrics", counters); ("phases", phases); ("phase_calls", calls) ]

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_value fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Float f -> Format.fprintf fmt "%.6f" f
  | Bool b -> Format.pp_print_bool fmt b
  | String s -> Format.pp_print_string fmt s

let pp fmt t =
  List.iter
    (fun sec ->
      List.iter
        (fun (k, v) ->
          Format.fprintf fmt "c %s.%s = %a@." sec.title k pp_value v)
        sec.fields)
    (sections t)

let add_json_value b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
      else Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | String s ->
      Buffer.add_char b '"';
      Json_codec.escape_into b s;
      Buffer.add_char b '"'

let add_json_fields b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_char b '"';
      Json_codec.escape_into b k;
      Buffer.add_string b "\": ";
      add_json_value b v)
    fields;
  Buffer.add_char b '}'

let json_of_fields fields =
  let b = Buffer.create 128 in
  add_json_fields b fields;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i sec ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "  \"";
      Json_codec.escape_into b sec.title;
      Buffer.add_string b "\": ";
      add_json_fields b sec.fields)
    (sections t);
  Buffer.add_string b "\n}";
  Buffer.contents b

let write_json path t =
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc
