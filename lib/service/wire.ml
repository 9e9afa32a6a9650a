let max_frame = 64 * 1024 * 1024

exception Frame_error of string

let encode_frame payload =
  let n = String.length payload in
  if n > max_frame then raise (Frame_error "frame exceeds max_frame");
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

module Decoder = struct
  (* Accumulated bytes with a consumed-prefix offset; the buffer is
     compacted lazily on [feed], so [next] never copies more than one
     payload. *)
  type t = { mutable data : string; mutable off : int }

  let create () = { data = ""; off = 0 }

  let feed d buf n =
    let pending = String.length d.data - d.off in
    let b = Bytes.create (pending + n) in
    Bytes.blit_string d.data d.off b 0 pending;
    Bytes.blit buf 0 b pending n;
    d.data <- Bytes.unsafe_to_string b;
    d.off <- 0

  let buffered d = String.length d.data - d.off

  let next d =
    let available = String.length d.data - d.off in
    if available < 4 then None
    else begin
      let byte i = Char.code d.data.[d.off + i] in
      let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
      if len > max_frame then raise (Frame_error "frame exceeds max_frame");
      if available < 4 + len then None
      else begin
        let payload = String.sub d.data (d.off + 4) len in
        d.off <- d.off + 4 + len;
        Some payload
      end
    end
end

let really_read fd buf off len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read fd buf (off + !got) (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

let read_frame fd =
  let hdr = Bytes.create 4 in
  let got = really_read fd hdr 0 4 in
  if got = 0 then None
  else if got < 4 then raise (Frame_error "truncated frame header")
  else begin
    let byte i = Char.code (Bytes.get hdr i) in
    let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
    if len > max_frame then raise (Frame_error "frame exceeds max_frame");
    let payload = Bytes.create len in
    if really_read fd payload 0 len < len then
      raise (Frame_error "truncated frame payload");
    Some (Bytes.unsafe_to_string payload)
  end

let write_frame fd payload =
  let framed = encode_frame payload in
  let len = String.length framed in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd framed !sent (len - !sent)
  done

(* ------------------------------------------------------------------ *)
(* Protocol values *)

type sample_req = {
  formula_text : string;
  n : int;
  seed : int;
  prepare_seed : int;
  epsilon : float;
  count_iterations : int option;
  timeout_s : float option;
  max_attempts : int;
  tag : string option;
  trace_id : string option;
}

let default_sample_req =
  {
    formula_text = "";
    n = 1;
    seed = 1;
    prepare_seed = 1;
    epsilon = 6.0;
    count_iterations = None;
    timeout_s = None;
    max_attempts = 20;
    tag = None;
    trace_id = None;
  }

type request =
  | Sample of sample_req
  | Cancel of string
  | Status
  | Window
  | Shutdown

type reject_reason = Queue_full | Batch_too_large | Draining
type cache_source = Cache_miss | Cache_ram | Cache_disk

(* "hit" (not "ram") for the in-memory tier keeps the wire value that
   clients older than the disk tier and smoke greps already match on *)
let cache_source_to_string = function
  | Cache_miss -> "miss"
  | Cache_ram -> "hit"
  | Cache_disk -> "disk"

let cache_source_of_string = function
  | "miss" -> Cache_miss
  | "hit" -> Cache_ram
  | "disk" -> Cache_disk
  | s -> raise (Json.Decode_error ("unknown cache source: " ^ s))

type sample_ok = {
  fingerprint : string;
  cache : cache_source;
  witnesses : int list list;
  produced : int;
  requested : int;
  queue_wait_s : float;
  rsp_tag : string option;
  rsp_trace_id : string;
}

type fp_window = {
  fp : string;
  fp_requests : int;
  fp_hits : int;
  fp_misses : int;
  fp_p50_ms : float;
  fp_p90_ms : float;
  fp_p99_ms : float;
}

type window_report = {
  window_s : float;
  uptime_s : float;
  jobs : int;
  w_in_flight : int;
  w_queued : int;
  ocaml_version : string;
  w_requests : int;
  rate_per_s : float;
  w_deadline_misses : int;
  w_hits : int;
  w_misses : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  queue_p50_ms : float;
  queue_p90_ms : float;
  queue_p99_ms : float;
  per_fp : fp_window list;
}

type response =
  | Ok_sample of sample_ok
  | Rejected of { reason : reject_reason; retry_after_s : float }
  | Deadline_miss of { rsp_tag : string option }
  | Cancelled of { rsp_tag : string option }
  | Cancel_result of bool
  | Unsat of { rsp_tag : string option }
  | Error_msg of string
  | Metrics of { values : (string * float) list; info : (string * string) list }
  | Window_report of window_report
  | Bye

let reject_reason_to_string = function
  | Queue_full -> "queue_full"
  | Batch_too_large -> "batch_too_large"
  | Draining -> "draining"

let reject_reason_of_string = function
  | "queue_full" -> Queue_full
  | "batch_too_large" -> Batch_too_large
  | "draining" -> Draining
  | s -> raise (Json.Decode_error ("unknown reject reason " ^ s))

let opt_field k = function None -> [] | Some v -> [ (k, v) ]

let request_to_json = function
  | Sample r ->
      Json.Obj
        ([
           ("op", Json.Str "sample");
           ("formula", Json.Str r.formula_text);
           ("n", Json.Int r.n);
           ("seed", Json.Int r.seed);
           ("prepare_seed", Json.Int r.prepare_seed);
           ("epsilon", Json.Float r.epsilon);
           ("max_attempts", Json.Int r.max_attempts);
         ]
        @ opt_field "count_iterations"
            (Option.map (fun i -> Json.Int i) r.count_iterations)
        @ opt_field "timeout_ms"
            (Option.map (fun s -> Json.Float (s *. 1000.0)) r.timeout_s)
        @ opt_field "tag" (Option.map (fun t -> Json.Str t) r.tag)
        @ opt_field "trace_id" (Option.map (fun t -> Json.Str t) r.trace_id))
  | Cancel tag -> Json.Obj [ ("op", Json.Str "cancel"); ("tag", Json.Str tag) ]
  | Status -> Json.Obj [ ("op", Json.Str "status") ]
  | Window -> Json.Obj [ ("op", Json.Str "metrics") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let request_of_json j =
  match Json.get_string "op" j with
  | "sample" ->
      Sample
        {
          formula_text = Json.get_string "formula" j;
          n = Json.get_int "n" j;
          seed =
            (match Json.opt_int "seed" j with
            | Some s -> s
            | None -> default_sample_req.seed);
          prepare_seed =
            (match Json.opt_int "prepare_seed" j with
            | Some s -> s
            | None -> default_sample_req.prepare_seed);
          epsilon =
            (match Json.opt_float "epsilon" j with
            | Some e -> e
            | None -> default_sample_req.epsilon);
          count_iterations =
            (match Json.opt_int "count_iterations" j with
            | Some c when c < 1 ->
                raise (Json.Decode_error "count_iterations must be >= 1")
            | c -> c);
          timeout_s =
            Option.map (fun ms -> ms /. 1000.0) (Json.opt_float "timeout_ms" j);
          max_attempts =
            (match Json.opt_int "max_attempts" j with
            | Some m -> m
            | None -> default_sample_req.max_attempts);
          tag = Json.opt_string "tag" j;
          trace_id = Json.opt_string "trace_id" j;
        }
  | "cancel" -> Cancel (Json.get_string "tag" j)
  | "status" -> Status
  | "metrics" -> Window
  | "shutdown" -> Shutdown
  | op -> raise (Json.Decode_error ("unknown op " ^ op))

let response_to_json = function
  | Ok_sample r ->
      Json.Obj
        ([
           ("status", Json.Str "ok");
           ("fingerprint", Json.Str r.fingerprint);
           ("cache", Json.Str (cache_source_to_string r.cache));
           ( "witnesses",
             Json.List
               (List.map
                  (fun w -> Json.List (List.map (fun l -> Json.Int l) w))
                  r.witnesses) );
           ("produced", Json.Int r.produced);
           ("requested", Json.Int r.requested);
           ("queue_wait_ms", Json.Float (r.queue_wait_s *. 1000.0));
           ("trace_id", Json.Str r.rsp_trace_id);
         ]
        @ opt_field "tag" (Option.map (fun t -> Json.Str t) r.rsp_tag))
  | Rejected { reason; retry_after_s } ->
      Json.Obj
        [
          ("status", Json.Str "rejected");
          ("reason", Json.Str (reject_reason_to_string reason));
          ("retry_after_ms", Json.Float (retry_after_s *. 1000.0));
        ]
  | Deadline_miss { rsp_tag } ->
      Json.Obj
        (("status", Json.Str "deadline_miss")
        :: opt_field "tag" (Option.map (fun t -> Json.Str t) rsp_tag))
  | Cancelled { rsp_tag } ->
      Json.Obj
        (("status", Json.Str "cancelled")
        :: opt_field "tag" (Option.map (fun t -> Json.Str t) rsp_tag))
  | Cancel_result found ->
      Json.Obj [ ("status", Json.Str "cancel_result"); ("found", Json.Bool found) ]
  | Unsat { rsp_tag } ->
      Json.Obj
        (("status", Json.Str "unsat")
        :: opt_field "tag" (Option.map (fun t -> Json.Str t) rsp_tag))
  | Error_msg m ->
      Json.Obj [ ("status", Json.Str "error"); ("message", Json.Str m) ]
  | Metrics { values; info } ->
      Json.Obj
        [
          ("status", Json.Str "metrics");
          ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values));
          ("info", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) info));
        ]
  | Window_report w ->
      let fp_json f =
        Json.Obj
          [
            ("fingerprint", Json.Str f.fp);
            ("requests", Json.Int f.fp_requests);
            ("hits", Json.Int f.fp_hits);
            ("misses", Json.Int f.fp_misses);
            ("p50_ms", Json.Float f.fp_p50_ms);
            ("p90_ms", Json.Float f.fp_p90_ms);
            ("p99_ms", Json.Float f.fp_p99_ms);
          ]
      in
      Json.Obj
        [
          ("status", Json.Str "window_report");
          ("window_s", Json.Float w.window_s);
          ("uptime_s", Json.Float w.uptime_s);
          ("jobs", Json.Int w.jobs);
          ("in_flight", Json.Int w.w_in_flight);
          ("queued", Json.Int w.w_queued);
          ("ocaml_version", Json.Str w.ocaml_version);
          ("requests", Json.Int w.w_requests);
          ("rate_per_s", Json.Float w.rate_per_s);
          ("deadline_misses", Json.Int w.w_deadline_misses);
          ("hits", Json.Int w.w_hits);
          ("misses", Json.Int w.w_misses);
          ("p50_ms", Json.Float w.p50_ms);
          ("p90_ms", Json.Float w.p90_ms);
          ("p99_ms", Json.Float w.p99_ms);
          ("queue_p50_ms", Json.Float w.queue_p50_ms);
          ("queue_p90_ms", Json.Float w.queue_p90_ms);
          ("queue_p99_ms", Json.Float w.queue_p99_ms);
          ("per_fp", Json.List (List.map fp_json w.per_fp));
        ]
  | Bye -> Json.Obj [ ("status", Json.Str "bye") ]

let response_of_json j =
  match Json.get_string "status" j with
  | "ok" ->
      Ok_sample
        {
          fingerprint = Json.get_string "fingerprint" j;
          cache = cache_source_of_string (Json.get_string "cache" j);
          witnesses =
            List.map
              (function
                | Json.List lits -> List.map Json.to_int lits
                | _ -> raise (Json.Decode_error "witness: expected an array"))
              (Json.get_list "witnesses" j);
          produced = Json.get_int "produced" j;
          requested = Json.get_int "requested" j;
          queue_wait_s = Json.get_float "queue_wait_ms" j /. 1000.0;
          rsp_tag = Json.opt_string "tag" j;
          rsp_trace_id =
            (match Json.opt_string "trace_id" j with Some t -> t | None -> "");
        }
  | "rejected" ->
      Rejected
        {
          reason = reject_reason_of_string (Json.get_string "reason" j);
          retry_after_s = Json.get_float "retry_after_ms" j /. 1000.0;
        }
  | "deadline_miss" -> Deadline_miss { rsp_tag = Json.opt_string "tag" j }
  | "cancelled" -> Cancelled { rsp_tag = Json.opt_string "tag" j }
  | "cancel_result" -> Cancel_result (Json.get_bool "found" j)
  | "unsat" -> Unsat { rsp_tag = Json.opt_string "tag" j }
  | "error" -> Error_msg (Json.get_string "message" j)
  | "metrics" ->
      let values =
        match Json.member "values" j with
        | Some (Json.Obj kvs) ->
            List.map
              (fun (k, v) ->
                match v with
                | Json.Float f -> (k, f)
                | Json.Int i -> (k, float_of_int i)
                | _ -> raise (Json.Decode_error "metrics: expected numbers"))
              kvs
        | _ -> raise (Json.Decode_error "metrics: missing values")
      in
      let info =
        match Json.member "info" j with
        | Some (Json.Obj kvs) ->
            List.map
              (fun (k, v) ->
                match v with
                | Json.Str s -> (k, s)
                | _ -> raise (Json.Decode_error "metrics: expected strings"))
              kvs
        | None -> []
        | _ -> raise (Json.Decode_error "metrics: malformed info")
      in
      Metrics { values; info }
  | "window_report" ->
      let fp_of_json fj =
        {
          fp = Json.get_string "fingerprint" fj;
          fp_requests = Json.get_int "requests" fj;
          fp_hits = Json.get_int "hits" fj;
          fp_misses = Json.get_int "misses" fj;
          fp_p50_ms = Json.get_float "p50_ms" fj;
          fp_p90_ms = Json.get_float "p90_ms" fj;
          fp_p99_ms = Json.get_float "p99_ms" fj;
        }
      in
      Window_report
        {
          window_s = Json.get_float "window_s" j;
          uptime_s = Json.get_float "uptime_s" j;
          jobs = Json.get_int "jobs" j;
          w_in_flight = Json.get_int "in_flight" j;
          w_queued = Json.get_int "queued" j;
          ocaml_version = Json.get_string "ocaml_version" j;
          w_requests = Json.get_int "requests" j;
          rate_per_s = Json.get_float "rate_per_s" j;
          w_deadline_misses = Json.get_int "deadline_misses" j;
          w_hits = Json.get_int "hits" j;
          w_misses = Json.get_int "misses" j;
          p50_ms = Json.get_float "p50_ms" j;
          p90_ms = Json.get_float "p90_ms" j;
          p99_ms = Json.get_float "p99_ms" j;
          queue_p50_ms = Json.get_float "queue_p50_ms" j;
          queue_p90_ms = Json.get_float "queue_p90_ms" j;
          queue_p99_ms = Json.get_float "queue_p99_ms" j;
          per_fp = List.map fp_of_json (Json.get_list "per_fp" j);
        }
  | "bye" -> Bye
  | s -> raise (Json.Decode_error ("unknown status " ^ s))
