(* Chrome trace_event sink. The enabled flag is an atomic read on the
   hot no-op path; actual emission formats into a private buffer and
   appends to the channel under the sink mutex. *)

(* Single clock-swap point. [Unix.gettimeofday] has microsecond
   resolution but may step backwards under NTP adjustment; span
   durations and trace timestamps must never go negative, so the raw
   reading is clamped through a process-wide high-water mark (CAS loop
   over a boxed float — the compare uses the physically identical
   value just read, so the loop is ABA-safe). The result is a
   monotone non-decreasing clock shared by every domain. *)
let clock_high_water = Atomic.make 0.0

let now_us () =
  let t = Unix.gettimeofday () *. 1e6 in
  let rec clamp () =
    let prev = Atomic.get clock_high_water in
    if t <= prev then prev
    else if Atomic.compare_and_set clock_high_water prev t then t
    else clamp ()
  in
  clamp ()

type sink = { oc : out_channel; lock : Mutex.t; t0 : float; mutable first : bool }

let enabled = Atomic.make false
let current : sink option ref = ref None

let is_enabled () = Atomic.get enabled

let enable_file path =
  (match !current with Some _ -> invalid_arg "Trace.enable_file: already enabled" | None -> ());
  let oc = open_out path in
  output_string oc "[";
  current := Some { oc; lock = Mutex.create (); t0 = now_us (); first = true };
  Atomic.set enabled true

let close () =
  match !current with
  | None -> ()
  | Some s ->
      Atomic.set enabled false;
      Mutex.lock s.lock;
      output_string s.oc "\n]\n";
      close_out s.oc;
      Mutex.unlock s.lock;
      current := None

(* ------------------------------------------------------------------ *)
(* Request correlation. The current trace id is ambient, per-domain
   state: a request executor wraps the whole execution in
   [with_trace_id], and every span emitted underneath — on whichever
   domain runs it — carries the id as a [trace_id] arg, so one Chrome
   trace query shows a request's full lifecycle across lanes. *)

let trace_id_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_trace_id () = !(Domain.DLS.get trace_id_key)

let with_trace_id id f =
  let cell = Domain.DLS.get trace_id_key in
  let saved = !cell in
  cell := id;
  Fun.protect ~finally:(fun () -> cell := saved) f

let emit ?id ~ph ~cat ~name ~args () =
  match !current with
  | None -> ()
  | Some s ->
      (* the ambient id rides along as an ordinary arg so span events
         stay greppable by trace id without changing their shape *)
      let args =
        match current_trace_id () with
        | Some tid when not (List.mem_assoc "trace_id" args) ->
            args @ [ ("trace_id", tid) ]
        | _ -> args
      in
      let b = Buffer.create 128 in
      Buffer.add_string b "\n{\"name\":\"";
      Json_codec.escape_into b name;
      Buffer.add_string b "\",\"cat\":\"";
      Json_codec.escape_into b cat;
      Buffer.add_string b "\",\"ph\":\"";
      Buffer.add_char b ph;
      Buffer.add_string b "\"";
      (match id with
      | None -> ()
      | Some id ->
          Buffer.add_string b ",\"id\":\"";
          Json_codec.escape_into b id;
          Buffer.add_string b "\"");
      Buffer.add_string b ",\"pid\":0,\"tid\":";
      Buffer.add_string b (string_of_int (Domain.self () :> int));
      Buffer.add_string b ",\"ts\":";
      Buffer.add_string b (Printf.sprintf "%.3f" (now_us () -. s.t0));
      (match args with
      | [] -> ()
      | args ->
          Buffer.add_string b ",\"args\":{";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_char b '"';
              Json_codec.escape_into b k;
              Buffer.add_string b "\":\"";
              Json_codec.escape_into b v;
              Buffer.add_char b '"')
            args;
          Buffer.add_char b '}');
      Buffer.add_char b '}';
      Mutex.lock s.lock;
      if s.first then s.first <- false else output_char s.oc ',';
      Buffer.output_buffer s.oc b;
      Mutex.unlock s.lock

let instant ?(cat = "pipeline") ?(args = []) name =
  if Atomic.get enabled then emit ~ph:'i' ~cat ~name ~args ()

(* Async begin/end pairs ([ph] 'b'/'e'): unlike [span], the two ends
   may be emitted from different call sites — and different domains —
   so a phase without a lexical scope (queue wait between submission
   and dispatch) still renders as one bar. Chrome associates the pair
   by (cat, id, name); [bin/lint.ml]'s unmatched-span rule checks every
   [span_begin] name literal has a [span_end] site. *)

let span_begin ?(cat = "pipeline") ?(args = []) ~id name =
  if Atomic.get enabled then emit ~id ~ph:'b' ~cat ~name ~args ()

let span_end ?(cat = "pipeline") ?(args = []) ~id name =
  if Atomic.get enabled then emit ~id ~ph:'e' ~cat ~name ~args ()

let span ?(cat = "pipeline") ?(args = []) name f =
  let tracing = Atomic.get enabled in
  let metrics = Metrics.is_enabled () in
  if not (tracing || metrics) then f ()
  else begin
    let t0 = now_us () in
    if tracing then emit ~ph:'B' ~cat ~name ~args ();
    let finish () =
      let dt = now_us () -. t0 in
      if tracing then emit ~ph:'E' ~cat ~name ~args:[] ();
      if metrics then Metrics.add_span name (dt *. 1e-6)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end
