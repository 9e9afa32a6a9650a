(* Tests for the observability layer: histogram merge laws (the
   algebra that makes domain-sharded aggregation lossless), the
   sharding machinery itself across real domains, report rendering,
   and a golden check that a traced run emits well-formed Chrome
   trace_event JSON. *)

module J = Json_codec

(* [mem key v]: does [key] occur as an object member anywhere in [v]? *)
let rec mem key = function
  | J.Obj fields -> List.exists (fun (k, v) -> k = key || mem key v) fields
  | J.List vs -> List.exists (mem key) vs
  | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.Str _ -> false

(* ------------------------------------------------------------------ *)
(* Hist merge laws (qcheck) *)

let hist_of_list vs = List.fold_left Obs.Metrics.Hist.observe Obs.Metrics.Hist.empty vs

(* sums are compared up to float re-association error *)
let hist_eq (a : Obs.Metrics.Hist.data) (b : Obs.Metrics.Hist.data) =
  let sa = a.Obs.Metrics.Hist.sum and sb = b.Obs.Metrics.Hist.sum in
  a.Obs.Metrics.Hist.count = b.Obs.Metrics.Hist.count
  && Float.abs (sa -. sb) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs sa) (Float.abs sb))
  && a.Obs.Metrics.Hist.buckets = b.Obs.Metrics.Hist.buckets

(* Observations as a sampler would produce them: wall times, cell
   sizes, the odd zero/negative/huge outlier. *)
let obs_gen =
  QCheck2.Gen.(
    oneof
      [
        float_bound_inclusive 2.0;
        map (fun n -> float_of_int n) (int_bound 1_000_000);
        map (fun f -> -.f) (float_bound_inclusive 1.0);
        return 0.0;
        return infinity;
        return nan;
      ])

let shard_gen = QCheck2.Gen.(list_size (int_bound 40) obs_gen)

let prop_merge_commutative =
  QCheck2.Test.make ~count:200 ~name:"Hist.merge commutative"
    QCheck2.Gen.(pair shard_gen shard_gen)
    (fun (xs, ys) ->
      let a = hist_of_list xs and b = hist_of_list ys in
      hist_eq (Obs.Metrics.Hist.merge a b) (Obs.Metrics.Hist.merge b a))

let prop_merge_associative =
  QCheck2.Test.make ~count:200 ~name:"Hist.merge associative"
    QCheck2.Gen.(triple shard_gen shard_gen shard_gen)
    (fun (xs, ys, zs) ->
      let a = hist_of_list xs and b = hist_of_list ys and c = hist_of_list zs in
      hist_eq
        (Obs.Metrics.Hist.merge a (Obs.Metrics.Hist.merge b c))
        (Obs.Metrics.Hist.merge (Obs.Metrics.Hist.merge a b) c))

let prop_merge_empty_neutral =
  QCheck2.Test.make ~count:200 ~name:"Hist.merge empty neutral"
    shard_gen
    (fun xs ->
      let a = hist_of_list xs in
      hist_eq (Obs.Metrics.Hist.merge a Obs.Metrics.Hist.empty) a
      && hist_eq (Obs.Metrics.Hist.merge Obs.Metrics.Hist.empty a) a)

(* Sharded observation then merge = observing everything in one shard:
   exactly the claim snapshot/compact_shards rely on. *)
let prop_merge_is_concat =
  QCheck2.Test.make ~count:200 ~name:"Hist.merge == observe concatenation"
    QCheck2.Gen.(pair shard_gen shard_gen)
    (fun (xs, ys) ->
      hist_eq
        (Obs.Metrics.Hist.merge (hist_of_list xs) (hist_of_list ys))
        (hist_of_list (xs @ ys)))

(* Quantiles of a log₂ histogram are bucket upper edges, so they are
   monotone in q by construction — the law the monitor's p50 ≤ p90 ≤
   p99 display relies on. *)
let prop_quantile_monotone =
  QCheck2.Test.make ~count:200 ~name:"Hist.quantile monotone in q"
    shard_gen
    (fun xs ->
      let d = hist_of_list xs in
      let q50 = Obs.Metrics.Hist.quantile d 0.5 in
      let q90 = Obs.Metrics.Hist.quantile d 0.9 in
      let q99 = Obs.Metrics.Hist.quantile d 0.99 in
      q50 <= q90 && q90 <= q99)

let test_bucket_edges () =
  Alcotest.(check int) "zero -> bucket 0" 0 (Obs.Metrics.Hist.bucket_of 0.0);
  Alcotest.(check int) "negative -> bucket 0" 0 (Obs.Metrics.Hist.bucket_of (-3.0));
  Alcotest.(check int) "nan -> bucket 0" 0 (Obs.Metrics.Hist.bucket_of Float.nan);
  Alcotest.(check int) "huge -> last bucket"
    (Obs.Metrics.Hist.num_buckets - 1)
    (Obs.Metrics.Hist.bucket_of 1e300);
  (* monotone in v *)
  let rec check_monotone prev v =
    if v < 1e12 then begin
      let b = Obs.Metrics.Hist.bucket_of v in
      if b < prev then Alcotest.failf "bucket_of not monotone at %g" v;
      check_monotone b (v *. 1.7)
    end
  in
  check_monotone 0 1e-12

(* ------------------------------------------------------------------ *)
(* Rolling windows: the ring's expiry algebra against a reference
   model. Every Window operation takes ~now explicitly, so the
   structure is a pure function of the observation sequence. *)

(* (time increment, value) pairs; increments span several bucket
   widths so sequences regularly cross and outrun the ring *)
let window_ops_gen =
  QCheck2.Gen.(
    list_size (int_bound 60)
      (pair (float_bound_inclusive 25.0) (float_bound_inclusive 2.0)))

(* "sum of live buckets = snapshot": replay the same observations into
   a flat log and keep exactly those whose epoch lies in
   (current - buckets, current] — the snapshot must be their histogram. *)
let prop_window_snapshot_is_live_sum =
  QCheck2.Test.make ~count:200 ~name:"Window.snapshot = sum of live epochs"
    window_ops_gen
    (fun ops ->
      let w = Obs.Window.create ~buckets:4 ~bucket_s:5.0 () in
      let now = ref 100.0 in
      let log = ref [] in
      List.iter
        (fun (dt, v) ->
          now := !now +. dt;
          Obs.Window.observe w ~now:!now v;
          log := (Obs.Window.epoch_of w !now, v) :: !log)
        ops;
      let e = Obs.Window.epoch_of w !now in
      let n = Obs.Window.buckets w in
      let live =
        List.rev !log
        |> List.filter_map (fun (ep, v) ->
               if ep > e - n && ep <= e then Some v else None)
      in
      hist_eq (Obs.Window.snapshot w ~now:!now) (hist_of_list live)
      && Obs.Window.count w ~now:!now = List.length live)

(* "advance = drop-oldest": moving the clock one bucket forward
   removes exactly the oldest epoch's observations from the view,
   without touching the ring. *)
let test_window_advance_drops_oldest () =
  let w = Obs.Window.create ~buckets:3 ~bucket_s:1.0 () in
  Obs.Window.observe w ~now:10.2 1.0;
  Obs.Window.observe w ~now:11.2 1.0;
  Obs.Window.observe w ~now:12.2 1.0;
  Alcotest.(check int) "all three live" 3 (Obs.Window.count w ~now:12.2);
  Alcotest.(check int) "oldest epoch ages out" 2 (Obs.Window.count w ~now:13.2);
  Alcotest.(check int) "next epoch ages out" 1 (Obs.Window.count w ~now:14.2);
  Alcotest.(check int) "window empties" 0 (Obs.Window.count w ~now:15.2);
  (* a whole-ring jump expires everything at once, even though the
     slots still physically hold the stale epochs *)
  Obs.Window.observe w ~now:20.0 1.0;
  Alcotest.(check int) "full-ring jump leaves one" 1
    (Obs.Window.count w ~now:20.0);
  Alcotest.(check (float 1e-9)) "rate = count / span"
    (1.0 /. Obs.Window.span_s w)
    (Obs.Window.rate_per_s w ~now:20.0)

(* ------------------------------------------------------------------ *)
(* Domain-sharded counters: lossless across real domains *)

let test_shard_merge_across_domains () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.sharded" in
  let h = Obs.Metrics.histogram "test.obs.sharded_hist" in
  let per_domain = 5_000 in
  let work () =
    for i = 1 to per_domain do
      Obs.Metrics.incr c;
      if i mod 10 = 0 then Obs.Metrics.observe h (float_of_int i)
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join domains;
  Obs.Metrics.compact_shards ();
  let s = Obs.Metrics.snapshot () in
  Alcotest.(check int)
    "counter sums over all shards" (4 * per_domain)
    (List.assoc "test.obs.sharded" s.Obs.Metrics.counters);
  let hd = List.assoc "test.obs.sharded_hist" s.Obs.Metrics.histograms in
  Alcotest.(check int)
    "histogram count sums over all shards" (4 * (per_domain / 10))
    hd.Obs.Metrics.Hist.count;
  (* compacting twice must not double-count *)
  Obs.Metrics.compact_shards ();
  let s2 = Obs.Metrics.snapshot () in
  Alcotest.(check int) "compact_shards idempotent" (4 * per_domain)
    (List.assoc "test.obs.sharded" s2.Obs.Metrics.counters)

let test_disabled_records_nothing () =
  Obs.Metrics.reset ();
  Obs.Metrics.disable ();
  let c = Obs.Metrics.counter "test.obs.disabled" in
  Obs.Metrics.incr c ~by:42;
  Obs.Metrics.observe (Obs.Metrics.histogram "test.obs.disabled_hist") 1.0;
  Obs.Metrics.set_gauge "test.obs.disabled_gauge" 1.0;
  let s = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "no counter recorded" true
    (not (List.mem_assoc "test.obs.disabled" s.Obs.Metrics.counters));
  Alcotest.(check bool) "no histogram recorded" true
    (not (List.mem_assoc "test.obs.disabled_hist" s.Obs.Metrics.histograms));
  Alcotest.(check bool) "no gauge recorded" true
    (not (List.mem_assoc "test.obs.disabled_gauge" s.Obs.Metrics.gauges))

(* ------------------------------------------------------------------ *)
(* Report: span-prefixed histograms separate from value histograms *)

let test_report_sections () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  Obs.Metrics.observe (Obs.Metrics.histogram "test.obs.values") 8.0;
  Obs.Metrics.add_span "test.obs.phase" 0.25;
  let s = Obs.Metrics.snapshot () in
  let phases = Obs.Report.phase_fields s in
  Alcotest.(check bool) "span histogram appears in phases" true
    (List.mem_assoc "test.obs.phase" phases);
  Alcotest.(check bool) "value histogram stays out of phases" true
    (not (List.mem_assoc "test.obs.values" phases));
  let json =
    let r = Obs.Report.create ~host:true () in
    List.iter (fun (t, fs) -> Obs.Report.add_section r t fs)
      (Obs.Report.metrics_sections s);
    Obs.Report.to_json r
  in
  (* the report must embed host metadata and survive a JSON parse *)
  Alcotest.(check bool) "report mentions ocaml_version" true
    (String.length json > 0
    && mem "ocaml_version" (J.of_string json))

(* ------------------------------------------------------------------ *)
(* Golden: traced run emits well-formed Chrome trace JSON *)

let test_trace_file_well_formed () =
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.enable_file path;
  Obs.Trace.span ~cat:"test" "outer" (fun () ->
      Obs.Trace.instant ~args:[ ("k", "v\"quoted\"") ] "marker";
      Obs.Trace.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      (* a raising span must still close its event *)
      (try Obs.Trace.span "raising" (fun () -> failwith "boom")
       with Failure _ -> ()));
  Obs.Trace.close ();
  Alcotest.(check bool) "close idempotent" true
    (Obs.Trace.close (); not (Obs.Trace.is_enabled ()));
  let ic = open_in path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  let events =
    match J.of_string raw with
    | J.List evs -> evs
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  Alcotest.(check int) "3 B + 3 E + 1 instant" 7 (List.length events);
  let field ev k =
    match ev with
    | J.Obj fs -> List.assoc_opt k fs
    | _ -> Alcotest.fail "event is not an object"
  in
  let stack = ref [] in
  List.iter
    (fun ev ->
      (match (field ev "name", field ev "ts", field ev "pid", field ev "tid") with
      | Some (J.Str _), Some (J.Int _ | J.Float _),
        Some (J.Int _ | J.Float _), Some (J.Int _ | J.Float _) -> ()
      | _ -> Alcotest.fail "event missing name/ts/pid/tid");
      match field ev "ph" with
      | Some (J.Str "B") ->
          stack := field ev "name" :: !stack
      | Some (J.Str "E") -> (
          match !stack with
          | top :: rest ->
              Alcotest.(check bool) "E matches innermost B" true
                (top = field ev "name");
              stack := rest
          | [] -> Alcotest.fail "E without matching B")
      | Some (J.Str "i") -> ()
      | _ -> Alcotest.fail "unexpected ph")
    events;
  Alcotest.(check int) "all B events closed" 0 (List.length !stack)

(* ------------------------------------------------------------------ *)
(* One solver.solve span per enumeration, and a counter for the calls *)

(* The [ph] of every event named [name] in the trace file at [path]. *)
let phases_named path name =
  let ic = open_in path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string raw with
  | J.List evs ->
      List.filter_map
        (function
          | J.Obj fs when List.assoc_opt "name" fs = Some (J.Str name) -> (
              match List.assoc_opt "ph" fs with Some (J.Str ph) -> Some ph | _ -> None)
          | _ -> None)
        evs
  | _ -> Alcotest.fail "trace file is not a JSON array"

(* Every enumeration is one [solver.solve] B/E pair however many
   witnesses it finds, so a traced run's event count does not grow with
   the witnesses; [solver.solve_calls] still counts each call: one per
   witness, plus the Unsat call that exhausts the cell. *)
let test_one_solve_span_per_enumeration () =
  (* x1 v x2 v x3 v x4, sampled on all four variables: 15 witnesses; a
     one-row hash layer x1 + x2 = 1 leaves 8 of them in the cell *)
  let f = Cnf.Formula.create ~num_vars:4 [ Cnf.Clause.of_dimacs [ 1; 2; 3; 4 ] ] in
  let xors = [ Cnf.Xor_clause.make [ 1; 2 ] true ] in
  let calls () =
    Option.value ~default:0
      (List.assoc_opt "solver.solve_calls" (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
  in
  let traced enumerate =
    let path = Filename.temp_file "obs_solve" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Obs.Metrics.reset ();
    Obs.Metrics.enable ();
    Obs.Trace.enable_file path;
    let o =
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.close ();
          Obs.Metrics.disable ())
        enumerate
    in
    Alcotest.(check bool) "cell exhausted" true o.Sat.Bsat.exhausted;
    (List.length o.Sat.Bsat.models, phases_named path "solver.solve", calls ())
  in
  let check who (found, phases, n) ~expect =
    Alcotest.(check int) (who ^ ": witnesses") expect found;
    Alcotest.(check (list string)) (who ^ ": one B/E pair") [ "B"; "E" ] phases;
    Alcotest.(check int) (who ^ ": solve calls") (expect + 1) n
  in
  check "one-shot" ~expect:15 (traced (fun () -> Sat.Bsat.enumerate ~limit:100 f));
  let s = Sat.Bsat.Session.create f in
  check "session" ~expect:8
    (traced (fun () -> Sat.Bsat.Session.enumerate ~xors ~limit:100 s))

(* ------------------------------------------------------------------ *)
(* Golden: one request's spans share a trace id across domain lanes *)

let test_trace_id_across_lanes () =
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.enable_file path;
  (* the scheduler's shape in miniature: an async queue span opened on
     the owner, the request body on a worker domain, both tagged with
     one trace id *)
  Obs.Trace.span_begin ~cat:"test" ~id:"abc" "test.queue"
    ~args:[ ("trace_id", "abc") ];
  Obs.Trace.with_trace_id (Some "abc") (fun () ->
      Obs.Trace.span ~cat:"test" "test.owner" (fun () ->
          ignore (Sys.opaque_identity 1)));
  let worker =
    Domain.spawn (fun () ->
        Obs.Trace.with_trace_id (Some "abc") (fun () ->
            Obs.Trace.span ~cat:"test" "test.worker" (fun () ->
                ignore (Sys.opaque_identity 2))))
  in
  Domain.join worker;
  Obs.Trace.span_end ~cat:"test" ~id:"abc" "test.queue"
    ~args:[ ("trace_id", "abc") ];
  Obs.Trace.close ();
  let ic = open_in path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let events =
    match J.of_string raw with
    | J.List evs -> evs
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  let field ev k =
    match ev with
    | J.Obj fs -> List.assoc_opt k fs
    | _ -> Alcotest.fail "event is not an object"
  in
  let arg ev k =
    match field ev "args" with
    | Some (J.Obj fs) -> List.assoc_opt k fs
    | _ -> None
  in
  Alcotest.(check int) "b + 2B + 2E + e" 6 (List.length events);
  (* every event of the request carries the same trace id, whichever
     domain lane it was emitted from *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) "event tagged with the trace id" true
        (arg ev "trace_id" = Some (J.Str "abc")))
    events;
  (* the async pair is keyed by the id field *)
  List.iter
    (fun ev ->
      match field ev "ph" with
      | Some (J.Str ("b" | "e")) ->
          Alcotest.(check bool) "async events keyed by id" true
            (field ev "id" = Some (J.Str "abc"))
      | _ -> ())
    events;
  (* owner and worker spans really sit in different lanes *)
  let tid_of name =
    List.find_map
      (fun ev ->
        if
          field ev "name" = Some (J.Str name)
          && field ev "ph" = Some (J.Str "B")
        then field ev "tid"
        else None)
      events
  in
  match (tid_of "test.owner", tid_of "test.worker") with
  | Some a, Some b ->
      Alcotest.(check bool) "distinct domain lanes" true (a <> b)
  | _ -> Alcotest.fail "owner/worker spans missing"

(* ------------------------------------------------------------------ *)
(* Structured log: one JSON object per line with the leading schema
   keys, level filtering, idempotent close *)

let test_log_json_lines () =
  let path = Filename.temp_file "obs_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Log.enable_file path;
  Obs.Log.set_level Obs.Log.Info;
  Obs.Log.event "service.request"
    [
      ("trace_id", Obs.Report.String "req-1");
      ("outcome", Obs.Report.String "ok");
      ("queue_ms", Obs.Report.Float 0.5);
      ("cache", Obs.Report.String "miss");
    ];
  Obs.Log.event ~level:Obs.Log.Debug "dropped.by.level" [];
  Obs.Log.event ~level:Obs.Log.Warn "service.request"
    [ ("trace_id", Obs.Report.String "req-2") ];
  Obs.Log.close ();
  Obs.Log.close ();
  Alcotest.(check bool) "close disables" true (not (Obs.Log.is_enabled ()));
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  Alcotest.(check int) "debug line dropped" 2 (List.length lines);
  let objs = List.map J.of_string lines in
  List.iter
    (fun o ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (mem k o))
        [ "ts"; "level"; "event"; "trace_id" ])
    objs;
  match objs with
  | [ J.Obj first; J.Obj second ] ->
      Alcotest.(check bool) "info level" true
        (List.assoc_opt "level" first = Some (J.Str "info"));
      Alcotest.(check bool) "warn level" true
        (List.assoc_opt "level" second = Some (J.Str "warn"));
      Alcotest.(check bool) "typed field survives" true
        (List.assoc_opt "cache" first = Some (J.Str "miss"))
  | _ -> Alcotest.fail "expected two JSON object lines"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_merge_commutative;
            prop_merge_associative;
            prop_merge_empty_neutral;
            prop_merge_is_concat;
            prop_quantile_monotone;
          ]
        @ [ Alcotest.test_case "bucket edges" `Quick test_bucket_edges ] );
      ( "window",
        [
          QCheck_alcotest.to_alcotest prop_window_snapshot_is_live_sum;
          Alcotest.test_case "advance drops oldest" `Quick
            test_window_advance_drops_oldest;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "shard merge across domains" `Quick
            test_shard_merge_across_domains;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "report",
        [ Alcotest.test_case "sections and json" `Quick test_report_sections ] );
      ( "trace",
        [
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_trace_file_well_formed;
          Alcotest.test_case "trace id across domain lanes" `Quick
            test_trace_id_across_lanes;
          Alcotest.test_case "one solver.solve span per enumeration" `Quick
            test_one_solve_span_per_enumeration;
        ] );
      ( "log",
        [ Alcotest.test_case "json lines and levels" `Quick test_log_json_lines ]
      );
    ]
