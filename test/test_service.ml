(* Tests for the sampling service subsystem (lib/service): LRU cache
   semantics, content-addressed registry canonicalization, scheduler
   policy (backpressure, deadlines, fairness, cancellation), the wire
   codec, and the determinism contract — service-path witnesses must
   be bit-identical to offline [Unigen.sample_batch] for the same
   seeds, on both cache hit and cache miss. *)

module Lru = Service.Lru
module Registry = Service.Registry
module Cache = Service.Cache
module Scheduler = Service.Scheduler
module Wire = Service.Wire
module Json = Service.Json
module Spill = Service.Spill
module Client = Service.Client

open Service_fixtures

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (list string)) "mru order" [ "b"; "a" ] (Lru.keys_mru c);
  (* touching [a] protects it; the next insertion evicts [b] *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Lru.put c "c" 3;
  Alcotest.(check (list string)) "b evicted" [ "c"; "a" ] (Lru.keys_mru c);
  Alcotest.(check (list string)) "evict callback" [ "b" ] !evicted;
  Alcotest.(check (option int)) "b gone" None (Lru.find c "b");
  Alcotest.(check int) "length" 2 (Lru.length c)

let test_lru_capacity_edge_cases () =
  (* capacity 0: nothing is ever resident *)
  let evicted = ref 0 in
  let c0 = Lru.create ~on_evict:(fun _ _ -> incr evicted) ~capacity:0 () in
  Lru.put c0 "a" 1;
  Alcotest.(check int) "cap0 empty" 0 (Lru.length c0);
  Alcotest.(check (option int)) "cap0 miss" None (Lru.find c0 "a");
  Alcotest.(check int) "cap0 evicted immediately" 1 !evicted;
  (* capacity 1: every insertion displaces the previous entry *)
  let c1 = Lru.create ~capacity:1 () in
  Lru.put c1 "a" 1;
  Lru.put c1 "b" 2;
  Alcotest.(check (list string)) "cap1 single" [ "b" ] (Lru.keys_mru c1);
  Alcotest.(check (option int)) "cap1 hit" (Some 2) (Lru.find c1 "b");
  (* replacement of the resident key is not an eviction *)
  Lru.put c1 "b" 9;
  Alcotest.(check (option int)) "cap1 replace" (Some 9) (Lru.find c1 "b");
  Alcotest.(check bool) "negative capacity rejected" true
    (match Lru.create ~capacity:(-1) () with
    | exception Invalid_argument _ -> true
    | (_ : (string, int) Lru.t) -> false)

let test_lru_reput_and_remove () =
  let c = Lru.create ~capacity:3 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  (* re-put under a resident key updates the value and counts as a
     touch *)
  Lru.put c "a" 10;
  Alcotest.(check (option int)) "value replaced" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "still three entries" 3 (Lru.length c);
  Alcotest.(check (list string)) "re-put is a touch" [ "a"; "c"; "b" ]
    (Lru.keys_mru c);
  (* the next insertion evicts the LRU end *)
  Lru.put c "d" 4;
  Alcotest.(check (list string)) "LRU evicted" [ "d"; "a"; "c" ]
    (Lru.keys_mru c);
  Alcotest.(check (option int)) "b gone" None (Lru.find c "b");
  (* explicit removal; a second one finds nothing *)
  Alcotest.(check bool) "remove c" true (Lru.remove c "c");
  Alcotest.(check bool) "remove is once" false (Lru.remove c "c");
  Alcotest.(check (list string)) "c gone" [ "d"; "a" ] (Lru.keys_mru c);
  (* a removed key re-enters as a fresh MRU entry *)
  Lru.put c "c" 30;
  Alcotest.(check (list string)) "re-inserted at MRU" [ "c"; "d"; "a" ]
    (Lru.keys_mru c);
  Alcotest.(check (option int)) "new value" (Some 30) (Lru.find c "c")

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_fingerprint_invariance () =
  (* same formula modulo clause order, literal order, duplicate
     literals/clauses, a tautology, and sampling-set order *)
  let a =
    formula_of_string
      "p cnf 5 4\nc ind 1 2 3 0\n1 2 0\n-2 3 0\nx 1 -4 5 0\n4 -4 5 0\n"
  in
  let b =
    formula_of_string
      "p cnf 5 4\nc ind 3 1 2 2 0\n-2 3 0\n2 1 1 0\nx -4 1 5 0\n"
  in
  Alcotest.(check string)
    "equivalent formulas share a fingerprint" (Registry.fingerprint a)
    (Registry.fingerprint b);
  let c = formula_of_string "p cnf 5 2\nc ind 1 2 3 0\n1 2 0\n-2 4 0\n" in
  Alcotest.(check bool)
    "different formulas differ" false
    (String.equal (Registry.fingerprint a) (Registry.fingerprint c));
  (* declared-vs-absent sampling set is a different identity *)
  let d = formula_of_string "p cnf 5 2\n1 2 0\n-2 3 0\n" in
  let d' = formula_of_string "p cnf 5 2\nc ind 1 2 3 4 5 0\n1 2 0\n-2 3 0\n" in
  Alcotest.(check bool)
    "absent vs full sampling set differ" false
    (String.equal (Registry.fingerprint d) (Registry.fingerprint d'))

let test_registry_canonical_idempotent () =
  let f =
    formula_of_string "p cnf 6 4\nc ind 2 1 0\n3 -3 1 0\n2 2 -5 0\nx -1 6 0\n1 -5 2 0\n"
  in
  let once = Registry.canonical f in
  let twice = Registry.canonical once in
  Alcotest.(check string) "canonical is idempotent"
    (Cnf.Dimacs.to_string once) (Cnf.Dimacs.to_string twice);
  Alcotest.(check string) "serialize matches canonical"
    (Registry.serialize f) (Registry.serialize once)

let test_registry_identify () =
  let a = formula_of_string "p cnf 3 2\n1 2 0\n-1 3 0\n" in
  let b = formula_of_string "p cnf 3 2\n-1 3 0\n2 1 0\n" in
  let fp_a, can_a = Registry.identify a in
  let fp_b, can_b = Registry.identify b in
  Alcotest.(check string) "same address" fp_a fp_b;
  Alcotest.(check string) "equal canonical forms" (Cnf.Dimacs.to_string can_a)
    (Cnf.Dimacs.to_string can_b);
  Alcotest.(check string) "address is the fingerprint" (Registry.fingerprint a) fp_a;
  Alcotest.(check string) "form is the canonical form"
    (Cnf.Dimacs.to_string (Registry.canonical a)) (Cnf.Dimacs.to_string can_a)

(* Golden vectors: the serialized form and MD5 content address of
   fixed formulas, locked against checked-in constants. Durable spill
   entries are keyed by fingerprints, so these values are the on-disk
   compatibility contract — if this test breaks, the canonicalization
   changed, and [Registry.version] must be bumped so stale spill
   entries invalidate themselves instead of resurrecting under a new
   meaning of the same address. *)
let test_registry_golden_vectors () =
  Alcotest.(check string) "registry version" "unigen-registry-v1"
    Registry.version;
  List.iter
    (fun (label, text, serialized, md5) ->
      let f = formula_of_string text in
      Alcotest.(check string) (label ^ ": serialized form") serialized
        (Registry.serialize f);
      Alcotest.(check string) (label ^ ": content address") md5
        (Registry.fingerprint f))
    [
      ( "clauses",
        "p cnf 4 3\nc ind 1 2 3 0\n3 2 1 0\n-1 4 0\n-1 4 0\n",
        "unigen-registry-v1\np cnf 4 2\nc ind 1 2 3 0\n-1 4 0\n1 2 3 0\n",
        "98a0a7f5fd4f61ab876ebfa29d986391" );
      ( "xor rows",
        "p cnf 5 2\nc ind 1 2 0\n1 -2 0\nx 5 3 4 0\n",
        "unigen-registry-v1\np cnf 5 2\nc ind 1 2 0\n1 -2 0\nx 3 4 5 0\n",
        "d7e9c111c2737029590590f6e17c462d" );
      ( "absent sampling set",
        "p cnf 3 2\n1 2 0\n-2 3 0\n",
        "unigen-registry-v1\np cnf 3 2\n1 2 0\n-2 3 0\n",
        "01dbf3be098a7eca9c89a15a45dd087d" );
    ]

(* The DIMACS round-trip property: parse ∘ print is the identity up to
   canonical ordering — which is exactly fingerprint equality. This is
   the specification the registry's canonicalization is held to,
   XOR (`x`-line) clauses and sampling sets included. *)
let prop_dimacs_roundtrip_canonical =
  QCheck2.Test.make ~count:300 ~name:"dimacs roundtrip = id modulo canonical order"
    Test_util.Gen.formula_spec (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let f = Cnf.Formula.with_sampling_set f [ 1 ] in
      let reparsed = Cnf.Dimacs.parse_string (Cnf.Dimacs.to_string f) in
      String.equal (Registry.fingerprint f) (Registry.fingerprint reparsed))

let prop_canonical_preserves_models =
  QCheck2.Test.make ~count:120 ~name:"canonicalization preserves the model set"
    Test_util.Gen.formula_spec (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      let g = Registry.canonical f in
      (* enumerate by brute force over all assignments (num_vars <= 12) *)
      let n = f.Cnf.Formula.num_vars in
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let value v = mask land (1 lsl (v - 1)) <> 0 in
        if Cnf.Formula.eval f value <> Cnf.Formula.eval g value then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let test_wire_framing_incremental () =
  let payloads = [ "hello"; ""; String.make 100_000 'x'; "{\"op\":\"status\"}" ] in
  let stream = String.concat "" (List.map Wire.encode_frame payloads) in
  let d = Wire.Decoder.create () in
  let out = ref [] in
  (* feed a byte at a time: frames must reassemble across chunk splits *)
  String.iter
    (fun ch ->
      Wire.Decoder.feed d (Bytes.make 1 ch) 1;
      let rec drain () =
        match Wire.Decoder.next d with
        | Some p ->
            out := p :: !out;
            drain ()
        | None -> ()
      in
      drain ())
    stream;
  Alcotest.(check (list string)) "frames reassemble" payloads (List.rev !out);
  Alcotest.(check int) "fully consumed" 0 (Wire.Decoder.buffered d);
  (* an oversized length prefix is rejected before buffering *)
  let d2 = Wire.Decoder.create () in
  Wire.Decoder.feed d2 (Bytes.of_string "\xff\xff\xff\xff") 4;
  Alcotest.check_raises "oversized frame" (Wire.Frame_error "frame exceeds max_frame")
    (fun () -> ignore (Wire.Decoder.next d2 : string option))

let test_wire_rejects_bad_count_iterations () =
  (* the iteration count reaches ApproxMC unchecked otherwise, where a
     value below 1 is a caller error *)
  let payload c =
    Printf.sprintf {|{"op": "sample", "formula": "p cnf 1 0\n", "n": 1, "count_iterations": %d}|} c
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "count_iterations %d" c)
        true
        (match Wire.request_of_json (Json.of_string (payload c)) with
        | _ -> false
        | exception Json.Decode_error _ -> true))
    [ 0; -2 ];
  match Wire.request_of_json (Json.of_string (payload 1)) with
  | Wire.Sample { Wire.count_iterations = Some 1; _ } -> ()
  | _ -> Alcotest.fail "count_iterations 1 should decode"

let test_wire_json_roundtrip () =
  let reqs =
    [
      Wire.Sample
        {
          Wire.formula_text = "p cnf 2 1\n1 -2 0\n";
          n = 5;
          seed = 42;
          prepare_seed = 7;
          epsilon = 3.5;
          count_iterations = Some 9;
          timeout_s = Some 1.5;
          max_attempts = 11;
          tag = Some "job-\"1\"\n";
          trace_id = Some "trace-abc";
        };
      Wire.Sample Wire.default_sample_req;
      Wire.Cancel "t1";
      Wire.Status;
      Wire.Window;
      Wire.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let r' =
        Wire.request_of_json (Json.of_string (Json.to_string (Wire.request_to_json r)))
      in
      Alcotest.(check bool) "request roundtrip" true (r = r'))
    reqs;
  let resps =
    [
      Wire.Ok_sample
        {
          Wire.fingerprint = "abc";
          cache = Wire.Cache_ram;
          witnesses = [ [ 1; -2; 3 ]; [ -1; 2; -3 ] ];
          produced = 2;
          requested = 3;
          queue_wait_s = 0.25;
          rsp_tag = Some "t";
          rsp_trace_id = "trace-abc";
        };
      Wire.Rejected { reason = Wire.Queue_full; retry_after_s = 0.5 };
      Wire.Rejected { reason = Wire.Batch_too_large; retry_after_s = 0.0 };
      Wire.Rejected { reason = Wire.Draining; retry_after_s = 0.0 };
      Wire.Deadline_miss { rsp_tag = None };
      Wire.Cancelled { rsp_tag = Some "x" };
      Wire.Cancel_result true;
      Wire.Unsat { rsp_tag = None };
      Wire.Error_msg "boom";
      Wire.Metrics
        {
          values = [ ("service.requests", 3.0); ("service.queue_depth", 0.0) ];
          info = [ ("ocaml_version", "5.1.0"); ("shard", "0/2") ];
        };
      Wire.Window_report
        {
          Wire.window_s = 120.0;
          uptime_s = 3.5;
          jobs = 2;
          w_in_flight = 1;
          w_queued = 0;
          ocaml_version = "5.1.0";
          w_requests = 7;
          rate_per_s = 0.25;
          w_deadline_misses = 1;
          w_hits = 4;
          w_misses = 3;
          p50_ms = 8.0;
          p90_ms = 16.0;
          p99_ms = 32.0;
          queue_p50_ms = 0.5;
          queue_p90_ms = 1.0;
          queue_p99_ms = 2.0;
          per_fp =
            [
              {
                Wire.fp = "abc123";
                fp_requests = 7;
                fp_hits = 4;
                fp_misses = 3;
                fp_p50_ms = 8.0;
                fp_p90_ms = 16.0;
                fp_p99_ms = 32.0;
              };
            ];
        };
      Wire.Bye;
    ]
  in
  List.iter
    (fun r ->
      let r' =
        Wire.response_of_json (Json.of_string (Json.to_string (Wire.response_to_json r)))
      in
      Alcotest.(check bool) "response roundtrip" true (r = r'))
    resps

(* ------------------------------------------------------------------ *)
(* Scheduler helpers *)

let sample_request ?(n = 3) ?(seed = 1) ?(prepare_seed = 1) ?(epsilon = 6.0)
    ?count_iterations ?timeout_s ?tag ?trace_id formula =
  {
    Scheduler.formula;
    n;
    seed;
    prepare_seed;
    epsilon;
    count_iterations;
    timeout_s;
    max_attempts = 20;
    tag;
    trace_id;
  }

let submit_ok sched req =
  match Scheduler.submit sched req with
  | Ok id -> id
  | Error _ -> Alcotest.fail "submission unexpectedly rejected"

(* One request at a time through the executor: dispatch, then wait on
   the notify pipe until it completes. [None] when nothing was
   runnable. *)
let step sched =
  ignore (Scheduler.dispatch sched : int);
  let rec await () =
    match Scheduler.completions sched with
    | [ c ] -> Some c
    | [] when Scheduler.in_flight sched = 0 -> None
    | [] ->
        ignore (Unix.select [ Scheduler.notify_fd sched ] [] [] 1.0);
        await ()
    | _ -> Alcotest.fail "step: more than one request completed"
  in
  await ()

let step_ok sched =
  match step sched with
  | Some c -> c
  | None -> Alcotest.fail "expected a pending request"

let with_sched ?(config = Scheduler.default_config) f =
  let sched = Scheduler.create ~config () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () -> f sched)

(* The scheduler has settled: its own gauges read nothing in flight and
   nothing queued. Metrics must be enabled before the scheduler runs. *)
let check_settled label =
  let gauges = (Obs.Metrics.snapshot ()).Obs.Metrics.gauges in
  List.iter
    (fun g ->
      Alcotest.(check (option (float 0.0))) (label ^ ": " ^ g) (Some 0.0)
        (List.assoc_opt g gauges))
    [ "service.in_flight"; "service.queue_depth" ]

(* ------------------------------------------------------------------ *)
(* Scheduler policy *)

let test_scheduler_backpressure () =
  with_sched ~config:{ Scheduler.default_config with Scheduler.queue_capacity = 2 }
  @@ fun sched ->
  let f = formula_of_string formula_a in
  ignore (submit_ok sched (sample_request f) : int);
  ignore (submit_ok sched (sample_request f) : int);
  Alcotest.(check int) "queue full" 2 (Scheduler.pending sched);
  (* third submission exceeds the admission queue: reject-with-retry *)
  (match Scheduler.submit sched (sample_request f) with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error { Scheduler.reason; retry_after_s } ->
      Alcotest.(check string) "reason" "queue_full"
        (Wire.reject_reason_to_string reason);
      Alcotest.(check bool) "retry hint positive" true (retry_after_s > 0.0));
  (* draining one slot re-opens admission *)
  ignore (step_ok sched);
  (match Scheduler.submit sched (sample_request f) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "admission should re-open after step");
  (* sample budget cap *)
  match
    Scheduler.submit sched
      (sample_request ~n:(Scheduler.default_config.Scheduler.max_batch + 1) f)
  with
  | Ok _ -> Alcotest.fail "expected budget rejection"
  | Error { Scheduler.reason; _ } ->
      Alcotest.(check string) "budget reason" "batch_too_large"
        (Wire.reject_reason_to_string reason)

let test_scheduler_deadline_miss () =
  with_sched @@ fun sched ->
  let f = formula_of_string formula_a in
  let id = submit_ok sched (sample_request ~timeout_s:(-0.001) ~tag:"late" f) in
  let id', resp = step_ok sched in
  Alcotest.(check int) "same id" id id';
  (match resp with
  | Wire.Deadline_miss { rsp_tag } ->
      Alcotest.(check (option string)) "tag echoed" (Some "late") rsp_tag
  | _ -> Alcotest.fail "expected a deadline miss");
  (* a generous deadline sails through *)
  ignore (submit_ok sched (sample_request ~timeout_s:600.0 f) : int);
  match step_ok sched with
  | _, Wire.Ok_sample r ->
      Alcotest.(check int) "produced within deadline" 3 r.Wire.produced
  | _ -> Alcotest.fail "expected witnesses"

let test_scheduler_round_robin () =
  with_sched @@ fun sched ->
  let fa = formula_of_string formula_a in
  let fb = formula_of_string formula_b in
  let a1 = submit_ok sched (sample_request ~n:1 fa) in
  let a2 = submit_ok sched (sample_request ~n:1 fa) in
  let a3 = submit_ok sched (sample_request ~n:1 fa) in
  let b1 = submit_ok sched (sample_request ~n:1 fb) in
  (* one heavy formula (three queued requests) must not starve the
     other: dispatch alternates fingerprints *)
  let order = List.map fst (Scheduler.drain sched) in
  Alcotest.(check (list int)) "fair interleaving" [ a1; b1; a2; a3 ] order

(* A ["pin": true] field from an old client is ignored like any other
   unknown field: five distinct formulas through a cache of three
   leave it within its capacity, and the scheduler settles. *)
let test_scheduler_ignores_pin_field () =
  Obs.Metrics.enable ();
  with_sched ~config:{ Scheduler.default_config with Scheduler.cache_capacity = 3 }
  @@ fun sched ->
  let texts =
    [ formula_a; formula_b; formula_c; "p cnf 4 1\nc ind 1 2 3 0\n1 2 0\n";
      "p cnf 4 1\nc ind 1 2 3 0\n-2 3 4 0\n" ]
  in
  List.iter
    (fun text ->
      let payload =
        Json.to_string
          (Json.Obj
             [ ("op", Json.Str "sample"); ("formula", Json.Str text); ("n", Json.Int 2);
               ("pin", Json.Bool true) ])
      in
      match Wire.request_of_json (Json.of_string payload) with
      | Wire.Sample w ->
          ignore
            (submit_ok sched (Scheduler.request_of_wire (formula_of_string text) w) : int);
          ignore (step_ok sched)
      | _ -> Alcotest.fail "expected a sample request")
    texts;
  let cache = Scheduler.cache sched in
  Alcotest.(check bool) "within capacity" true (Cache.length cache <= 3);
  check_settled "old pin field"

(* The per-fingerprint windows under a client that cycles through
   distinct formulas: with an explicit clock a second apart, entries
   whose windows have emptied are dropped, the table stays within
   twice the fingerprints of one window, and the report for live
   fingerprints equals that of a table that only ever saw them. *)
let test_fp_windows_stay_bounded () =
  let module F = Scheduler.Fp_windows in
  let t = F.create () in
  let events = ref [] in
  let record now fp cache =
    events := (now, fp, cache) :: !events;
    F.record t ~now fp ~latency_s:(0.001 *. float_of_int (String.length fp)) ~cache
  in
  let max_size = ref 0 in
  for k = 0 to 1999 do
    let now = 1000.0 +. float_of_int k in
    record now (Printf.sprintf "cold-%d" k) (Some `Miss);
    if k mod 5 = 0 then record now "hot" (Some `Hit);
    max_size := max !max_size (F.size t)
  done;
  (* a window spans 120 s, so at most ~130 fingerprints are live *)
  Alcotest.(check bool)
    (Printf.sprintf "table bounded (max %d)" !max_size)
    true (!max_size <= 2 * 131 + 16);
  let now = 1000.0 +. 1999.0 in
  let reference = F.create () in
  List.iter
    (fun (at, fp, cache) ->
      if at > now -. 300.0 then
        F.record reference ~now:at fp ~latency_s:(0.001 *. float_of_int (String.length fp)) ~cache)
    (List.rev !events);
  let report = F.report t ~now in
  Alcotest.(check bool) "hot fingerprint live" true
    (List.exists (fun w -> w.Wire.fp = "hot") report);
  Alcotest.(check bool) "report = live-only report" true (report = F.report reference ~now)

(* Through the in-process scheduler: more distinct formulas than the
   table's first prune point, each reported once in the window. *)
let test_scheduler_reports_each_fingerprint () =
  with_sched @@ fun sched ->
  let pairs =
    List.concat_map (fun a -> List.init (8 - a) (fun i -> (a, a + 1 + i))) [ 1; 2; 3; 4 ]
  in
  let pairs = List.filteri (fun i _ -> i < 20) pairs in
  List.iter
    (fun (a, b) ->
      let f = formula_of_string (Printf.sprintf "p cnf 8 1\nc ind 1 2 3 0\n%d %d 0\n" a b) in
      ignore (submit_ok sched (sample_request ~n:1 f) : int);
      ignore (step_ok sched))
    pairs;
  let per_fp = (Scheduler.window_report sched).Wire.per_fp in
  Alcotest.(check int) "every fingerprint reported" (List.length pairs) (List.length per_fp);
  List.iter
    (fun w ->
      Alcotest.(check int) "one request" 1 w.Wire.fp_requests;
      Alcotest.(check int) "one cache lookup" 1 (w.Wire.fp_hits + w.Wire.fp_misses))
    per_fp

let test_scheduler_cancellation () =
  with_sched @@ fun sched ->
  let f = formula_of_string formula_a in
  let id1 = submit_ok sched (sample_request ~tag:"one" f) in
  let id2 = submit_ok sched (sample_request ~tag:"two" f) in
  Alcotest.(check bool) "cancel pending" true (Scheduler.cancel sched id1);
  Alcotest.(check bool) "cancel is once" false (Scheduler.cancel sched id1);
  Alcotest.(check int) "one left" 1 (Scheduler.pending sched);
  let id', _ = step_ok sched in
  Alcotest.(check int) "cancelled request skipped" id2 id';
  Alcotest.(check bool) "drained" true (step sched = None);
  Alcotest.(check bool) "cancel after completion" false (Scheduler.cancel sched id2)

let test_scheduler_draining () =
  with_sched @@ fun sched ->
  let f = formula_of_string formula_a in
  ignore (submit_ok sched (sample_request f) : int);
  Scheduler.set_draining sched;
  (match Scheduler.submit sched (sample_request f) with
  | Error { Scheduler.reason = Wire.Draining; _ } -> ()
  | _ -> Alcotest.fail "expected draining rejection");
  (* already-admitted work still completes *)
  match Scheduler.drain sched with
  | [ (_, Wire.Ok_sample _) ] -> ()
  | _ -> Alcotest.fail "pending request should drain to completion"

let test_scheduler_unsat_and_bad_epsilon () =
  with_sched @@ fun sched ->
  let unsat = formula_of_string "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n" in
  ignore (submit_ok sched (sample_request unsat) : int);
  (match step_ok sched with
  | _, Wire.Unsat _ -> ()
  | _ -> Alcotest.fail "expected unsat response");
  let f = formula_of_string formula_a in
  ignore (submit_ok sched (sample_request ~epsilon:1.0 f) : int);
  match step_ok sched with
  | _, Wire.Error_msg _ -> ()
  | _ -> Alcotest.fail "epsilon <= 1.71 must surface as a structured error"

let test_scheduler_cancel_in_flight_one_job () =
  (* at jobs = 1 a dispatched request runs on the executor's one worker
     domain: it is in flight, cancelling it suppresses its response, and
     the scheduler still settles *)
  Obs.Metrics.enable ();
  with_sched @@ fun sched ->
  let f = formula_of_string formula_a in
  (* warm the cache so the cancelled flight runs on the hit path *)
  ignore (submit_ok sched (sample_request f) : int);
  ignore (Scheduler.drain sched : (int * Wire.response) list);
  let id = submit_ok sched (sample_request ~seed:2 f) in
  Alcotest.(check int) "dispatched" 1 (Scheduler.dispatch sched);
  Alcotest.(check int) "in flight" 1 (Scheduler.in_flight sched);
  Alcotest.(check bool) "cancel in-flight" true (Scheduler.cancel sched id);
  Alcotest.(check (list int)) "cancelled response suppressed" []
    (List.map fst (Scheduler.drain sched));
  check_settled "after the cancelled flight"

let test_scheduler_cancel_closes_queue_span () =
  (* every async service.queue span opened at admission is closed, also
     for a request cancelled while still queued *)
  let path = Filename.temp_file "service_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.enable_file path;
  (with_sched @@ fun sched ->
   let f = formula_of_string formula_a in
   ignore (submit_ok sched (sample_request f) : int);
   let second = submit_ok sched (sample_request ~seed:2 f) in
   Alcotest.(check bool) "cancel queued" true (Scheduler.cancel sched second);
   Alcotest.(check int) "one response" 1 (List.length (Scheduler.drain sched)));
  Obs.Trace.close ();
  let ic = open_in path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let queue_ids ph =
    match Json.of_string raw with
    | Json.List evs ->
        List.filter_map
          (function
            | Json.Obj fs
              when List.assoc_opt "name" fs = Some (Json.Str "service.queue")
                   && List.assoc_opt "ph" fs = Some (Json.Str ph) ->
                List.assoc_opt "id" fs
            | _ -> None)
          evs
        |> List.sort compare
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  Alcotest.(check int) "both requests opened a queue span" 2
    (List.length (queue_ids "b"));
  Alcotest.(check bool) "every queue span closed" true
    (queue_ids "b" = queue_ids "e")

(* ------------------------------------------------------------------ *)
(* Determinism contract: the differential test. Service-path witnesses
   must be bit-identical to an offline [Unigen.sample_batch] with the
   same seeds on the canonical formula — on the cache miss (first
   request), on the cache hit (second request), and after an explicit
   eviction (cold again). *)

let service_witnesses sched req =
  ignore (submit_ok sched req : int);
  match step_ok sched with
  | _, Wire.Ok_sample r -> (r.Wire.cache <> Wire.Cache_miss, r.Wire.witnesses)
  | _ -> Alcotest.fail "expected witnesses from the service path"

let test_differential_service_vs_offline () =
  (* a formula with enough witnesses to leave the easy case, so the
     ApproxMC-derived hash-size window is part of what must match *)
  let text =
    "p cnf 12 3\nc ind 1 2 3 4 5 6 7 8 9 10 0\n1 2 3 0\n-4 5 6 0\n7 -8 0\n"
  in
  let f = formula_of_string text in
  let n = 8 and seed = 33 and prepare_seed = 5 and epsilon = 6.0 in
  let reference =
    match offline_witnesses ~prepare_seed ~seed ~epsilon ~n f with
    | Some w -> w
    | None -> Alcotest.fail "offline preparation failed"
  in
  with_sched @@ fun sched ->
  let req = sample_request ~n ~seed ~prepare_seed ~epsilon f in
  let hit1, w1 = service_witnesses sched req in
  Alcotest.(check bool) "first request is a cold miss" false hit1;
  Alcotest.(check (list (list int))) "miss path bit-identical" reference w1;
  let hit2, w2 = service_witnesses sched req in
  Alcotest.(check bool) "second request hits the cache" true hit2;
  Alcotest.(check (list (list int))) "hit path bit-identical" reference w2;
  (* explicit eviction forces a re-preparation; still bit-identical *)
  (match Cache.keys_mru (Scheduler.cache sched) with
  | [ key ] -> Alcotest.(check bool) "evict" true (Cache.remove (Scheduler.cache sched) key)
  | _ -> Alcotest.fail "expected exactly one cached preparation");
  let hit3, w3 = service_witnesses sched req in
  Alcotest.(check bool) "cold again after eviction" false hit3;
  Alcotest.(check (list (list int))) "post-eviction bit-identical" reference w3;
  (* a different draw seed shares the preparation but draws new
     streams — matching its own offline run *)
  let seed' = 34 in
  let reference' =
    match offline_witnesses ~prepare_seed ~seed:seed' ~epsilon ~n f with
    | Some w -> w
    | None -> Alcotest.fail "offline preparation failed"
  in
  let hit4, w4 = service_witnesses sched (sample_request ~n ~seed:seed' ~prepare_seed ~epsilon f) in
  Alcotest.(check bool) "seed change still hits" true hit4;
  Alcotest.(check (list (list int))) "other seed bit-identical" reference' w4

(* qcheck property: for random formulas, cache hit and cold miss give
   identical draws for fixed seeds (and both match offline). *)
let prop_cache_hit_equals_cold_miss =
  QCheck2.Test.make ~count:15 ~name:"cache hit = cold miss draw results"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 10_000))
    (fun (spec, seed) ->
      let f = Test_util.Gen.build_spec spec in
      let config =
        { Scheduler.default_config with Scheduler.cache_capacity = 2 }
      in
      let sched = Scheduler.create ~config () in
      Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
      let req = sample_request ~n:4 ~seed ~count_iterations:5 f in
      ignore (Scheduler.submit sched req |> Result.get_ok : int);
      let r1 = step sched in
      ignore (Scheduler.submit sched req |> Result.get_ok : int);
      let r2 = step sched in
      match (r1, r2) with
      | Some (_, Wire.Ok_sample a), Some (_, Wire.Ok_sample b) ->
          a.Wire.cache = Wire.Cache_miss
          && b.Wire.cache = Wire.Cache_ram
          && a.Wire.witnesses = b.Wire.witnesses
      | Some (_, Wire.Unsat _), Some (_, Wire.Unsat _) -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel execution: the concurrency battery. Worker domains execute
   whole requests behind the scheduler; prepared-state ownership is
   sharded by fingerprint. Everything observable — witnesses, response
   multiplicity, counters — must be indistinguishable from the serial
   path. *)

(* Submit one request and run the scheduler to exhaustion; works in
   serial and parallel mode. *)
let service_witnesses_drained sched req =
  let id = submit_ok sched req in
  match List.assoc_opt id (Scheduler.drain sched) with
  | Some (Wire.Ok_sample r) -> (r.Wire.cache <> Wire.Cache_miss, r.Wire.witnesses)
  | Some _ -> Alcotest.fail "expected witnesses from the service path"
  | None -> Alcotest.fail "request drained without a response"

let test_parallel_stress_many_clients () =
  (* many clients x many formulas against a 3-domain scheduler: no
     response lost, none duplicated, and every single response
     bit-identical to its own offline run *)
  Obs.Metrics.enable ();
  with_sched ~config:(parallel_config 3) @@ fun sched ->
  let formulas =
    List.map formula_of_string [ formula_a; formula_b; formula_c ]
  in
  let expected = Hashtbl.create 16 in
  let submitted = ref [] in
  (* interleave submissions across formulas, like concurrent clients *)
  for k = 0 to 3 do
    List.iteri
      (fun j f ->
        let seed = 100 + (4 * j) + k in
        let id = submit_ok sched (sample_request ~n:2 ~seed f) in
        let reference =
          match offline_witnesses ~prepare_seed:1 ~seed ~epsilon:6.0 ~n:2 f with
          | Some w -> w
          | None -> Alcotest.fail "offline preparation failed"
        in
        Hashtbl.replace expected id reference;
        submitted := id :: !submitted)
      formulas
  done;
  let completions = Scheduler.drain sched in
  Alcotest.(check int) "no response lost or duplicated" 12
    (List.length completions);
  let ids = List.map fst completions in
  Alcotest.(check int) "distinct ids" 12
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (id, resp) ->
      match resp with
      | Wire.Ok_sample r ->
          Alcotest.(check (list (list int)))
            (Printf.sprintf "request %d bit-identical to offline" id)
            (Hashtbl.find expected id) r.Wire.witnesses
      | _ -> Alcotest.fail "expected witnesses for every request")
    completions;
  (* requests on one formula serialise on its prepared state, so each
     of the three fingerprints pays exactly one cold preparation *)
  let misses =
    List.fold_left
      (fun n (_, resp) ->
        match resp with
        | Wire.Ok_sample r when r.Wire.cache = Wire.Cache_miss -> n + 1
        | _ -> n)
      0 completions
  in
  Alcotest.(check int) "one cold miss per fingerprint" 3 misses;
  check_settled "after the stress"

let test_parallel_dispatch_shards_and_interleaves () =
  (* dispatch starts at most one request per fingerprint and rotates
     fairly: with a1 a2 a3 queued before b1, the two free workers take
     a1 and b1 — never two requests of one formula *)
  with_sched ~config:(parallel_config 2) @@ fun sched ->
  let fa = formula_of_string formula_a in
  let fb = formula_of_string formula_b in
  let a1 = submit_ok sched (sample_request ~n:1 fa) in
  let a2 = submit_ok sched (sample_request ~n:1 fa) in
  let a3 = submit_ok sched (sample_request ~n:1 fa) in
  let b1 = submit_ok sched (sample_request ~n:1 fb) in
  let started = Scheduler.dispatch sched in
  Alcotest.(check int) "both workers busy" 2 started;
  Alcotest.(check int) "in flight" 2 (Scheduler.in_flight sched);
  Alcotest.(check int) "rest still queued" 2 (Scheduler.queued sched);
  Alcotest.(check int) "pending counts both" 4 (Scheduler.pending sched);
  (* [completions] never dispatches, so polling it until nothing is in
     flight collects exactly the first wave, whatever order its two
     requests finish in *)
  let fd = Scheduler.notify_fd sched in
  let rec first_wave acc =
    let acc = List.rev_append (List.map fst (Scheduler.completions sched)) acc in
    if Scheduler.in_flight sched = 0 then acc
    else begin
      ignore (Unix.select [ fd ] [] [] 1.0);
      first_wave acc
    end
  in
  Alcotest.(check (list int)) "first wave is one request per fingerprint" [ a1; b1 ]
    (List.sort compare (first_wave []));
  Alcotest.(check (list int)) "the rest of formula A follows" [ a2; a3 ]
    (List.sort compare (List.map fst (Scheduler.drain sched)))

let test_differential_every_jobs_level () =
  (* the acceptance criterion: witnesses bit-identical to offline
     sampling at every jobs level, on the cache miss, the cache hit,
     and the post-eviction re-preparation *)
  let text =
    "p cnf 12 3\nc ind 1 2 3 4 5 6 7 8 9 10 0\n1 2 3 0\n-4 5 6 0\n7 -8 0\n"
  in
  let f = formula_of_string text in
  let n = 8 and seed = 33 and prepare_seed = 5 and epsilon = 6.0 in
  let reference =
    match offline_witnesses ~prepare_seed ~seed ~epsilon ~n f with
    | Some w -> w
    | None -> Alcotest.fail "offline preparation failed"
  in
  List.iter
    (fun jobs ->
      let label s = Printf.sprintf "jobs=%d: %s" jobs s in
      with_sched ~config:(parallel_config jobs) @@ fun sched ->
      let req = sample_request ~n ~seed ~prepare_seed ~epsilon f in
      let hit1, w1 = service_witnesses_drained sched req in
      Alcotest.(check bool) (label "cold miss") false hit1;
      Alcotest.(check (list (list int))) (label "miss bit-identical") reference w1;
      let hit2, w2 = service_witnesses_drained sched req in
      Alcotest.(check bool) (label "cache hit") true hit2;
      Alcotest.(check (list (list int))) (label "hit bit-identical") reference w2;
      (match Cache.keys_mru (Scheduler.cache sched) with
      | [ key ] ->
          Alcotest.(check bool) (label "evict") true
            (Cache.remove (Scheduler.cache sched) key)
      | _ -> Alcotest.fail (label "expected exactly one cached preparation"));
      let hit3, w3 = service_witnesses_drained sched req in
      Alcotest.(check bool) (label "cold after eviction") false hit3;
      Alcotest.(check (list (list int)))
        (label "post-eviction bit-identical") reference w3)
    [ 1; 2; 3 ]

let test_chaos_cancellation_under_parallelism () =
  Obs.Metrics.enable ();
  with_sched ~config:(parallel_config 2) @@ fun sched ->
  let fa = formula_of_string formula_a in
  let fb = formula_of_string formula_b in
  let a1 = submit_ok sched (sample_request ~n:2 ~seed:1 fa) in
  let a2 = submit_ok sched (sample_request ~n:2 ~seed:2 fa) in
  let a3 = submit_ok sched (sample_request ~n:2 ~seed:3 fa) in
  let b1 = submit_ok sched (sample_request ~n:2 ~seed:4 fb) in
  let b2 = submit_ok sched (sample_request ~n:2 ~seed:5 fb) in
  ignore (Scheduler.dispatch sched : int);
  (* a1 and b1 are now on worker domains; a1's client disconnects *)
  Alcotest.(check bool) "cancel in-flight" true (Scheduler.cancel sched a1);
  Alcotest.(check bool) "cancel in-flight once" false (Scheduler.cancel sched a1);
  Alcotest.(check bool) "cancel queued" true (Scheduler.cancel sched a2);
  let completions = Scheduler.drain sched in
  let ids = List.sort compare (List.map fst completions) in
  Alcotest.(check (list int)) "cancelled responses suppressed, rest intact"
    (List.sort compare [ a3; b1; b2 ])
    ids;
  List.iter
    (fun (_, resp) ->
      match resp with
      | Wire.Ok_sample _ -> ()
      | _ -> Alcotest.fail "survivors must complete normally")
    completions;
  check_settled "after the drain";
  (* cancel a request in flight on the cache-hit path: the scheduler
     settles when the worker finishes, though the response is
     discarded *)
  let a4 = submit_ok sched (sample_request ~n:2 ~seed:6 fa) in
  ignore (Scheduler.dispatch sched : int);
  Alcotest.(check int) "hit-path request in flight" 1 (Scheduler.in_flight sched);
  Alcotest.(check bool) "cancel hit-path flight" true (Scheduler.cancel sched a4);
  Alcotest.(check (list int)) "cancelled hit suppressed" []
    (List.map fst (Scheduler.drain sched));
  check_settled "after the cancelled hit";
  (* the cache survived the chaos: a fresh request still hits *)
  let hit, _ = service_witnesses_drained sched (sample_request ~n:2 ~seed:7 fa) in
  Alcotest.(check bool) "cache intact after cancellations" true hit

let metric_counter name =
  let snap = Obs.Metrics.snapshot () in
  Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)

let test_deadline_miss_counted_once_parallel () =
  (* misses detected on a worker domain (Prepare_timeout) and misses
     detected at dispatch (deadline already past) both funnel through
     one accounting point: exactly one count per missed request *)
  Obs.Metrics.enable ();
  let before = metric_counter "service.deadline_misses" in
  let text =
    "p cnf 12 3\nc ind 1 2 3 4 5 6 7 8 9 10 0\n1 2 3 0\n-4 5 6 0\n7 -8 0\n"
  in
  let f = formula_of_string text in
  with_sched ~config:(parallel_config 2) @@ fun sched ->
  for seed = 1 to 3 do
    ignore (submit_ok sched (sample_request ~n:2 ~seed ~timeout_s:0.0005 f) : int)
  done;
  let completions = Scheduler.drain sched in
  Alcotest.(check int) "all three complete" 3 (List.length completions);
  List.iter
    (fun (_, resp) ->
      match resp with
      | Wire.Deadline_miss _ -> ()
      | _ -> Alcotest.fail "expected every request to miss its deadline")
    completions;
  Alcotest.(check int) "each miss counted exactly once" 3
    (metric_counter "service.deadline_misses" - before)

let test_capacity_one_evicts_in_flight_hit () =
  (* cache capacity 1 and two workers: a long hit on A is still running
     when a miss on B completes and installs B. The LRU evicts A at
     once, never holding two entries, and A's request still draws the
     offline witnesses: its worker holds A's state by reference *)
  let text =
    "p cnf 12 3\nc ind 1 2 3 4 5 6 7 8 9 10 0\n1 2 3 0\n-4 5 6 0\n7 -8 0\n"
  in
  let fa = formula_of_string text in
  let fb = formula_of_string formula_b in
  let n = 1500 and seed = 41 and prepare_seed = 5 and epsilon = 6.0 in
  let reference =
    match offline_witnesses ~prepare_seed ~seed ~epsilon ~n fa with
    | Some w -> w
    | None -> Alcotest.fail "offline preparation failed"
  in
  with_sched ~config:{ (parallel_config 2) with Scheduler.cache_capacity = 1 }
  @@ fun sched ->
  let req_a = sample_request ~n ~seed ~prepare_seed ~epsilon fa in
  ignore (service_witnesses_drained sched { req_a with Scheduler.n = 1 });
  let a = submit_ok sched req_a in
  let b = submit_ok sched (sample_request ~n:2 fb) in
  Alcotest.(check int) "A and B dispatched together" 2 (Scheduler.dispatch sched);
  let fd = Scheduler.notify_fd sched in
  (* [batches] lists each poll's completed ids, latest first *)
  let rec collect batches responses =
    if Scheduler.in_flight sched = 0 then (batches, responses)
    else begin
      ignore (Unix.select [ fd ] [] [] 1.0);
      match Scheduler.completions sched with
      | [] -> collect batches responses
      | done_ ->
          Alcotest.(check bool) "at most one cached entry" true
            (Cache.length (Scheduler.cache sched) <= 1);
          collect (List.map fst done_ :: batches) (done_ @ responses)
    end
  in
  let batches, responses = collect [] [] in
  Alcotest.(check (list (list int))) "B completed while A was in flight"
    [ [ a ]; [ b ] ] batches;
  (match List.assoc_opt a responses with
  | Some (Wire.Ok_sample r) ->
      Alcotest.(check bool) "A was a hit" true (r.Wire.cache = Wire.Cache_ram);
      Alcotest.(check (list (list int))) "A bit-identical to offline" reference
        r.Wire.witnesses
  | _ -> Alcotest.fail "expected A's witnesses");
  Alcotest.(check bool) "B's miss installed" true
    (match List.assoc_opt b responses with
    | Some (Wire.Ok_sample r) -> r.Wire.cache = Wire.Cache_miss
    | _ -> false)

(* retry_after_s must stay finite and non-negative no matter how the
   EWMA was seeded — in particular after instantly-completing requests
   (a 0-duration first sample must not zero or poison the hint). *)
let prop_retry_hint_sane =
  QCheck2.Test.make ~count:25 ~name:"retry_after_s finite and non-negative"
    QCheck2.Gen.(int_bound 4)
    (fun instant_misses ->
      let config =
        { Scheduler.default_config with Scheduler.queue_capacity = 2 }
      in
      let sched = Scheduler.create ~config () in
      Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
      let f = formula_of_string formula_a in
      for _ = 1 to instant_misses do
        (match Scheduler.submit sched (sample_request ~timeout_s:(-1.0) f) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "admission unexpectedly closed");
        match step sched with
        | Some (_, Wire.Deadline_miss _) -> ()
        | _ -> Alcotest.fail "expected an instant deadline miss"
      done;
      (* fill the admission queue, then overflow it *)
      ignore (Scheduler.submit sched (sample_request f));
      ignore (Scheduler.submit sched (sample_request f));
      match Scheduler.submit sched (sample_request f) with
      | Ok _ -> false
      | Error { Scheduler.reason = Wire.Queue_full; retry_after_s } ->
          Float.is_finite retry_after_s && retry_after_s >= 0.0
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Durable spill tier: codec round trips and restart durability. A
   fresh scheduler over the same spill directory stands in for a
   restarted daemon (same code path: Cache.find's disk tier). *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_spill_dir f =
  let dir = Filename.temp_file "unigen_spill" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* two witnesses over {1,2}: stays in UniGen's easy enumeration case *)
let easy_text = "p cnf 3 2\nc ind 1 2 0\n1 2 0\n-1 -2 0\n"

(* enough free sampling variables to force the hashed case, so the
   ApproxMC-derived anchor (q, count estimate) rides in the payload *)
let hashed_text =
  "p cnf 12 3\nc ind 1 2 3 4 5 6 7 8 9 10 0\n1 2 3 0\n-4 5 6 0\n7 -8 0\n"

let cache_key ?(epsilon = 6.0) ?(prepare_seed = 5) ?count_iterations f =
  {
    Cache.fingerprint = Registry.fingerprint f;
    epsilon;
    prepare_seed;
    count_iterations;
  }

let prepared_entry ?(epsilon = 6.0) ?(prepare_seed = 5) f =
  let f = Registry.canonical f in
  let rng = Rng.create prepare_seed in
  match Sampling.Unigen.prepare ~rng ~epsilon f with
  | Ok prepared -> { Cache.prepared; formula = f }
  | Error _ -> Alcotest.fail "preparation failed"

let encode key e = Spill.encode key e.Cache.prepared e.Cache.formula

let draws ?(n = 6) ?(seed = 42) prepared =
  Sampling.Unigen.sample_batch ~max_attempts:20 ~seed prepared n
  |> Array.to_list
  |> List.filter_map (function
       | Ok m -> Some (Cnf.Model.to_dimacs m)
       | Error _ -> None)

let test_spill_codec_roundtrip () =
  List.iter
    (fun (label, text) ->
      let f = formula_of_string text in
      let key = cache_key f in
      let entry = prepared_entry f in
      let payload = encode key entry in
      match Spill.decode key payload with
      | Error reason -> Alcotest.failf "%s: decode failed: %s" label reason
      | Ok (prepared, formula) ->
          Alcotest.(check string)
            (label ^ ": formula identity preserved")
            key.Cache.fingerprint
            (Registry.fingerprint formula);
          (* the rehydration contract: the imported preparation draws
             the very same witnesses as the original *)
          Alcotest.(check (list (list int)))
            (label ^ ": bit-identical draws")
            (draws entry.Cache.prepared) (draws prepared))
    [ ("easy phase", easy_text); ("hashed phase", hashed_text) ]

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then
      Alcotest.failf "substring %S not found" sub
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

(* a payload as the v3 codec wrote it: its version tag and the
   hash-density field v4 dropped *)
let as_v3_payload payload =
  replace_once ~sub:Spill.version ~by:"unigen-prepared-v3" payload
  |> replace_once ~sub:"\"created_at\":"
       ~by:"\"hash_density\":0.5,\"created_at\":"

let test_spill_decode_paranoia () =
  (* decode re-verifies every key-determining field, so a spill entry
     can never be served under preparation parameters it was not made
     with — each drifted key must read as a decode error (which the
     cache turns into quarantine + clean re-preparation) *)
  let f = formula_of_string hashed_text in
  let key = cache_key f in
  let payload = encode key (prepared_entry f) in
  let rejects label key' payload' =
    match Spill.decode key' payload' with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": stale payload accepted")
  in
  rejects "epsilon drift" { key with Cache.epsilon = 8.0 } payload;
  rejects "prepare-seed drift" { key with Cache.prepare_seed = 99 } payload;
  rejects "count-iterations drift"
    { key with Cache.count_iterations = Some 3 }
    payload;
  rejects "fingerprint drift"
    { key with Cache.fingerprint = String.make 32 '0' }
    payload;
  rejects "garbage payload" key "not json at all";
  (* well-formed JSON whose formula names a variable above its header
     count: a parse error, not an exception escaping the cache *)
  rejects "out-of-range formula" key
    (replace_once ~sub:"p cnf 12 " ~by:"p cnf 2 " payload);
  rejects "payload version drift" key
    (replace_once ~sub:Spill.version ~by:"unigen-prepared-v0" payload);
  (* a spill written before the engine knobs were removed: old version
     tag plus the old [incremental]/[xor_engine] fields *)
  rejects "v1 payload" key
    (replace_once ~sub:Spill.version ~by:"unigen-prepared-v1" payload
    |> replace_once ~sub:"\"formula\":"
         ~by:"\"incremental\":true,\"xor_engine\":\"gauss\",\"formula\":");
  (* a spill prepared by the former serial ApproxMC loop, whose [q] can
     differ from the one a fresh miss now derives for the same key *)
  rejects "v2 payload" key
    (replace_once ~sub:Spill.version ~by:"unigen-prepared-v2" payload);
  (* a spill written before the hash-density knob was removed *)
  rejects "v3 payload" key (as_v3_payload payload);
  (* the unmutated payload still decodes: the probes above failed for
     their own reasons, not because the fixture was broken *)
  match Spill.decode key payload with
  | Ok _ -> ()
  | Error reason -> Alcotest.failf "control decode failed: %s" reason

let spill_config dir =
  { Scheduler.default_config with Scheduler.spill_dir = Some dir }

let prep_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".prep")

let quarantined dir =
  let qdir = Filename.concat dir "quarantine" in
  if Sys.file_exists qdir then Array.length (Sys.readdir qdir) else 0

(* Run one request through a fresh scheduler generation over [dir];
   return where the preparation came from and the witnesses. *)
let generation dir req =
  with_sched ~config:(spill_config dir) @@ fun sched ->
  ignore (submit_ok sched req : int);
  match step_ok sched with
  | _, Wire.Ok_sample r -> (r.Wire.cache, r.Wire.witnesses)
  | _ -> Alcotest.fail "expected witnesses"

let test_scheduler_restart_disk_warm () =
  Obs.Metrics.enable ();
  with_spill_dir @@ fun dir ->
  let f = formula_of_string hashed_text in
  let req = sample_request ~n:6 ~seed:33 ~prepare_seed:5 f in
  let src1, w1 = generation dir req in
  Alcotest.(check bool) "generation 1 is a cold miss" true
    (src1 = Wire.Cache_miss);
  Alcotest.(check int) "preparation spilled on insert" 1
    (List.length (prep_files dir));
  (* generation 2 — a restarted daemon: the preparation is loaded from
     disk, ApproxMC never re-runs, witnesses are bit-identical *)
  let store_hits = metric_counter "store.hit" in
  with_sched ~config:(spill_config dir) @@ fun sched ->
  ignore (submit_ok sched req : int);
  (match step_ok sched with
  | _, Wire.Ok_sample r ->
      Alcotest.(check bool) "generation 2 is disk-warm" true
        (r.Wire.cache = Wire.Cache_disk);
      Alcotest.(check (list (list int))) "disk-warm bit-identical" w1
        r.Wire.witnesses
  | _ -> Alcotest.fail "expected witnesses");
  Alcotest.(check bool) "store.hit counted" true
    (metric_counter "store.hit" > store_hits);
  (* the disk hit promoted the entry into RAM *)
  ignore (submit_ok sched req : int);
  match step_ok sched with
  | _, Wire.Ok_sample r ->
      Alcotest.(check bool) "promoted to RAM" true
        (r.Wire.cache = Wire.Cache_ram);
      Alcotest.(check (list (list int))) "ram-warm bit-identical" w1
        r.Wire.witnesses
  | _ -> Alcotest.fail "expected witnesses"

let test_scheduler_restart_corrupt_spill () =
  Obs.Metrics.enable ();
  with_spill_dir @@ fun dir ->
  let f = formula_of_string hashed_text in
  let req = sample_request ~n:6 ~seed:33 ~prepare_seed:5 f in
  let corrupt_before = metric_counter "store.corrupt" in
  let _, w1 = generation dir req in
  (* bit rot: flip one byte of the spill entry. The store's checksum
     catches it; the restarted daemon quarantines and re-prepares,
     still landing on identical witnesses *)
  (match prep_files dir with
  | [ name ] ->
      let path = Filename.concat dir name in
      let ic = open_in_bin path in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string raw in
      let i = Bytes.length b - 1 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Store.atomic_write ~dir ~path (Bytes.to_string b)
  | files -> Alcotest.failf "expected one spill entry, found %d" (List.length files));
  let src2, w2 = generation dir req in
  Alcotest.(check bool) "corrupt spill falls back to a clean miss" true
    (src2 = Wire.Cache_miss);
  Alcotest.(check (list (list int))) "re-prepared witnesses identical" w1 w2;
  Alcotest.(check int) "evidence quarantined" 1 (quarantined dir);
  Alcotest.(check int) "clean preparation re-spilled" 1
    (List.length (prep_files dir));
  (* codec-level corruption: a checksum-valid envelope whose payload
     the spill codec cannot decode — quarantined by the cache, not
     crashed on *)
  let st = Store.create ~dir () in
  Store.put st ~key:(Cache.key_to_string (cache_key f)) "{\"v\":\"nonsense\"}";
  let src3, w3 = generation dir req in
  Alcotest.(check bool) "undecodable payload is a miss" true
    (src3 = Wire.Cache_miss);
  Alcotest.(check (list (list int))) "witnesses still identical" w1 w3;
  (* a payload of the previous format version (v3, with its
     hash-density field) under the same key: quarantined and
     re-prepared, never served *)
  Store.put st ~key:(Cache.key_to_string (cache_key f))
    (as_v3_payload (encode (cache_key f) (prepared_entry f)));
  let src4, w4 = generation dir req in
  Alcotest.(check bool) "v3 payload is a miss" true (src4 = Wire.Cache_miss);
  Alcotest.(check (list (list int))) "re-prepared past v3" w1 w4;
  (* every corruption counted; the quarantine file itself is reused
     because the entries share the key's basename *)
  Alcotest.(check int) "all corruptions counted" 3
    (metric_counter "store.corrupt" - corrupt_before);
  Alcotest.(check bool) "evidence still present" true (quarantined dir >= 1)

(* ------------------------------------------------------------------ *)
(* Client-side retry with backpressure-aware backoff, pure of any
   socket. *)

let test_with_retry () =
  let rng = Rng.create 11 in
  let retry ?(max_attempts = 4) f =
    Client.with_retry ~max_attempts ~base_delay_s:0.001 ~max_delay_s:0.004 ~rng
      f
  in
  (* rejections retry until the daemon admits the request *)
  let calls = ref 0 in
  let resp =
    retry (fun () ->
        incr calls;
        if !calls < 3 then
          Wire.Rejected { reason = Wire.Queue_full; retry_after_s = 0.001 }
        else Wire.Bye)
  in
  Alcotest.(check bool) "eventual success surfaces" true (resp = Wire.Bye);
  Alcotest.(check int) "two retries" 3 !calls;
  (* attempts exhausted: the final rejection surfaces unchanged *)
  calls := 0;
  let final = Wire.Rejected { reason = Wire.Draining; retry_after_s = 0.0 } in
  let resp = retry ~max_attempts:2 (fun () -> incr calls; final) in
  Alcotest.(check bool) "final rejection unchanged" true (resp = final);
  Alcotest.(check int) "attempts bounded" 2 !calls;
  (* a daemon restarting under the client is transient *)
  calls := 0;
  let resp =
    retry (fun () ->
        incr calls;
        if !calls = 1 then
          raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", ""))
        else if !calls = 2 then raise (Client.Protocol_error "eof mid-frame")
        else Wire.Bye)
  in
  Alcotest.(check bool) "transient failures retried" true (resp = Wire.Bye);
  Alcotest.(check int) "one call per failure" 3 !calls;
  (* exhausted transient failures re-raise the last exception *)
  calls := 0;
  (match
     retry ~max_attempts:2 (fun () ->
         incr calls;
         raise (Unix.Unix_error (Unix.ECONNRESET, "read", "")))
   with
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      Alcotest.(check int) "transient attempts bounded" 2 !calls
  | _ -> Alcotest.fail "expected the transport error to surface");
  (* non-transient exceptions surface immediately *)
  calls := 0;
  (match retry (fun () -> incr calls; failwith "logic error") with
  | exception Failure _ ->
      Alcotest.(check int) "no retry on non-transient" 1 !calls
  | _ -> Alcotest.fail "expected the failure to surface");
  match retry ~max_attempts:0 (fun () -> Wire.Bye) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_attempts = 0 accepted"

(* ------------------------------------------------------------------ *)
(* Wire.Decoder fuzz: arbitrary payloads, arbitrary chunking, hostile
   length prefixes. Every malformed input must surface as a structured
   protocol error ([Frame_error] / [Json.Decode_error]) — never as an
   arbitrary exception escaping towards the select loop. *)

let prop_decoder_chunked_reassembly =
  QCheck2.Test.make ~count:100
    ~name:"decoder reassembles arbitrary frames under arbitrary chunking"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 5) (string_size ~gen:char (int_range 0 300)))
        (int_range 1 9))
    (fun (payloads, chunk) ->
      let stream = String.concat "" (List.map Wire.encode_frame payloads) in
      let d = Wire.Decoder.create () in
      let out = ref [] in
      let len = String.length stream in
      let pos = ref 0 in
      while !pos < len do
        let k = min chunk (len - !pos) in
        Wire.Decoder.feed d (Bytes.of_string (String.sub stream !pos k)) k;
        pos := !pos + k;
        let rec drain () =
          match Wire.Decoder.next d with
          | Some p ->
              out := p :: !out;
              drain ()
          | None -> ()
        in
        drain ()
      done;
      List.rev !out = payloads && Wire.Decoder.buffered d = 0)

let prop_decoder_truncated_frame =
  QCheck2.Test.make ~count:100
    ~name:"any strict prefix of a frame waits for more input"
    QCheck2.Gen.(
      pair (string_size ~gen:char (int_range 0 500)) (int_range 0 99))
    (fun (payload, pct) ->
      let frame = Wire.encode_frame payload in
      let keep = max 0 (min (String.length frame * pct / 100) (String.length frame - 1)) in
      let d = Wire.Decoder.create () in
      Wire.Decoder.feed d (Bytes.of_string (String.sub frame 0 keep)) keep;
      match Wire.Decoder.next d with
      | None -> true
      | Some _ -> false
      | exception _ -> false)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  b

let test_decoder_frame_cap () =
  (* a header announcing exactly max_frame is legal: the decoder waits
     for the body *)
  let d = Wire.Decoder.create () in
  Wire.Decoder.feed d (be32 Wire.max_frame) 4;
  Alcotest.(check (option string)) "at cap: awaiting body" None
    (Wire.Decoder.next d);
  (* one byte past the cap is a protocol error, raised before any
     buffering *)
  let d2 = Wire.Decoder.create () in
  Wire.Decoder.feed d2 (be32 (Wire.max_frame + 1)) 4;
  Alcotest.check_raises "over cap" (Wire.Frame_error "frame exceeds max_frame")
    (fun () -> ignore (Wire.Decoder.next d2 : string option))

let prop_decoder_garbage_payload =
  QCheck2.Test.make ~count:200
    ~name:"garbage payload decodes as a frame, fails as a clean request error"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 120))
    (fun garbage ->
      let frame = Wire.encode_frame garbage in
      let d = Wire.Decoder.create () in
      Wire.Decoder.feed d (Bytes.of_string frame) (String.length frame);
      match Wire.Decoder.next d with
      | Some payload ->
          (* framing is content-agnostic; the JSON layer must reject
             garbage with Decode_error and nothing else *)
          String.equal payload garbage
          && (match Wire.request_of_json (Json.of_string payload) with
             | (_ : Wire.request) -> true
             | exception Json.Decode_error _ -> true
             | exception _ -> false)
      | None -> false
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Daemon served from a domain of this process, over a real Unix
   socket. A domain rather than a forked child: OCaml 5 refuses
   [Unix.fork] once a process has spawned a domain, and the scheduler
   tests above already have. [f] runs once the socket is up; the
   daemon is then asked to shut down, and joining its domain re-raises
   anything it died of. *)

let with_daemon ?(scheduler = Scheduler.default_config) f =
  let dir = Filename.temp_file "unigen_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "daemon.sock" in
  let daemon =
    Domain.spawn (fun () ->
        Service.Server.run
          { (Service.Server.default_config ~socket_path) with Service.Server.scheduler })
  in
  Fun.protect
    ~finally:(fun () ->
      (* a daemon that is still up is drained; one that died re-raises
         its exception here *)
      (try ignore (Client.call ~socket_path Wire.Shutdown : Wire.response)
       with _ -> ());
      Domain.join daemon;
      (try Sys.remove socket_path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket_path);
  f ~socket_path

(* A formula naming a variable above its header count must come back as
   [Error_msg] on the request's own connection, and the daemon must
   keep answering. *)
let test_out_of_range_variable_is_request_error () =
  with_daemon @@ fun ~socket_path ->
  Client.with_connection ~socket_path @@ fun conn ->
  let bad =
    Wire.Sample
      { Wire.default_sample_req with Wire.formula_text = "p cnf 2 1\n1 5 0\n"; n = 2 }
  in
  (match Client.request conn bad with
  | Wire.Error_msg msg ->
      Alcotest.(check bool) "names the formula" true
        (String.length msg >= 8 && String.sub msg 0 8 = "formula:")
  | _ -> Alcotest.fail "expected Error_msg for an out-of-range variable");
  (match Client.request conn Wire.Status with
  | Wire.Metrics _ -> ()
  | _ -> Alcotest.fail "status should still answer");
  match
    Client.request conn
      (Wire.Sample { Wire.default_sample_req with Wire.formula_text = formula_a; n = 2 })
  with
  | Wire.Ok_sample r -> Alcotest.(check int) "still samples" 2 r.Wire.produced
  | _ -> Alcotest.fail "a well-formed request should still be served"

(* Socket-level chaos against a parallel daemon: one client pipelines
   requests and disconnects without reading a byte; its work must be
   cancelled, the daemon must settle, and a concurrent client's framing
   left untouched. *)
let test_chaos_abrupt_disconnect_socket () =
  with_daemon ~scheduler:(parallel_config 2) @@ fun ~socket_path ->
  (* connection A: pipeline three requests on three formulas, then
     vanish mid-flight without reading a single response *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  List.iteri
    (fun i text ->
      Wire.write_frame fd
        (Json.to_string
           (Wire.request_to_json
              (Wire.Sample
                 {
                   Wire.default_sample_req with
                   Wire.formula_text = text;
                   n = 4;
                   seed = 10 + i;
                   tag = Some (Printf.sprintf "doomed-%d" i);
                 }))))
    [ formula_a; formula_b; formula_c ];
  Unix.close fd;
  (* connection B keeps working: two requests on one formula (the
     second exercises the cache-hit path), each response
     correctly framed and correctly tagged *)
  Service.Client.with_connection ~socket_path @@ fun conn ->
  let ask tag =
    match
      Service.Client.request conn
        (Wire.Sample
           {
             Wire.default_sample_req with
             Wire.formula_text = formula_a;
             n = 4;
             seed = 77;
             tag = Some tag;
           })
    with
    | Wire.Ok_sample r ->
        Alcotest.(check (option string)) "own tag echoed" (Some tag)
          r.Wire.rsp_tag;
        Alcotest.(check int) "witnesses delivered" 4 r.Wire.produced;
        r.Wire.witnesses
    | _ -> Alcotest.fail "survivor connection must get clean responses"
  in
  let w1 = ask "b-cold" in
  let w2 = ask "b-warm" in
  Alcotest.(check bool) "deterministic across A's chaos" true (w1 = w2);
  (* give the daemon a beat to finish any in-flight doomed work, then
     check nothing stayed in flight or queued *)
  let rec settle tries =
    match Service.Client.request conn Wire.Status with
    | Wire.Metrics { values; _ } -> (
        let gauge g =
          match List.assoc_opt g values with
          | Some v -> v
          | None -> Alcotest.failf "%s gauge missing" g
        in
        match (gauge "service.in_flight", gauge "service.queue_depth") with
        | 0.0, 0.0 -> ()
        | _ when tries > 0 ->
            ignore (Unix.select [] [] [] 0.05);
            settle (tries - 1)
        | f, q -> Alcotest.failf "daemon did not settle: %g in flight, %g queued" f q)
    | _ -> Alcotest.fail "expected a metrics response"
  in
  settle 40;
  (* the daemon's domain is joined on the way out of [with_daemon] *)
  match Service.Client.request conn Wire.Shutdown with
  | Wire.Bye -> ()
  | _ -> Alcotest.fail "expected bye"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity edge cases" `Quick test_lru_capacity_edge_cases;
          Alcotest.test_case "re-put and remove" `Quick
            test_lru_reput_and_remove;
        ] );
      ( "registry",
        [
          Alcotest.test_case "fingerprint invariance" `Quick
            test_registry_fingerprint_invariance;
          Alcotest.test_case "canonical idempotent" `Quick
            test_registry_canonical_idempotent;
          Alcotest.test_case "identify" `Quick test_registry_identify;
          Alcotest.test_case "golden vectors" `Quick
            test_registry_golden_vectors;
          QCheck_alcotest.to_alcotest prop_dimacs_roundtrip_canonical;
          QCheck_alcotest.to_alcotest prop_canonical_preserves_models;
        ] );
      ( "wire",
        [
          Alcotest.test_case "framing incremental" `Quick test_wire_framing_incremental;
          Alcotest.test_case "json roundtrip" `Quick test_wire_json_roundtrip;
          Alcotest.test_case "bad count_iterations" `Quick
            test_wire_rejects_bad_count_iterations;
          Alcotest.test_case "frame size cap" `Quick test_decoder_frame_cap;
          QCheck_alcotest.to_alcotest prop_decoder_chunked_reassembly;
          QCheck_alcotest.to_alcotest prop_decoder_truncated_frame;
          QCheck_alcotest.to_alcotest prop_decoder_garbage_payload;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "backpressure" `Quick test_scheduler_backpressure;
          Alcotest.test_case "deadline miss" `Quick test_scheduler_deadline_miss;
          Alcotest.test_case "round robin" `Quick test_scheduler_round_robin;
          Alcotest.test_case "cancellation" `Quick test_scheduler_cancellation;
          Alcotest.test_case "old pin field ignored" `Quick
            test_scheduler_ignores_pin_field;
          Alcotest.test_case "draining" `Quick test_scheduler_draining;
          Alcotest.test_case "fingerprint windows bounded" `Quick
            test_fp_windows_stay_bounded;
          Alcotest.test_case "each fingerprint reported" `Quick
            test_scheduler_reports_each_fingerprint;
          Alcotest.test_case "unsat and bad epsilon" `Quick
            test_scheduler_unsat_and_bad_epsilon;
          Alcotest.test_case "cancel in flight at jobs 1" `Quick
            test_scheduler_cancel_in_flight_one_job;
          Alcotest.test_case "cancel closes the queue span" `Quick
            test_scheduler_cancel_closes_queue_span;
          QCheck_alcotest.to_alcotest prop_retry_hint_sane;
        ] );
      ( "spill",
        [
          Alcotest.test_case "codec round trip" `Quick
            test_spill_codec_roundtrip;
          Alcotest.test_case "decode paranoia" `Quick test_spill_decode_paranoia;
          Alcotest.test_case "restart serves disk-warm" `Quick
            test_scheduler_restart_disk_warm;
          Alcotest.test_case "corrupt spill quarantined" `Quick
            test_scheduler_restart_corrupt_spill;
        ] );
      ( "client",
        [
          Alcotest.test_case "retry with backoff" `Quick test_with_retry;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "chaos: abrupt disconnect under parallelism" `Quick
            test_chaos_abrupt_disconnect_socket;
          Alcotest.test_case "out-of-range variable is a request error" `Quick
            test_out_of_range_variable_is_request_error;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "stress: many clients x many formulas" `Quick
            test_parallel_stress_many_clients;
          Alcotest.test_case "dispatch shards by fingerprint" `Quick
            test_parallel_dispatch_shards_and_interleaves;
          Alcotest.test_case "chaos: cancellation under parallelism" `Quick
            test_chaos_cancellation_under_parallelism;
          Alcotest.test_case "deadline miss counted once" `Quick
            test_deadline_miss_counted_once_parallel;
          Alcotest.test_case "capacity 1 evicts an in-flight hit" `Quick
            test_capacity_one_evicts_in_flight_hit;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "differential vs offline" `Quick
            test_differential_service_vs_offline;
          Alcotest.test_case "differential at every jobs level" `Quick
            test_differential_every_jobs_level;
          QCheck_alcotest.to_alcotest prop_cache_hit_equals_cold_miss;
        ] );
    ]
