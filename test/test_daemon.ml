(* End-to-end tests of the sampling daemon (Service.Server) in forked
   child processes, over real Unix sockets. They live in their own
   executable because OCaml 5 forbids [Unix.fork] in a process that has
   ever spawned a domain, and every in-process [Scheduler.create]
   spawns its worker domains. Daemon tests that serve from a domain of
   the test process stay in test_service.ml. *)

module Registry = Service.Registry
module Wire = Service.Wire
module Client = Service.Client

open Service_fixtures

(* ------------------------------------------------------------------ *)
(* End-to-end over a real Unix socket: daemon in a forked child, two
   requests on one connection, a tagged cancel race, clean shutdown. *)

let test_socket_end_to_end () =
  let dir = Filename.temp_file "unigen_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "daemon.sock" in
  match Unix.fork () with
  | 0 ->
      (* child: the daemon. [_exit] skips at_exit so the test runner's
         buffers are not flushed twice. *)
      (try
         Service.Server.run (Service.Server.default_config ~socket_path)
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (* the happy path has already reaped the child *)
          (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
           with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
          (try Sys.remove socket_path with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
      do
        ignore (Unix.select [] [] [] 0.02)
      done;
      Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket_path);
      let req =
        Wire.Sample
          { Wire.default_sample_req with Wire.formula_text = formula_a; n = 4; seed = 9 }
      in
      Service.Client.with_connection ~socket_path @@ fun conn ->
      let r1 = Service.Client.request conn req in
      let r2 = Service.Client.request conn req in
      (match (r1, r2) with
      | Wire.Ok_sample a, Wire.Ok_sample b ->
          Alcotest.(check bool) "first cold" true
            (a.Wire.cache = Wire.Cache_miss);
          Alcotest.(check bool) "second warm" true
            (b.Wire.cache = Wire.Cache_ram);
          Alcotest.(check bool) "same witnesses over the wire" true
            (a.Wire.witnesses = b.Wire.witnesses);
          Alcotest.(check int) "produced" 4 a.Wire.produced
      | _ -> Alcotest.fail "expected two witness responses");
      (match Service.Client.request conn Wire.Status with
      | Wire.Metrics { values; info } ->
          Alcotest.(check bool) "cache hit visible in metrics" true
            (match List.assoc_opt "service.cache_hits" values with
            | Some v -> v >= 1.0
            | None -> false);
          (* provenance travels with the status answer; there is one
             XOR engine, so no engine name rides along *)
          Alcotest.(check (option string))
            "no xor engine field" None
            (List.assoc_opt "xor_engine" info);
          Alcotest.(check (option string))
            "ocaml version reported" (Some Sys.ocaml_version)
            (List.assoc_opt "ocaml_version" info);
          Alcotest.(check bool) "uptime reported" true
            (match List.assoc_opt "server.uptime_seconds" values with
            | Some v -> v >= 0.0
            | None -> false)
      | _ -> Alcotest.fail "expected a metrics response");
      (match Service.Client.request conn Wire.Window with
      | Wire.Window_report w ->
          (* both requests above finished inside the rolling window *)
          Alcotest.(check bool) "window saw the requests" true
            (w.Wire.w_requests >= 2);
          Alcotest.(check bool) "window saw the cache hit" true
            (w.Wire.w_hits >= 1);
          Alcotest.(check bool) "percentiles monotone" true
            (w.Wire.p50_ms <= w.Wire.p90_ms && w.Wire.p90_ms <= w.Wire.p99_ms);
          Alcotest.(check string) "ocaml version" Sys.ocaml_version
            w.Wire.ocaml_version;
          Alcotest.(check bool) "per-fingerprint row present" true
            (match w.Wire.per_fp with
            | f :: _ -> f.Wire.fp_requests >= 2
            | [] -> false)
      | _ -> Alcotest.fail "expected a window report");
      (match Service.Client.request conn Wire.Shutdown with
      | Wire.Bye -> ()
      | _ -> Alcotest.fail "expected bye");
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "daemon exited cleanly" true
        (match status with Unix.WEXITED 0 -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fleet mode end to end: a supervisor forks two replica daemons on
   derived sockets; the client routes each formula to its shard by
   consistent hashing. The acceptance criterion: witnesses from the
   fleet are bit-identical to what a lone daemon (or the offline
   sampler) would serve. *)

let test_fleet_end_to_end () =
  let dir = Filename.temp_file "unigen_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "fleet.sock" in
  let shards = [ socket_path ^ ".0"; socket_path ^ ".1" ] in
  match Unix.fork () with
  | 0 ->
      (try
         Service.Server.run_fleet ~replicas:2
           (Service.Server.default_config ~socket_path)
       with _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
           with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            shards;
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (not (List.for_all Sys.file_exists shards))
        && Unix.gettimeofday () < deadline
      do
        ignore (Unix.select [] [] [] 0.02)
      done;
      Alcotest.(check bool) "both replicas came up" true
        (List.for_all Sys.file_exists shards);
      let fleet = Client.Fleet.create shards in
      let ask sock text =
        match
          Client.call ~socket_path:sock
            (Wire.Sample
               {
                 Wire.default_sample_req with
                 Wire.formula_text = text;
                 n = 3;
                 seed = 9;
               })
        with
        | Wire.Ok_sample r -> r
        | _ -> Alcotest.fail "expected witnesses from the fleet"
      in
      List.iter
        (fun text ->
          let f = formula_of_string text in
          let shard = Client.Fleet.route fleet (Registry.fingerprint f) in
          let r1 = ask shard text in
          let r2 = ask shard text in
          Alcotest.(check bool) "routed repeat lands warm" true
            (r1.Wire.cache = Wire.Cache_miss && r2.Wire.cache = Wire.Cache_ram);
          Alcotest.(check bool) "warm witnesses identical" true
            (r1.Wire.witnesses = r2.Wire.witnesses);
          match offline_witnesses ~prepare_seed:1 ~seed:9 ~epsilon:6.0 ~n:3 f with
          | Some reference ->
              Alcotest.(check (list (list int)))
                "fleet bit-identical to a lone daemon" reference
                r1.Wire.witnesses
          | None -> Alcotest.fail "offline preparation failed")
        [ formula_a; formula_b; formula_c ];
      (* each replica knows its shard *)
      List.iteri
        (fun i sock ->
          match Client.call ~socket_path:sock Wire.Status with
          | Wire.Metrics { info; _ } ->
              Alcotest.(check (option string)) "shard id reported"
                (Some (Printf.sprintf "%d/2" i))
                (List.assoc_opt "shard" info)
          | _ -> Alcotest.fail "expected a metrics response")
        shards;
      (* shutting down every replica ends the supervisor cleanly *)
      List.iter
        (fun sock ->
          match Client.call ~socket_path:sock Wire.Shutdown with
          | Wire.Bye -> ()
          | _ -> Alcotest.fail "expected bye")
        shards;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "fleet supervisor exited cleanly" true
        (match status with Unix.WEXITED 0 -> true | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "daemon"
    [
      ( "daemon",
        [
          Alcotest.test_case "socket end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "fleet end to end" `Quick test_fleet_end_to_end;
        ] );
    ]
