(* End-to-end tests of the sampling daemon (Service.Server) in forked
   child processes, over real Unix sockets. They live in their own
   executable because OCaml 5 forbids [Unix.fork] in a process that has
   ever spawned a domain, and every in-process [Scheduler.create]
   spawns its worker domains. Daemon tests that serve from a domain of
   the test process stay in test_service.ml. *)

module Wire = Service.Wire

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

let () =
  Alcotest.run "daemon"
    [
      ( "daemon",
        [
          Alcotest.test_case "socket end to end" `Quick test_socket_end_to_end;
        ] );
    ]
