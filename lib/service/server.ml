type config = {
  socket_path : string;
  scheduler : Scheduler.config;
  log : string -> unit;
}

let default_config ~socket_path =
  { socket_path; scheduler = Scheduler.default_config; log = ignore }

type conn = {
  fd : Unix.file_descr;
  decoder : Wire.Decoder.t;
  waiting : (int, unit) Hashtbl.t;  (* scheduler ids owed a response *)
  mutable alive : bool;
}

type state = {
  cfg : config;
  sched : Scheduler.t;
  mutable conns : conn list;
  conn_of_id : (int, conn) Hashtbl.t;
  tag_of_id : (int, string) Hashtbl.t;
  id_of_tag : (string, int) Hashtbl.t;  (* last submission wins *)
  mutable shutting_down : bool;
}

let read_chunk = 65536

let forget_id st id =
  Hashtbl.remove st.conn_of_id id;
  match Hashtbl.find_opt st.tag_of_id id with
  | None -> ()
  | Some tag ->
      Hashtbl.remove st.tag_of_id id;
      (* only clear the forward mapping if it still points at us *)
      (match Hashtbl.find_opt st.id_of_tag tag with
      | Some id' when id' = id -> Hashtbl.remove st.id_of_tag tag
      | _ -> ())

let close_conn st c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.iter
      (fun id () ->
        ignore (Scheduler.cancel st.sched id : bool);
        forget_id st id)
      c.waiting;
    Hashtbl.reset c.waiting;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c' -> c' != c) st.conns
  end

let send st c response =
  if c.alive then
    try Wire.write_frame c.fd (Json.to_string (Wire.response_to_json response))
    with Unix.Unix_error _ | Wire.Frame_error _ -> close_conn st c

let deliver st id response =
  match Hashtbl.find_opt st.conn_of_id id with
  | None -> ()  (* connection went away; request was cancelled or raced *)
  | Some c ->
      Hashtbl.remove c.waiting id;
      forget_id st id;
      send st c response

let handle_request st c = function
  | Wire.Status ->
      let snap = Obs.Metrics.snapshot () in
      (* service histograms surface as factor-of-2 percentile fields so
         clients can watch queue-wait degradation without scraping a
         metrics report (e.g. service.queue_wait_seconds.p90) *)
      let percentiles =
        List.concat_map
          (fun (name, data) ->
            if String.length name >= 8 && String.sub name 0 8 = "service." then
              [
                (name ^ ".count", float_of_int data.Obs.Metrics.Hist.count);
                (name ^ ".p50", Obs.Metrics.Hist.quantile data 0.5);
                (name ^ ".p90", Obs.Metrics.Hist.quantile data 0.9);
                (name ^ ".p99", Obs.Metrics.Hist.quantile data 0.99);
              ]
            else [])
          snap.Obs.Metrics.histograms
      in
      let values =
        List.map (fun (k, v) -> (k, float_of_int v)) snap.Obs.Metrics.counters
        @ snap.Obs.Metrics.gauges @ percentiles
        @ [
            ("server.uptime_seconds", Scheduler.uptime_s st.sched);
            ( "server.jobs",
              float_of_int (Scheduler.config st.sched).Scheduler.jobs );
          ]
      in
      (* provenance: which build is answering *)
      let info =
        ("ocaml_version", Sys.ocaml_version)
        ::
        match (Scheduler.config st.sched).Scheduler.spill_dir with
        | Some dir -> [ ("spill_dir", dir) ]
        | None -> []
      in
      send st c (Wire.Metrics { values; info })
  | Wire.Window -> send st c (Wire.Window_report (Scheduler.window_report st.sched))
  | Wire.Shutdown ->
      st.cfg.log "shutdown requested; draining";
      st.shutting_down <- true;
      send st c Wire.Bye
  | Wire.Cancel tag -> (
      match Hashtbl.find_opt st.id_of_tag tag with
      | None -> send st c (Wire.Cancel_result false)
      | Some id ->
          let cancelled = Scheduler.cancel st.sched id in
          if cancelled then
            deliver st id (Wire.Cancelled { rsp_tag = Some tag })
          else forget_id st id;
          send st c (Wire.Cancel_result cancelled))
  | Wire.Sample w -> (
      if st.shutting_down then
        send st c
          (Wire.Rejected { reason = Wire.Draining; retry_after_s = 0.0 })
      else
        match Cnf.Dimacs.parse_string w.Wire.formula_text with
        | exception Cnf.Dimacs.Parse_error msg ->
            send st c (Wire.Error_msg ("formula: " ^ msg))
        | formula -> (
            let req = Scheduler.request_of_wire formula w in
            match Scheduler.submit st.sched req with
            | Error { Scheduler.reason; retry_after_s } ->
                send st c (Wire.Rejected { reason; retry_after_s })
            | Ok id ->
                Hashtbl.replace c.waiting id ();
                Hashtbl.replace st.conn_of_id id c;
                (match w.Wire.tag with
                | None -> ()
                | Some tag ->
                    Hashtbl.replace st.tag_of_id id tag;
                    Hashtbl.replace st.id_of_tag tag id)))

let handle_readable st c =
  let buf = Bytes.create read_chunk in
  match Unix.read c.fd buf 0 read_chunk with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn st c
  | 0 -> close_conn st c
  | n -> (
      Wire.Decoder.feed c.decoder buf n;
      try
        let continue = ref true in
        while !continue && c.alive do
          match Wire.Decoder.next c.decoder with
          | None -> continue := false
          | Some payload -> (
              match Wire.request_of_json (Json.of_string payload) with
              | request -> handle_request st c request
              | exception Json.Decode_error msg ->
                  send st c (Wire.Error_msg ("bad request: " ^ msg)))
        done
      with Wire.Frame_error msg ->
        send st c (Wire.Error_msg ("bad frame: " ^ msg));
        close_conn st c)

let with_signals handler f =
  let installed = [ Sys.sigint; Sys.sigterm ] in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle (fun _ -> handler ()))))
      installed
  in
  let pipe_prev =
    (* writes to a dead client must surface as EPIPE, not kill us *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect f ~finally:(fun () ->
      List.iter (fun (s, b) -> Sys.set_signal s b) previous;
      match pipe_prev with
      | Some b -> Sys.set_signal Sys.sigpipe b
      | None -> ())

let run cfg =
  (* the status op reports live counters; a daemon with a dead status
     endpoint is useless, so recording is on regardless of CLI flags *)
  Obs.Metrics.enable ();
  let sched = Scheduler.create ~config:cfg.scheduler () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup_socket () =
    match (Unix.stat cfg.socket_path).Unix.st_kind with
    | Unix.S_SOCK -> Unix.unlink cfg.socket_path
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  cleanup_socket ();
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (* the scheduler's worker domains are already up: join them *)
     Scheduler.shutdown sched;
     raise e);
  let st =
    {
      cfg;
      sched;
      conns = [];
      conn_of_id = Hashtbl.create 64;
      tag_of_id = Hashtbl.create 64;
      id_of_tag = Hashtbl.create 64;
      shutting_down = false;
    }
  in
  let listening = ref true in
  let stop_listening () =
    if !listening then begin
      listening := false;
      try Unix.close listen_fd with Unix.Unix_error _ -> ()
    end
  in
  cfg.log (Printf.sprintf "listening on %s" cfg.socket_path);
  Obs.Log.event "service.start"
    ([
       ("socket", Obs.Report.String cfg.socket_path);
       ("jobs", Obs.Report.Int cfg.scheduler.Scheduler.jobs);
       ("ocaml_version", Obs.Report.String Sys.ocaml_version);
     ]
    @
    match cfg.scheduler.Scheduler.spill_dir with
    | Some dir -> [ ("spill_dir", Obs.Report.String dir) ]
    | None -> []);
  with_signals (fun () -> st.shutting_down <- true) @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      stop_listening ();
      List.iter (fun c -> close_conn st c) st.conns;
      cleanup_socket ();
      Scheduler.shutdown sched)
  @@ fun () ->
  let finished () = st.shutting_down && Scheduler.pending sched = 0 in
  while not (finished ()) do
    if st.shutting_down then begin
      if not (Scheduler.is_draining sched) then Scheduler.set_draining sched;
      stop_listening ()
    end;
    let fds =
      (if !listening then [ listen_fd ] else [])
      @ (Scheduler.notify_fd sched  (* worker-completion self-pipe *)
        :: List.map (fun c -> c.fd) st.conns)
    in
    (* the notify pipe wakes the select the moment a worker finishes,
       and queued work only becomes dispatchable on a completion (a
       free slot or a freed fingerprint) or a new request, both of
       which make an fd readable *)
    (match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if !listening && fd == listen_fd then begin
              match Unix.accept listen_fd with
              | exception Unix.Unix_error _ -> ()
              | client_fd, _ ->
                  st.conns <-
                    {
                      fd = client_fd;
                      decoder = Wire.Decoder.create ();
                      waiting = Hashtbl.create 4;
                      alive = true;
                    }
                    :: st.conns
            end
            else
              match List.find_opt (fun c -> c.fd == fd) st.conns with
              | Some c -> handle_readable st c
              | None -> ())
          readable);
    let flush () =
      List.iter
        (fun (id, response) -> deliver st id response)
        (Scheduler.completions sched)
    in
    flush ();
    ignore (Scheduler.dispatch sched : int);
    (* dispatch completes already-missed deadlines inline *)
    flush ()
  done;
  Obs.Log.event "service.stop"
    [ ("uptime_s", Obs.Report.Float (Scheduler.uptime_s sched)) ];
  cfg.log "drained; exiting"
