let magic = "unigen-store-v1"
let entry_suffix = ".prep"
let tmp_suffix = ".tmp"
let quarantine_dirname = "quarantine"
let quarantine_keep = 16
let default_budget_bytes = 256 * 1024 * 1024
let stale_tmp_age_s = 3600.

let c_hits = Obs.Metrics.counter "store.hit"
let c_misses = Obs.Metrics.counter "store.miss"
let c_spills = Obs.Metrics.counter "store.spill"
let c_corrupt = Obs.Metrics.counter "store.corrupt"
let c_evictions = Obs.Metrics.counter "store.eviction"
let c_write_errors = Obs.Metrics.counter "store.write_error"

type t = { dir : string; budget_bytes : int; owner : Audit.Ownership.t }

let rec mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      let parent = Filename.dirname dir in
      if parent <> dir then begin
        mkdir_p parent;
        match Unix.mkdir dir 0o755 with
        | () -> ()
        | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      end

(* A writer killed mid-spill leaves its private .tmp file behind; sweep
   ones old enough that no live writer can still own them (writes take
   milliseconds, the threshold is an hour). Recent temps may belong to
   an in-flight write of another daemon process sharing the directory,
   so they are kept. *)
let sweep_stale_tmps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      let now = Unix.gettimeofday () in
      Array.iter
        (fun name ->
          if Filename.check_suffix name tmp_suffix then begin
            let path = Filename.concat dir name in
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
              when now -. st_mtime > stale_tmp_age_s -> (
                try Unix.unlink path with Unix.Unix_error _ -> ())
            | _ -> ()
            | exception Unix.Unix_error _ -> ()
          end)
        names

let create ?(budget_bytes = default_budget_bytes) ~dir () =
  if budget_bytes < 0 then
    invalid_arg "Store.create: budget_bytes must be >= 0";
  mkdir_p dir;
  sweep_stale_tmps dir;
  { dir; budget_bytes; owner = Audit.Ownership.create "durable store" }

let dir t = t.dir
let budget_bytes t = t.budget_bytes

let entry_path t ~key =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ entry_suffix)

(* ------------------------------------------------------------------ *)
(* Crash-safe writes. The one sanctioned write path for spill files:
   the durable-write-discipline lint rule flags open_out/output_*
   writes under lib/store and lib/service that bypass it. *)

let write_all fd data =
  let len = String.length data in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd data !sent (len - !sent)
  done

let atomic_write ~dir ~path data =
  (* the temp name carries the writer's pid: daemon processes may share
     one spill directory, and a fixed [path ^ ".tmp"] would let two
     processes spilling the same key O_TRUNC each other's in-flight
     staging file — the rename could then publish a torn entry and the
     losing rename would raise ENOENT. A per-pid temp is private until
     the rename, which stays the only cross-process-visible step. *)
  let tmp = Printf.sprintf "%s.%d%s" path (Unix.getpid ()) tmp_suffix in
  (match
     let fd =
       Unix.openfile tmp
         [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
         0o644
     in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         write_all fd data;
         Unix.fsync fd);
     Unix.rename tmp path
   with
  | () -> ()
  | exception e ->
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      raise e);
  (* fsync the directory so the rename itself is durable; some
     filesystems refuse fsync on a directory fd — losing only the
     rename's durability, not atomicity — so errors are swallowed *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Directory scan and budget enforcement *)

let live_entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name entry_suffix then
               let path = Filename.concat t.dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                   Some (path, st_size, st_mtime)
               | _ -> None
               | exception Unix.Unix_error _ -> None
             else None)

let length t = List.length (live_entries t)

let total_bytes t =
  List.fold_left (fun acc (_, size, _) -> acc + size) 0 (live_entries t)

let set_bytes_gauge bytes =
  Obs.Metrics.set_gauge "store.bytes" (float_of_int bytes)

(* Evict least-recently-used entries (by mtime — find refreshes it on
   every hit) until the directory fits the budget again. [keep] — the
   entry just written — is never its own victim, so a single oversized
   entry is stored rather than bouncing. *)
let enforce_budget t ~keep =
  let entries =
    live_entries t
    |> List.sort (fun (pa, _, ma) (pb, _, mb) ->
           if Float.equal ma mb then String.compare pa pb
           else Float.compare ma mb)
  in
  let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries in
  let remaining = ref total in
  List.iter
    (fun (path, size, _) ->
      if !remaining > t.budget_bytes && path <> keep then begin
        match Unix.unlink path with
        | () ->
            remaining := !remaining - size;
            Obs.Metrics.incr c_evictions
        | exception Unix.Unix_error _ -> ()
      end)
    entries;
  set_bytes_gauge !remaining

(* ------------------------------------------------------------------ *)
(* Entry codec *)

let encode_entry ~key payload =
  let body =
    String.concat "\n" [ key; string_of_int (String.length payload); payload ]
  in
  magic ^ "\n" ^ Digest.to_hex (Digest.string body) ^ "\n" ^ body

(* Split one header line off [s] starting at [off]. *)
let header_line s off =
  match String.index_from_opt s off '\n' with
  | None -> None
  | Some nl -> Some (String.sub s off (nl - off), nl + 1)

let decode_entry ~key raw =
  match header_line raw 0 with
  | None -> Error "missing header"
  | Some (m, _) when m <> magic -> Error ("bad magic " ^ m)
  | Some (_, off) -> (
      match header_line raw off with
      | None -> Error "missing checksum line"
      | Some (digest, body_off) ->
          let body = String.sub raw body_off (String.length raw - body_off) in
          if Digest.to_hex (Digest.string body) <> digest then
            Error "checksum mismatch"
          else begin
            match header_line body 0 with
            | None -> Error "missing key line"
            | Some (k, _) when k <> key -> Error "key mismatch"
            | Some (_, off) -> (
                match header_line body off with
                | None -> Error "missing length line"
                | Some (len_line, payload_off) -> (
                    match int_of_string_opt len_line with
                    | None -> Error "malformed length"
                    | Some len ->
                        if String.length body - payload_off <> len then
                          Error "truncated payload"
                        else Ok (String.sub body payload_off len)))
          end)

(* ------------------------------------------------------------------ *)
(* Operations *)

(* Quarantined files are debugging evidence, not data: keep only the
   [quarantine_keep] most recent so systematic corruption — say a codec
   version skew across an upgrade quarantining every old spill —
   cannot grow the directory without bound (the disk budget never
   scans quarantine/). *)
let prune_quarantine qdir =
  match Sys.readdir qdir with
  | exception Sys_error _ -> ()
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             let path = Filename.concat qdir name in
             match Unix.stat path with
             | { Unix.st_kind = Unix.S_REG; st_mtime; _ } ->
                 Some (path, st_mtime)
             | _ -> None
             | exception Unix.Unix_error _ -> None)
      |> List.sort (fun (pa, ma) (pb, mb) ->
             (* newest first; path tiebreak keeps the order total *)
             match Float.compare mb ma with
             | 0 -> String.compare pa pb
             | c -> c)
      |> List.iteri (fun i (path, _) ->
             if i >= quarantine_keep then
               try Unix.unlink path with Unix.Unix_error _ -> ())

let quarantine_path t path ~reason =
  let qdir = Filename.concat t.dir quarantine_dirname in
  (* quarantine runs on the load path and must never raise: if the
     subdirectory cannot be created the rename below fails too and the
     evidence is dropped rather than preserved *)
  (try mkdir_p qdir with Unix.Unix_error _ -> ());
  let dest = Filename.concat qdir (Filename.basename path) in
  (match Unix.rename path dest with
  | () ->
      (* refresh so pruning age reflects quarantine time, not spill time *)
      (try Unix.utimes dest 0.0 0.0 with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> (
      try Unix.unlink path with Unix.Unix_error _ -> ()));
  prune_quarantine qdir;
  Obs.Metrics.incr c_corrupt;
  Obs.Log.event ~level:Obs.Log.Warn "store.quarantine"
    [
      ("file", Obs.Report.String (Filename.basename path));
      ("reason", Obs.Report.String reason);
    ]

let quarantine t ~key ~reason =
  Audit.Ownership.check t.owner;
  let path = entry_path t ~key in
  if Sys.file_exists path then quarantine_path t path ~reason

let put t ~key payload =
  Audit.Ownership.check t.owner;
  if String.contains key '\n' then
    invalid_arg "Store.put: key must not contain newlines";
  Obs.Trace.span ~cat:"store" "store.spill"
    ~args:[ ("bytes", string_of_int (String.length payload)) ]
  @@ fun () ->
  let path = entry_path t ~key in
  match atomic_write ~dir:t.dir ~path (encode_entry ~key payload) with
  | () ->
      Obs.Metrics.incr c_spills;
      enforce_budget t ~keep:path
  | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
      (* a full or read-only disk must not take the daemon down with a
         computed response in hand: the opt-in durability tier degrades
         to RAM-only (the entry is already in the LRU above us) instead
         of turning a transient disk error into a crash *)
      Obs.Metrics.incr c_write_errors;
      Obs.Log.event ~level:Obs.Log.Warn "store.spill_failed"
        [
          ("file", Obs.Report.String (Filename.basename path));
          ("error", Obs.Report.String (Printexc.to_string e));
        ]

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let find t ~key =
  Audit.Ownership.check t.owner;
  let path = entry_path t ~key in
  match read_file path with
  | None ->
      Obs.Metrics.incr c_misses;
      None
  | Some raw -> (
      Obs.Trace.span ~cat:"store" "store.load"
        ~args:[ ("bytes", string_of_int (String.length raw)) ]
      @@ fun () ->
      match decode_entry ~key raw with
      | Ok payload ->
          (* refresh the LRU clock; both timestamps 0.0 = "now" *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Obs.Metrics.incr c_hits;
          Some payload
      | Error reason ->
          quarantine_path t path ~reason;
          None)

let mem t ~key = Sys.file_exists (entry_path t ~key)

let remove t ~key =
  Audit.Ownership.check t.owner;
  match Unix.unlink (entry_path t ~key) with
  | () -> true
  | exception Unix.Unix_error _ -> false
