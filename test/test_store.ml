(* Durable blob store: round trips, corruption quarantine, the embedded
   key check, LRU-by-mtime budget enforcement, and the crash-safe write
   path. All tests run against throwaway directories under the system
   temp dir. *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmpdir f =
  let dir = Filename.temp_file "unigen_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let quarantined dir =
  let qdir = Filename.concat dir "quarantine" in
  if Sys.file_exists qdir then Array.length (Sys.readdir qdir) else 0

let counter_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters with
  | Some v -> v
  | None -> 0

let no_staging_residue label dir =
  Array.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: no staging residue: %s" label name)
        false
        (Filename.check_suffix name ".tmp"))
    (Sys.readdir dir)

let test_round_trip () =
  with_tmpdir @@ fun dir ->
  let t = Store.create ~dir () in
  Alcotest.(check (option string)) "absent" None (Store.find t ~key:"k");
  Alcotest.(check bool) "absent mem" false (Store.mem t ~key:"k");
  Store.put t ~key:"k" "payload-bytes";
  Alcotest.(check bool) "mem after put" true (Store.mem t ~key:"k");
  Alcotest.(check (option string)) "find after put" (Some "payload-bytes")
    (Store.find t ~key:"k");
  Alcotest.(check int) "one live entry" 1 (Store.length t);
  Alcotest.(check bool) "bytes accounted" true (Store.total_bytes t > 0);
  (* payloads are opaque bytes: newlines, NULs, header look-alikes *)
  let hostile = "unigen-store-v1\n\x00\nbinary\n42\n" in
  Store.put t ~key:"k" hostile;
  Alcotest.(check (option string)) "overwrite + hostile payload"
    (Some hostile) (Store.find t ~key:"k");
  Alcotest.(check int) "overwrite keeps one entry" 1 (Store.length t);
  (* the empty payload is a valid entry, distinct from absence *)
  Store.put t ~key:"empty" "";
  Alcotest.(check (option string)) "empty payload round-trips" (Some "")
    (Store.find t ~key:"empty");
  Alcotest.(check bool) "remove" true (Store.remove t ~key:"k");
  Alcotest.(check bool) "remove is once" false (Store.remove t ~key:"k");
  Alcotest.(check (option string)) "gone" None (Store.find t ~key:"k");
  (* distinct keys must not collide on disk *)
  Store.put t ~key:"a" "A";
  Store.put t ~key:"b" "B";
  Alcotest.(check (option string)) "key a" (Some "A") (Store.find t ~key:"a");
  Alcotest.(check (option string)) "key b" (Some "B") (Store.find t ~key:"b");
  (* no .tmp staging file survives a completed write *)
  no_staging_residue "round trip" dir

let test_invalid_arguments () =
  with_tmpdir @@ fun dir ->
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Store.create: budget_bytes must be >= 0") (fun () ->
      ignore (Store.create ~budget_bytes:(-1) ~dir () : Store.t));
  let t = Store.create ~dir () in
  Alcotest.check_raises "newline in key"
    (Invalid_argument "Store.put: key must not contain newlines") (fun () ->
      Store.put t ~key:"bad\nkey" "p")

(* Every corruption mode must read as a miss, move the evidence into
   quarantine/, and leave the other entries untouched. *)
let test_corruption_quarantine () =
  let corrupt label mutate =
    with_tmpdir @@ fun dir ->
    let t = Store.create ~dir () in
    Store.put t ~key:"victim" "precious-payload";
    Store.put t ~key:"bystander" "other";
    let path = Store.entry_path t ~key:"victim" in
    Store.atomic_write ~dir ~path (mutate (read_file path));
    Alcotest.(check (option string))
      (label ^ ": reads as a miss")
      None
      (Store.find t ~key:"victim");
    Alcotest.(check bool)
      (label ^ ": entry file gone")
      false
      (Sys.file_exists path);
    Alcotest.(check int) (label ^ ": evidence kept") 1 (quarantined dir);
    Alcotest.(check (option string))
      (label ^ ": bystander intact")
      (Some "other")
      (Store.find t ~key:"bystander")
  in
  corrupt "flipped payload byte" (fun raw ->
      let b = Bytes.of_string raw in
      let i = Bytes.length b - 1 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Bytes.to_string b);
  corrupt "truncated file" (fun raw ->
      String.sub raw 0 (String.length raw - 5));
  corrupt "bad magic" (fun raw -> "unigen-store-v0" ^ String.sub raw 15 (String.length raw - 15));
  corrupt "garbage" (fun _ -> "not a store entry at all")

let test_embedded_key_mismatch () =
  (* a verifiable-but-misplaced file (filename hash collision, manual
     shuffling) must be rejected by the embedded key, not served *)
  with_tmpdir @@ fun dir ->
  let t = Store.create ~dir () in
  Store.put t ~key:"alpha" "alpha-payload";
  let stray = read_file (Store.entry_path t ~key:"alpha") in
  Store.atomic_write ~dir ~path:(Store.entry_path t ~key:"beta") stray;
  Alcotest.(check (option string)) "misplaced entry is a miss" None
    (Store.find t ~key:"beta");
  Alcotest.(check int) "misplaced entry quarantined" 1 (quarantined dir);
  Alcotest.(check (option string)) "original still served"
    (Some "alpha-payload")
    (Store.find t ~key:"alpha")

let test_explicit_quarantine () =
  with_tmpdir @@ fun dir ->
  let t = Store.create ~dir () in
  Store.put t ~key:"k" "payload";
  Store.quarantine t ~key:"k" ~reason:"codec version mismatch";
  Alcotest.(check bool) "entry gone" false (Store.mem t ~key:"k");
  Alcotest.(check int) "moved to quarantine" 1 (quarantined dir);
  (* idempotent on an absent entry *)
  Store.quarantine t ~key:"k" ~reason:"again";
  Alcotest.(check int) "no duplicate evidence" 1 (quarantined dir)

let test_budget_eviction () =
  with_tmpdir @@ fun dir ->
  let payload = String.make 1_000 'x' in
  (* measure one entry's on-disk size, then budget for two and a half *)
  let probe = Store.create ~dir () in
  Store.put probe ~key:"probe" payload;
  let entry_bytes = Store.total_bytes probe in
  ignore (Store.remove probe ~key:"probe" : bool);
  let t = Store.create ~budget_bytes:(2 * entry_bytes + (entry_bytes / 2)) ~dir () in
  let backdate key mtime =
    Unix.utimes (Store.entry_path t ~key) mtime mtime
  in
  Store.put t ~key:"a" payload;
  backdate "a" 1_000.0;
  Store.put t ~key:"b" payload;
  backdate "b" 2_000.0;
  Store.put t ~key:"c" payload;
  (* three entries exceed the budget: the stalest goes, the entry just
     written is never its own victim *)
  Alcotest.(check bool) "stalest evicted" false (Store.mem t ~key:"a");
  Alcotest.(check bool) "middle kept" true (Store.mem t ~key:"b");
  Alcotest.(check bool) "just-written kept" true (Store.mem t ~key:"c");
  Alcotest.(check bool) "back under budget" true
    (Store.total_bytes t <= Store.budget_bytes t);
  (* a find refreshes the LRU clock: the read entry outlives a staler one *)
  backdate "b" 1_000.0;
  backdate "c" 2_000.0;
  ignore (Store.find t ~key:"b" : string option);
  Store.put t ~key:"d" payload;
  Alcotest.(check bool) "unread entry evicted" false (Store.mem t ~key:"c");
  Alcotest.(check bool) "read entry survives" true (Store.mem t ~key:"b");
  Alcotest.(check bool) "new entry kept" true (Store.mem t ~key:"d")

let test_oversized_entry_kept () =
  with_tmpdir @@ fun dir ->
  let t = Store.create ~budget_bytes:10 ~dir () in
  Store.put t ~key:"big" (String.make 1_000 'y');
  Alcotest.(check bool) "one oversized entry is kept" true
    (Store.mem t ~key:"big");
  Store.put t ~key:"bigger" (String.make 1_000 'z');
  Alcotest.(check bool) "older oversized entry evicted" false
    (Store.mem t ~key:"big");
  Alcotest.(check (option string)) "newest always wins"
    (Some (String.make 1_000 'z'))
    (Store.find t ~key:"bigger")

let test_atomic_write () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "sidecar.bin" in
  Store.atomic_write ~dir ~path "first";
  Alcotest.(check string) "contents land" "first" (read_file path);
  Store.atomic_write ~dir ~path "second";
  Alcotest.(check string) "overwrite is atomic" "second" (read_file path);
  no_staging_residue "atomic write" dir

(* Spill-write failures must degrade to RAM-only, never raise: the
   daemon holds a computed response when the spill runs, and an opt-in
   durability tier crashing on a sick disk would lose it. *)
let test_write_failure_degrades () =
  with_tmpdir @@ fun dir ->
  let sub = Filename.concat dir "spill" in
  let t = Store.create ~dir:sub () in
  Store.put t ~key:"k" "payload";
  (* the directory vanishing underneath the store stands in for any
     write-path I/O failure (ENOSPC, EACCES, rename failure) *)
  rm_rf sub;
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  let before = counter_value "store.write_error" in
  Store.put t ~key:"k" "payload-after-disk-vanished";
  Alcotest.(check int) "write error counted" (before + 1)
    (counter_value "store.write_error");
  Alcotest.(check (option string)) "degraded entry reads as a miss" None
    (Store.find t ~key:"k")

(* A rename that cannot land (here: a directory squatting on the entry
   path) must not raise either, and must clean up its staging file. *)
let test_failed_write_cleans_staging () =
  with_tmpdir @@ fun dir ->
  let t = Store.create ~dir () in
  Unix.mkdir (Store.entry_path t ~key:"k") 0o700;
  Store.put t ~key:"k" "payload";
  no_staging_residue "failed write" dir

let test_quarantine_cap () =
  with_tmpdir @@ fun dir ->
  let t = Store.create ~dir () in
  (* systematic corruption — e.g. codec version skew quarantining every
     old spill — must keep only bounded evidence *)
  for i = 1 to Store.quarantine_keep + 5 do
    let key = Printf.sprintf "k%d" i in
    Store.put t ~key "payload";
    Store.quarantine t ~key ~reason:"version skew"
  done;
  Alcotest.(check int) "evidence bounded" Store.quarantine_keep
    (quarantined dir)

let test_stale_tmp_sweep () =
  with_tmpdir @@ fun dir ->
  (* a writer killed mid-spill leaves its private staging file behind;
     reopening the store sweeps old ones but keeps recent ones, which
     may belong to an in-flight write of another daemon process *)
  let stale = Filename.concat dir "dead.prep.12345.tmp" in
  let fresh = Filename.concat dir "live.prep.67890.tmp" in
  let plant path =
    let oc = open_out_bin path in
    output_string oc "partial";
    close_out oc
  in
  plant stale;
  plant fresh;
  let old = Unix.gettimeofday () -. 7200. in
  Unix.utimes stale old old;
  let (_ : Store.t) = Store.create ~dir () in
  Alcotest.(check bool) "stale staging file swept" false
    (Sys.file_exists stale);
  Alcotest.(check bool) "recent staging file kept" true
    (Sys.file_exists fresh)

let test_reopen_persists () =
  (* the whole point of the tier: a fresh store instance over the same
     directory — a restarted daemon — still serves the entry *)
  with_tmpdir @@ fun dir ->
  let t = Store.create ~dir () in
  Store.put t ~key:"k" "survives-restart";
  let t' = Store.create ~dir () in
  Alcotest.(check (option string)) "entry outlives the instance"
    (Some "survives-restart")
    (Store.find t' ~key:"k");
  Alcotest.(check int) "length agrees" 1 (Store.length t')

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "corruption quarantine" `Quick
            test_corruption_quarantine;
          Alcotest.test_case "embedded key mismatch" `Quick
            test_embedded_key_mismatch;
          Alcotest.test_case "explicit quarantine" `Quick
            test_explicit_quarantine;
          Alcotest.test_case "budget eviction" `Quick test_budget_eviction;
          Alcotest.test_case "oversized entry kept" `Quick
            test_oversized_entry_kept;
          Alcotest.test_case "atomic write" `Quick test_atomic_write;
          Alcotest.test_case "write failure degrades" `Quick
            test_write_failure_degrades;
          Alcotest.test_case "failed write cleans staging" `Quick
            test_failed_write_cleans_staging;
          Alcotest.test_case "quarantine cap" `Quick test_quarantine_cap;
          Alcotest.test_case "stale tmp sweep" `Quick test_stale_tmp_sweep;
          Alcotest.test_case "reopen persists" `Quick test_reopen_persists;
        ] );
    ]
