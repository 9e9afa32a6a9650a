let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let hit file (tok : Token.t) message : Rule.hit =
  { file; line = tok.line; message }

let lower_ident (tok : Token.t) =
  match tok.kind with Token.Ident s when s <> "" -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* domain-escape *)

(* Top-level mutable bindings: a column-0 [let NAME = ALLOC ...] (or
   [let NAME : ty = ALLOC ...]) whose right-hand side starts with a
   mutable constructor. [let f x = ... Hashtbl.create ...] is a
   per-call allocation, not shared state, and is skipped because the
   name is followed by parameters rather than [=]/[:]. *)
let top_mutables (src : Rule.source) starts =
  let code = src.code in
  let n = Array.length code in
  let mutable_alloc k =
    (Rule.is_word code.(k) "ref" && not (Rule.prev_dotted code k))
    || Rule.ends_qualified code k [ "Hashtbl"; "create" ] <> None
    || Rule.ends_qualified code k [ "Queue"; "create" ] <> None
    || Rule.ends_qualified code k [ "Buffer"; "create" ] <> None
  in
  let names = ref [] in
  Array.iter
    (fun s ->
      let _, hi = Rule.item_span starts code s in
      if Rule.is_word code.(s) "let" && s + 2 < n then
        match lower_ident code.(s + 1) with
        | Some name
          when code.(s + 2).kind = Token.Op '='
               || code.(s + 2).kind = Token.Op ':' -> begin
            (* first token after the binding's [=], skipping opening
               parens *)
            let j = ref (s + 2) in
            while !j < hi && code.(!j).kind <> Token.Op '=' do incr j done;
            incr j;
            while !j < hi && code.(!j).kind = Token.Op '(' do incr j done;
            if !j < hi && mutable_alloc !j then names := name :: !names
          end
        | _ -> ())
    starts;
  !names

let spawn_paths =
  [ [ "Domain_pool"; "submit" ]; [ "Domain_pool"; "map" ];
    [ "Domain_pool"; "iteri" ] ]

let domain_escape : Rule.t =
  {
    name = "domain-escape";
    severity = Findings.Error;
    doc =
      "Top-level mutable state (ref/Hashtbl/Queue/Buffer) used inside \
       work handed to Domain_pool.submit/map/iteri without \
       Atomic/Mutex/DLS mediation: worker domains race the owner on \
       it. Lexical approximation: flagged when the name occurs after \
       the submit call within the same top-level item and no \
       Mutex.lock or Domain.DLS use precedes the occurrence.";
    phase =
      Rule.File
        (fun src ->
          let code = src.code in
          let starts = Rule.item_starts src in
          match top_mutables src starts with
          | [] -> []
          | mutables ->
              let acc = ref [] in
              Array.iteri
                (fun i _ ->
                  if
                    List.exists
                      (fun p -> Rule.ends_qualified code i p <> None)
                      spawn_paths
                  then begin
                    let _, hi = Rule.item_span starts code i in
                    List.iter
                      (fun name ->
                        let reported = ref false in
                        let mediated = ref false in
                        for j = i + 1 to hi - 1 do
                          if
                            Rule.ends_qualified code j [ "Mutex"; "lock" ]
                            <> None
                            || Rule.is_word code.(j) "DLS"
                          then mediated := true;
                          if
                            (not !reported) && (not !mediated)
                            && Rule.is_word code.(j) name
                            && not (Rule.prev_dotted code j)
                          then begin
                            reported := true;
                            acc :=
                              hit src.path code.(j)
                                (Printf.sprintf
                                   "top-level mutable '%s' reached from a \
                                    closure passed to %s without \
                                    Atomic/Mutex/DLS mediation; worker \
                                    domains race the owner on it"
                                   name
                                   (match Rule.dotted_path_at code i with
                                   | Some (p, _) -> p
                                   | None -> "a domain spawn"))
                              :: !acc
                          end
                        done)
                      mutables
                  end)
                code;
              List.rev !acc);
  }

(* ------------------------------------------------------------------ *)
(* atomic-read-modify-write *)

let atomic_arg code i op =
  match Rule.ends_qualified code i [ "Atomic"; op ] with
  | None -> None
  | Some stop -> (
      match Rule.dotted_path_at code stop with
      | Some (name, _) -> Some name
      | None -> None (* parenthesized or computed cell *))

let atomic_rmw : Rule.t =
  {
    name = "atomic-read-modify-write";
    severity = Findings.Warn;
    doc =
      "An Atomic.get x followed by Atomic.set x on the same cell in one \
       top-level item is a lost-update window between the read and the \
       write; use Atomic.compare_and_set or Atomic.fetch_and_add. Items \
       that already use a CAS/fetch primitive on the cell are exempt.";
    phase =
      Rule.File
        (fun src ->
          let code = src.code in
          let starts = Rule.item_starts src in
          let acc = ref [] in
          let n = Array.length code in
          let i = ref 0 in
          while !i < n do
            let lo, hi = Rule.item_span starts code !i in
            let gets = ref [] and rmw = ref [] in
            for j = lo to hi - 1 do
              (match atomic_arg code j "get" with
              | Some name -> gets := (name, j) :: !gets
              | None -> ());
              List.iter
                (fun op ->
                  match atomic_arg code j op with
                  | Some name -> rmw := name :: !rmw
                  | None -> ())
                [ "compare_and_set"; "fetch_and_add"; "exchange" ];
              match atomic_arg code j "set" with
              | Some name
                when List.exists (fun (g, gj) -> g = name && gj < j) !gets
                     && not (List.mem name !rmw) ->
                  acc :=
                    hit src.path code.(j)
                      (Printf.sprintf
                         "Atomic.get/Atomic.set pair on '%s' in one scope \
                          is a lost-update window; use compare_and_set or \
                          fetch_and_add"
                         name)
                    :: !acc
              | _ -> ()
            done;
            i := max (!i + 1) hi
          done;
          List.rev !acc);
  }

(* ------------------------------------------------------------------ *)
(* blocking-in-owner-loop *)

let owner_loop_files = [ "lib/service/server.ml"; "lib/service/scheduler.ml" ]
let sleep_paths = [ [ "Unix"; "sleep" ]; [ "Unix"; "sleepf" ]; [ "Thread"; "delay" ] ]

let blocking_io_paths =
  sleep_paths
  @ [ [ "Unix"; "read" ]; [ "Unix"; "write" ]; [ "Unix"; "select" ] ]

(* The paren-balanced extent of the closure following a [~finish:]
   label: code-index range of [( ... )]. *)
let finish_thunk_extent code i =
  let n = Array.length code in
  if
    i + 2 < n
    && code.(i).Token.kind = Token.Op '~'
    && Rule.is_word code.(i + 1) "finish"
    && code.(i + 2).Token.kind = Token.Op ':'
  then begin
    let j = ref (i + 3) in
    if !j < n && code.(!j).Token.kind = Token.Op '(' then begin
      let depth = ref 1 in
      let k = ref (!j + 1) in
      while !depth > 0 && !k < n do
        (match code.(!k).Token.kind with
        | Token.Op '(' -> incr depth
        | Token.Op ')' -> decr depth
        | _ -> ());
        incr k
      done;
      Some (!j + 1, !k - 1)
    end
    else None
  end
  else None

let blocking_in_owner_loop : Rule.t =
  {
    name = "blocking-in-owner-loop";
    severity = Findings.Error;
    doc =
      "The service owner domain runs the select loop and every executor \
       finish thunk; a sleep anywhere in its modules, or blocking I/O \
       inside a ~finish: closure, stalls every connection at once. Put \
       slow work in the ~work closure (worker domains) instead.";
    phase =
      Rule.File
        (fun src ->
          if not (List.mem src.path owner_loop_files) then []
          else begin
            let code = src.code in
            let acc = ref [] in
            Array.iteri
              (fun i _ ->
                List.iter
                  (fun p ->
                    if Rule.ends_qualified code i p <> None then
                      acc :=
                        hit src.path code.(i)
                          (String.concat "." p
                         ^ " in an owner-loop module stalls the select \
                            loop; sleep belongs on worker domains or in \
                            select timeouts")
                        :: !acc)
                  sleep_paths;
                match finish_thunk_extent code i with
                | None -> ()
                | Some (lo, hi) ->
                    for j = lo to hi - 1 do
                      List.iter
                        (fun p ->
                          if Rule.ends_qualified code j p <> None then
                            acc :=
                              hit src.path code.(j)
                                (String.concat "." p
                               ^ " inside a ~finish: thunk runs on the \
                                  owner domain; finish thunks must only \
                                  touch owner state")
                              :: !acc)
                        blocking_io_paths
                    done)
              code;
            List.rev !acc
          end);
  }

(* ------------------------------------------------------------------ *)
(* mutex-discipline *)

let mutex_discipline : Rule.t =
  {
    name = "mutex-discipline";
    severity = Findings.Warn;
    doc =
      "A Mutex.lock whose top-level item has neither a Mutex.unlock of \
       the same lock nor a Fun.protect: an exception between lock and \
       unlock leaves the mutex held forever and the next contender \
       deadlocked. Lexical approximation over the enclosing item.";
    phase =
      Rule.File
        (fun src ->
          let code = src.code in
          let starts = Rule.item_starts src in
          let acc = ref [] in
          Array.iteri
            (fun i _ ->
              match Rule.ends_qualified code i [ "Mutex"; "lock" ] with
              | None -> ()
              | Some stop -> (
                  match Rule.dotted_path_at code stop with
                  | None -> () (* computed lock expression *)
                  | Some (name, _) ->
                      let lo, hi = Rule.item_span starts code i in
                      let ok = ref false in
                      for j = lo to hi - 1 do
                        (match
                           Rule.ends_qualified code j [ "Mutex"; "unlock" ]
                         with
                        | Some ustop -> (
                            match Rule.dotted_path_at code ustop with
                            | Some (uname, _) when uname = name -> ok := true
                            | _ -> ())
                        | None -> ());
                        if Rule.ends_qualified code j [ "Fun"; "protect" ] <> None
                        then ok := true
                      done;
                      if not !ok then
                        acc :=
                          hit src.path code.(i)
                            (Printf.sprintf
                               "Mutex.lock %s without a matching unlock on \
                                every path in this scope; add Mutex.unlock \
                                %s or wrap in Fun.protect ~finally"
                               name name)
                          :: !acc))
            code;
          List.rev !acc);
  }

(* ------------------------------------------------------------------ *)
(* metric-name-registry *)

let registration_paths =
  [ [ "Metrics"; "counter" ]; [ "Metrics"; "gauge" ];
    [ "Metrics"; "set_gauge" ]; [ "Metrics"; "histogram" ];
    [ "Log"; "event" ] ]

(* The name literal of a registration call: the first string literal
   within a short window after the path, stopping at a statement
   boundary so a computed name is not confused with a later literal. *)
let name_literal code stop =
  let n = Array.length code in
  let rec go j left =
    if left = 0 || j >= n then None
    else
      match code.(j).Token.kind with
      | Token.String s -> Some (s, code.(j))
      | Token.Op ';' -> None
      | _ -> go (j + 1) (left - 1)
  in
  go stop 12

let metric_name_registry : Rule.t =
  {
    name = "metric-name-registry";
    severity = Findings.Error;
    doc =
      "Every Metrics.*/Log.event name literal in lib/ and bin/ must be \
       registered at exactly one site repo-wide and be listed in \
       DESIGN.md's observability-name registry, like the existing span \
       pairing; a duplicate or undocumented name makes dashboards and \
       log queries silently wrong. (Obs.Window carries no name \
       argument, so windows have nothing to register.)";
    phase =
      Rule.Repo
        (fun ctx ->
          let sites = ref [] in
          List.iter
            (fun (src : Rule.source) ->
              if starts_with "lib/" src.path || starts_with "bin/" src.path
              then
                Array.iteri
                  (fun i _ ->
                    List.iter
                      (fun p ->
                        match Rule.ends_qualified src.code i p with
                        | None -> ()
                        | Some stop -> (
                            match name_literal src.code stop with
                            | None -> () (* computed name *)
                            | Some (name, tok) ->
                                sites :=
                                  (name, src.path, tok.Token.line) :: !sites))
                      registration_paths)
                  src.code)
            ctx.sources;
          let sites = List.rev !sites in
          let acc = ref [] in
          let seen = Hashtbl.create 32 in
          List.iter
            (fun (name, file, line) ->
              (match Hashtbl.find_opt seen name with
              | Some (f0, l0) ->
                  acc :=
                    { Rule.file;
                      line;
                      message =
                        Printf.sprintf
                          "observability name %S is already registered at \
                           %s:%d; names must be unique repo-wide"
                          name f0 l0 }
                    :: !acc
              | None -> Hashtbl.add seen name (file, line));
              match ctx.design_doc with
              | Some doc when not (contains doc name) ->
                  acc :=
                    { Rule.file;
                      line;
                      message =
                        Printf.sprintf
                          "observability name %S is not in DESIGN.md's \
                           registry; add it to the static-analysis \
                           catalogue"
                          name }
                    :: !acc
              | _ -> ())
            sites;
          List.rev !acc);
  }

let all =
  [ domain_escape; atomic_rmw; blocking_in_owner_loop; mutex_discipline;
    metric_name_registry ]
