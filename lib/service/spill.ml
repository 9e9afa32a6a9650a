let version = "unigen-prepared-v3"

let encode (k : Cache.key) (e : Cache.entry) =
  let p = Sampling.Unigen.export e.Cache.prepared in
  let phase_fields =
    match p.Sampling.Unigen.p_phase with
    | Sampling.Unigen.Portable_easy { num_vars; models } ->
        [
          ("phase", Json.Str "easy");
          ("num_vars", Json.Int num_vars);
          ( "models",
            Json.List
              (List.map
                 (fun m -> Json.List (List.map (fun l -> Json.Int l) m))
                 models) );
        ]
    | Sampling.Unigen.Portable_hashed { q; count_estimate } ->
        [
          ("phase", Json.Str "hashed");
          ("q", Json.Int q);
          ("count_estimate", Json.Float count_estimate);
        ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("version", Json.Str version);
          ("fingerprint", Json.Str k.Cache.fingerprint);
          ("epsilon", Json.Float k.Cache.epsilon);
          ("prepare_seed", Json.Int k.Cache.prepare_seed);
          ( "count_iterations",
            match k.Cache.count_iterations with
            | None -> Json.Null
            | Some n -> Json.Int n );
          ("formula", Json.Str (Cnf.Dimacs.to_string e.Cache.formula));
          ("kappa", Json.Float p.Sampling.Unigen.p_kappa);
          ("pivot", Json.Int p.Sampling.Unigen.p_pivot);
          ("hash_density", Json.Float p.Sampling.Unigen.p_hash_density);
          ("created_at", Json.Float (Unix.time ()));
          ("ocaml_version", Json.Str Sys.ocaml_version);
        ]
       @ phase_fields))

(* Every key-determining field must agree with the key the payload was
   looked up under; [what] names the first mismatch in the error. *)
let check what ok = if ok then Ok () else Error (what ^ " mismatch")

let ( let* ) = Result.bind

let decode_verified (k : Cache.key) j =
  let* () = check "fingerprint"
      (String.equal (Json.get_string "fingerprint" j) k.Cache.fingerprint)
  in
  let* () = check "epsilon" (Json.get_float "epsilon" j = k.Cache.epsilon) in
  let* () = check "prepare_seed"
      (Json.get_int "prepare_seed" j = k.Cache.prepare_seed)
  in
  let* () = check "count_iterations"
      (Json.opt_int "count_iterations" j = k.Cache.count_iterations)
  in
  let formula = Cnf.Dimacs.parse_string (Json.get_string "formula" j) in
  (* the decisive check: the embedded formula must re-fingerprint to
     the key's content address under the *current* registry version,
     so registry drift invalidates old spills instead of mixing
     incompatible canonical forms *)
  let* () = check "formula fingerprint"
      (String.equal (Registry.fingerprint formula) k.Cache.fingerprint)
  in
  let formula = Registry.canonical formula in
  let* p_phase =
    match Json.get_string "phase" j with
    | "easy" ->
        Ok
          (Sampling.Unigen.Portable_easy
             {
               num_vars = Json.get_int "num_vars" j;
               models =
                 List.map
                   (function
                     | Json.List lits -> List.map Json.to_int lits
                     | _ -> raise (Json.Decode_error "models: expected arrays"))
                   (Json.get_list "models" j);
             })
    | "hashed" ->
        Ok
          (Sampling.Unigen.Portable_hashed
             {
               q = Json.get_int "q" j;
               count_estimate = Json.get_float "count_estimate" j;
             })
    | s -> Error ("unknown phase " ^ s)
  in
  let portable =
    {
      Sampling.Unigen.p_kappa = Json.get_float "kappa" j;
      p_pivot = Json.get_int "pivot" j;
      p_hash_density = Json.get_float "hash_density" j;
      p_phase;
    }
  in
  let prepared = Sampling.Unigen.import ~formula portable in
  Ok { Cache.prepared; formula; draws_served = 0 }

let decode (k : Cache.key) payload =
  match Json.of_string payload with
  | exception Json.Decode_error msg -> Error ("json: " ^ msg)
  | j -> (
      match Json.get_string "version" j with
      | exception Json.Decode_error msg -> Error msg
      | v when not (String.equal v version) ->
          Error ("codec version mismatch: " ^ v)
      | _ -> (
          try decode_verified k j with
          | Json.Decode_error msg -> Error msg
          | Cnf.Dimacs.Parse_error msg -> Error ("formula: " ^ msg)
          | Invalid_argument msg | Failure msg -> Error msg))
