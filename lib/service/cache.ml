type key = Spill.key = {
  fingerprint : string;
  epsilon : float;
  prepare_seed : int;
  count_iterations : int option;
}

let key_to_string k =
  Printf.sprintf "%s/e%g/p%d/i%s" k.fingerprint k.epsilon k.prepare_seed
    (match k.count_iterations with None -> "-" | Some n -> string_of_int n)

type entry = { prepared : Sampling.Unigen.prepared; formula : Cnf.Formula.t }

let c_hits = Obs.Metrics.counter "service.cache_hits"
let c_misses = Obs.Metrics.counter "service.cache_misses"
let c_evictions = Obs.Metrics.counter "service.cache_evictions"

type tier = Ram | Disk

type t = { lru : (key, entry) Lru.t; store : Store.t option }

let create ?store ~capacity () =
  {
    lru = Lru.create ~on_evict:(fun _ _ -> Obs.Metrics.incr c_evictions) ~capacity ();
    store;
  }

let length t = Lru.length t.lru

let find_disk t k =
  match t.store with
  | None -> None
  | Some store -> (
      let skey = key_to_string k in
      match Store.find store ~key:skey with
      | None -> None
      | Some payload -> (
          match Spill.decode k payload with
          | Ok (prepared, formula) ->
              (* promote to the RAM tier; even with capacity 0 the
                 caller still gets this entry *)
              let e = { prepared; formula } in
              Lru.put t.lru k e;
              Some e
          | Error reason ->
              (* store-level checksum passed but the payload does not
                 decode (codec version skew, registry drift): same
                 policy as bit rot — quarantine, fall back to a clean
                 re-preparation *)
              Store.quarantine store ~key:skey ~reason;
              None))

let find t k =
  match Lru.find t.lru k with
  | Some e ->
      Obs.Metrics.incr c_hits;
      Some (e, Ram)
  | None -> (
      match find_disk t k with
      | Some e ->
          Obs.Metrics.incr c_hits;
          Some (e, Disk)
      | None ->
          Obs.Metrics.incr c_misses;
          None)

let put t k e =
  Lru.put t.lru k e;
  match t.store with
  | None -> ()
  | Some store ->
      (* The spill is synchronous on the owner domain: encode + write +
         two fsyncs block the select loop for the duration. Deliberate —
         it keeps the no-lock ownership model intact, and a spill
         happens once per fresh preparation (seconds of ApproxMC work),
         so the fsync is noise by comparison; see DESIGN.md "Durable
         store" for the tradeoff. [Store.put] never raises on
         I/O failure, so a sick disk degrades this tier to RAM-only
         rather than crashing the daemon mid-response. *)
      Store.put store ~key:(key_to_string k) (Spill.encode k e.prepared e.formula)

let remove t k = Lru.remove t.lru k

let keys_mru t = Lru.keys_mru t.lru
