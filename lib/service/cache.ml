type key = {
  fingerprint : string;
  epsilon : float;
  prepare_seed : int;
  count_iterations : int option;
}

let key_to_string k =
  Printf.sprintf "%s/e%g/p%d/i%s" k.fingerprint k.epsilon k.prepare_seed
    (match k.count_iterations with None -> "-" | Some n -> string_of_int n)

type entry = {
  prepared : Sampling.Unigen.prepared;
  formula : Cnf.Formula.t;
  mutable draws_served : int;
}

let c_hits = Obs.Metrics.counter "service.cache_hits"
let c_misses = Obs.Metrics.counter "service.cache_misses"
let c_evictions = Obs.Metrics.counter "service.cache_evictions"

type tier = Ram | Disk

(* The durable tier is injected as a record of closures rather than a
   direct dependency on [Spill]: the codec needs this module's [key]
   and [entry] types, so a direct call the other way would be a cycle.
   The scheduler (which sees both) ties the knot in [Scheduler.create]. *)
type spill = {
  sp_store : Store.t;
  sp_encode : key -> entry -> string;
  sp_decode : key -> string -> (entry, string) result;
}

type t = { lru : (key, entry) Lru.t; spill : spill option }

let create ?spill ~capacity () =
  {
    lru = Lru.create ~on_evict:(fun _ _ -> Obs.Metrics.incr c_evictions) ~capacity ();
    spill;
  }

let capacity t = Lru.capacity t.lru
let length t = Lru.length t.lru
let store t = Option.map (fun sp -> sp.sp_store) t.spill

let find_disk t k =
  match t.spill with
  | None -> None
  | Some sp -> (
      let skey = key_to_string k in
      match Store.find sp.sp_store ~key:skey with
      | None -> None
      | Some payload -> (
          match sp.sp_decode k payload with
          | Ok e ->
              (* promote to the RAM tier; even with capacity 0 the
                 caller still gets this entry *)
              Lru.put t.lru k e;
              Some e
          | Error reason ->
              (* store-level checksum passed but the payload does not
                 decode (codec version skew, registry drift): same
                 policy as bit rot — quarantine, fall back to a clean
                 re-preparation *)
              Store.quarantine sp.sp_store ~key:skey ~reason;
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

let peek t k = Lru.peek t.lru k

let put t k e =
  Lru.put t.lru k e;
  match t.spill with
  | None -> ()
  | Some sp ->
      (* The spill is synchronous on the owner domain: encode + write +
         two fsyncs block the select loop for the duration. Deliberate —
         it keeps the no-lock ownership model intact, and a spill
         happens once per fresh preparation (seconds of ApproxMC work),
         so the fsync is noise by comparison; see DESIGN.md "Durable
         store" for the tradeoff. [Store.put] never raises on
         I/O failure, so a sick disk degrades this tier to RAM-only
         rather than crashing the daemon mid-response. *)
      Store.put sp.sp_store ~key:(key_to_string k) (sp.sp_encode k e)

let total_pin_count t =
  List.fold_left (fun acc k -> acc + Lru.pin_count t.lru k) 0 (Lru.keys_mru t.lru)

(* the gauge is read back from the LRU's pins, never kept beside them *)
let publish_pins t changed =
  if changed then
    Obs.Metrics.set_gauge "service.cache_pins" (float_of_int (total_pin_count t));
  changed

let acquire t k = publish_pins t (Lru.pin t.lru k)
let release t k = publish_pins t (Lru.unpin t.lru k)

let remove t k = Lru.remove t.lru k

let keys_mru t = Lru.keys_mru t.lru
