(** Prepared-state cache: the amortization layer of the daemon.

    UniGen's cost structure is one expensive preparation per formula
    (ApproxMC count, κ/pivot selection, candidate hash-size window)
    followed by many cheap draws. This cache keys a
    {!Sampling.Unigen.prepared} by everything the preparation is a
    deterministic function of — the formula's content address plus
    the preparation parameters — so a repeat request skips straight
    to the draw loop {e and} still returns witnesses bit-identical to
    a cold run (the determinism contract the differential tests
    enforce).

    A bounded LRU (see {!Lru}) with an optional disk tier (a {!Store}
    written through {!Spill}); hit/miss/eviction counts flow to
    {!Obs.Metrics} under [service.cache_hits] / [service.cache_misses]
    / [service.cache_evictions].

    An in-flight request holds its {!entry} by reference, so evicting
    that entry while a worker reads it frees nothing the worker uses;
    it costs only a later disk load or a fresh preparation, never a
    different witness. *)

type key = Spill.key = {
  fingerprint : string;  (** {!Registry.fingerprint} of the formula *)
  epsilon : float;
  prepare_seed : int;
      (** seed of the RNG handed to [Unigen.prepare] (ApproxMC's
          randomness) *)
  count_iterations : int option;
}

val key_to_string : key -> string
(** Stable rendering used as the store key, for metrics labels and
    debugging. *)

type entry = {
  prepared : Sampling.Unigen.prepared;
  formula : Cnf.Formula.t;  (** the canonical formula that was prepared *)
}

type tier = Ram | Disk
    (** which tier satisfied a {!find}: the in-memory LRU or a
        disk-warm load from the durable store *)

type t

val create : ?store:Store.t -> capacity:int -> unit -> t
(** Without [store] the cache is RAM-only.
    @raise Invalid_argument when [capacity < 0]. *)

val length : t -> int

val find : t -> key -> (entry * tier) option
(** RAM first; on a RAM miss with a store attached, load the entry
    from the store, promote it into the LRU and report a [Disk] hit.
    Either tier counts as one [service.cache_hits] (disk loads
    additionally count [store.hit]). A spill payload that fails to
    decode is quarantined and the lookup falls through to a miss, so
    corruption costs a re-preparation, never a crash. *)

val put : t -> key -> entry -> unit
(** Insert into the LRU and, when a store is attached, spill the
    encoded entry to disk (crash-safe; see {!Store.put}). *)

val remove : t -> key -> bool
(** Explicit eviction. *)

val keys_mru : t -> key list
