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

    Bounded LRU with pinning and explicit eviction (see {!Lru} for
    the exact semantics); hit/miss/eviction counts flow to
    {!Obs.Metrics} under [service.cache_hits] / [service.cache_misses]
    / [service.cache_evictions].

    The only pins are execution pins ({!acquire}/{!release}), backed
    by the LRU's counted pins: the scheduler takes one for the
    duration of every in-flight draw against the entry, so a parallel
    daemon can never evict a preparation that a worker domain is
    reading. Clients cannot pin, so once work drains the cache is back
    within its capacity. Outstanding execution pins are published as
    the [service.cache_pins] gauge and must return to zero when the
    scheduler drains — the chaos tests enforce it. *)

type key = {
  fingerprint : string;  (** {!Registry.fingerprint} of the formula *)
  epsilon : float;
  prepare_seed : int;
      (** seed of the RNG handed to [Unigen.prepare] (ApproxMC's
          randomness) — part of the key so a cache hit reproduces the
          exact hash-size window a cold preparation would compute *)
  count_iterations : int option;
}

val key_to_string : key -> string
(** Stable rendering used for metrics labels and debugging. *)

type entry = {
  prepared : Sampling.Unigen.prepared;
  formula : Cnf.Formula.t;  (** the canonical formula that was prepared *)
  mutable draws_served : int;
}

type tier = Ram | Disk
    (** which tier satisfied a {!find}: the in-memory LRU or a
        disk-warm load from the durable store *)

type spill = {
  sp_store : Store.t;
  sp_encode : key -> entry -> string;
  sp_decode : key -> string -> (entry, string) result;
}
(** The durable tier, injected as closures to avoid a module cycle
    with the codec ([Spill] needs this module's types). The scheduler
    wires [Spill.encode]/[Spill.decode] in when [spill_dir] is set. *)

type t

val create : ?spill:spill -> capacity:int -> unit -> t
(** Without [spill] the cache is the historical RAM-only LRU.
    @raise Invalid_argument when [capacity < 0]. *)

val capacity : t -> int
val length : t -> int

val store : t -> Store.t option
(** The durable tier's store, when one is attached. *)

val find : t -> key -> (entry * tier) option
(** RAM first; on a RAM miss with a durable tier attached, load the
    entry from the store, promote it into the LRU and report a
    [Disk] hit. Either tier counts as one [service.cache_hits] (disk
    loads additionally count [store.hit]). A spill payload that fails
    to decode is quarantined and the lookup falls through to a miss,
    so corruption costs a re-preparation, never a crash. *)

val peek : t -> key -> entry option
(** RAM tier only; no metrics, no touch, no disk load. *)

val put : t -> key -> entry -> unit
(** Insert into the LRU and, when a durable tier is attached, spill
    the encoded entry to disk (crash-safe; see {!Store.put}). *)

val acquire : t -> key -> bool
(** Take one counted execution pin; [false] when the key is absent. *)

val release : t -> key -> bool
(** Release one execution pin taken by {!acquire}. *)

val total_pin_count : t -> int
(** Execution pins held over every resident key — zero once all work
    has drained. The [service.cache_pins] gauge reads it after every
    {!acquire} and {!release}. *)

val remove : t -> key -> bool
(** Explicit eviction; overrides pins. *)

val keys_mru : t -> key list
