(** Bounded least-recently-used map — the mechanism behind the
    prepared-state cache.

    Semantics:
    - {!find} and {!put} move the entry to the most-recently-used
      position.
    - After a {!put}, entries are evicted from the LRU end until at
      most [capacity] remain. The entry just put sits at the MRU end,
      so it survives whenever [capacity >= 1].
    - [capacity 0] therefore stores nothing: an insertion is evicted
      immediately ([on_evict] still fires).
    - {!remove} is explicit eviction.

    The map holds values by reference: evicting an entry drops the
    map's reference only, so a caller that still holds the value (an
    in-flight request) keeps using it.

    Not thread-safe by design: the scheduler owns its cache from a
    single domain (enforced by an {!Audit.Ownership} tag one level
    up); worker domains never touch the LRU — they receive the entry
    value from the owner and hand results back to it. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [on_evict] fires for automatic (capacity) evictions only, not for
    {!remove} or value replacement.
    @raise Invalid_argument when [capacity < 0]. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Touches the entry (moves it to MRU) on a hit. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace; either way the entry becomes the MRU. *)

val remove : ('k, 'v) t -> 'k -> bool
(** Explicit eviction; [false] when absent. *)

val keys_mru : ('k, 'v) t -> 'k list
(** All keys, most-recently-used first (the eviction order reversed) —
    for tests and introspection. *)
