(** Bounded least-recently-used map with pinning and explicit
    eviction — the mechanism behind the prepared-state cache.

    Semantics:
    - {!find} and {!put} move the entry to the most-recently-used
      position.
    - After an insertion pushes the population above [capacity],
      unpinned entries are evicted from the LRU end until the bound
      holds again. Pinned entries are skipped, and the entry being
      inserted is never its own victim; when every {e other} resident
      entry is pinned the map temporarily exceeds its capacity rather
      than evicting pinned state or the new entry (it shrinks back
      when a pin is released).
    - [capacity 0] therefore stores nothing: an unpinned insertion is
      evicted immediately ([on_evict] still fires), and {!pin} cannot
      reach it.
    - {!remove} is explicit eviction and overrides pinning.

    Pins are {e counted}: several independent holders (each in-flight
    draw executing against the entry) stack, and the entry becomes
    evictable again only when every holder has released — the
    invariant the daemon's chaos tests check (pin counts return to
    zero once work drains).

    Not thread-safe by design: the scheduler owns its cache from a
    single domain (enforced by an {!Audit.Ownership} tag one level
    up); worker domains never touch the LRU — they receive the entry
    value from the owner and hand results back to it. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [on_evict] fires for automatic (capacity) evictions only, not for
    {!remove} or value replacement.
    @raise Invalid_argument when [capacity < 0]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Touches the entry (moves it to MRU) on a hit. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does {e not} touch the entry. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching the recency order. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace; replacement keeps the entry's pin state. *)

val pin : ('k, 'v) t -> 'k -> bool
(** Increment the entry's pin count, exempting it from automatic
    eviction; [false] when absent. *)

val unpin : ('k, 'v) t -> 'k -> bool
(** Decrement the pin count; [false] when absent or not pinned. The
    entry becomes evictable (and a deferred eviction may fire) only
    when the count reaches zero. *)

val is_pinned : ('k, 'v) t -> 'k -> bool
(** [pin_count > 0]. *)

val pin_count : ('k, 'v) t -> 'k -> int
(** Current pin count; 0 when absent. *)

val remove : ('k, 'v) t -> 'k -> bool
(** Explicit eviction, effective even on pinned entries; [false] when
    absent. *)

val keys_mru : ('k, 'v) t -> 'k list
(** All keys, most-recently-used first (the eviction order reversed) —
    for tests and introspection. *)
