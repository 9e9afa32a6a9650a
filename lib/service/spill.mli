(** Prepared-state spill codec: {!Cache.entry} ⇄ durable payload.

    The {!Store} moves opaque bytes; this module defines what those
    bytes are for a prepared sampler state. The payload is a single
    versioned JSON object carrying the canonical formula (DIMACS text,
    [c ind] and [x] lines included), the preparation parameters the
    cache key fixes, the portable essence of the preparation
    ({!Sampling.Unigen.portable}: κ, pivot, hash density, phase — the
    ApproxMC-derived hash-size anchor or the enumerated easy-case
    witnesses) and creation metadata (wall-clock time, compiler
    version) for forensics.

    {!decode} is paranoid by contract: beyond the store's own checksum
    it re-verifies that every key-determining field of the payload
    matches the {!Cache.key} it was looked up under {e and} that the
    embedded formula re-fingerprints to the key's content address, so
    registry-version drift or a codec change can never resurrect a
    stale preparation — it surfaces as a decode error, which the cache
    turns into quarantine plus a clean re-preparation. *)

val version : string
(** ["unigen-prepared-v2"] — bumped whenever the payload schema or the
    semantics of any field change. *)

val encode : Cache.key -> Cache.entry -> string
(** Serialize an entry for {!Store.put}. [draws_served] is
    deliberately not persisted — a rehydrated entry starts at zero. *)

val decode : Cache.key -> string -> (Cache.entry, string) result
(** Rebuild a live entry: parse, verify version and key consistency,
    re-fingerprint the embedded formula, then
    {!Sampling.Unigen.import}. Never raises; every failure mode comes
    back as [Error reason]. *)
