(** Prepared-state spill codec: a prepared state and its canonical
    formula ⇄ durable payload.

    The {!Store} moves opaque bytes; this module defines what those
    bytes are for a prepared sampler state. The payload is a single
    versioned JSON object carrying the canonical formula (DIMACS text,
    [c ind] and [x] lines included), the preparation parameters the
    cache key fixes, the portable essence of the preparation
    ({!Sampling.Unigen.portable}: κ, pivot, phase — the
    ApproxMC-derived hash-size anchor or the enumerated easy-case
    witnesses) and creation metadata (wall-clock time, compiler
    version) for forensics.

    {!decode} is paranoid by contract: beyond the store's own checksum
    it re-verifies that every key-determining field of the payload
    matches the {!key} it was looked up under {e and} that the
    embedded formula re-fingerprints to the key's content address, so
    registry-version drift or a codec change can never resurrect a
    stale preparation — it surfaces as a decode error, which the cache
    turns into quarantine plus a clean re-preparation.

    The module sits below {!Cache}, which calls {!encode} and {!decode}
    directly and re-exports {!key} as [Cache.key]. *)

type key = {
  fingerprint : string;  (** {!Registry.fingerprint} of the formula *)
  epsilon : float;
  prepare_seed : int;
      (** seed of the RNG handed to [Unigen.prepare] (ApproxMC's
          randomness) — part of the key so a cache hit reproduces the
          exact hash-size window a cold preparation would compute *)
  count_iterations : int option;
}
(** Everything a preparation is a deterministic function of: the
    prepared-state cache's key, and the fields a payload must match. *)

val version : string
(** ["unigen-prepared-v4"] — bumped whenever the payload schema or the
    semantics of any field change. v3: preparations run the one
    stream-per-iteration ApproxMC loop, so a v2 payload made by the
    former serial loop may hold a different [q] for the same key. v4:
    the hash-density field is gone (every XOR row has density 1/2),
    so a v3 payload fails to decode like any other stale version. *)

val encode : key -> Sampling.Unigen.prepared -> Cnf.Formula.t -> string
(** [encode k prepared formula] serializes a preparation of the
    canonical [formula] for {!Store.put}. *)

val decode :
  key -> string -> (Sampling.Unigen.prepared * Cnf.Formula.t, string) result
(** Rebuild a live preparation and its canonical formula: parse,
    verify version and key consistency, re-fingerprint the embedded
    formula, then {!Sampling.Unigen.import}. Never raises; every
    failure mode comes back as [Error reason]. *)
