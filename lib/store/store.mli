(** Durable string-keyed blob store: the disk tier under the daemon's
    prepared-state cache.

    The expensive artifact of the sampling pipeline — a prepared state
    (ApproxMC count, κ/pivot window, enumerated easy-case witnesses) —
    is a deterministic function of its cache key, so it can be spilled
    once and reloaded by any later daemon generation or another daemon
    process sharing the spill directory. This module only moves opaque payload
    bytes; serializing a prepared state into a payload is the caller's
    business (see [Service.Spill]), which keeps the store free of any
    dependency on the solver stack.

    {b On-disk format} (versioned; see DESIGN.md "Durable store"):
    one file per key, named [md5(key).prep] inside the spill
    directory, containing

    {v unigen-store-v1 \n md5(body) \n body v}

    where [body = key \n payload_length \n payload]. The embedded key
    detects filename hash collisions and misplaced files; the digest
    detects truncation and bit rot.

    {b Crash safety}: every write goes through {!atomic_write} — the
    bytes land in a per-writer [.<pid>.tmp] sibling (private even when
    two daemon processes spill the same key into a shared directory), are
    fsynced, and are renamed over the final name, so a reader (or a
    crash) never observes a partial entry. The
    [durable-write-discipline] lint rule flags spill-file writes that
    bypass this helper. A failed {!put} degrades to RAM-only — it
    logs, counts [store.write_error] and returns — because an opt-in
    durability tier must never turn a full disk into a daemon crash.

    {b Corruption policy}: a load that fails verification moves the
    file into a [quarantine/] subdirectory (never raises) and reports
    a plain miss, so the caller falls back to a clean re-preparation.
    Evidence is bounded: only the {!quarantine_keep} most recently
    quarantined files are kept, so systematic corruption (e.g. codec
    version skew across an upgrade) cannot grow the directory
    without bound.

    {b Disk budget}: after each {!put} the store evicts
    least-recently-used entries — by file mtime, which {!find} refreshes
    on every hit — until the directory fits [budget_bytes] again. The
    entry just written is never its own victim, so one oversized entry
    is kept rather than making the tier useless.

    {b Ownership}: not thread-safe by design. Like the cache above it,
    a store instance is owned by the scheduler's domain; every entry
    point checks an {!Audit.Ownership} tag so audit mode turns a
    cross-domain touch into a structured violation. (Daemon processes
    sharing one directory are separate {e processes}; the atomic-rename
    discipline makes that sharing safe.)

    Metrics: [store.hit] / [store.miss] / [store.spill] /
    [store.corrupt] / [store.eviction] counters and the [store.bytes]
    gauge; loads and spills run inside [store.load] / [store.spill]
    trace spans. *)

type t

val default_budget_bytes : int
(** 256 MiB. *)

val quarantine_keep : int
(** How many quarantined files are retained (16); older evidence is
    pruned whenever a new file is quarantined. *)

val create : ?budget_bytes:int -> dir:string -> unit -> t
(** Open (and create, including parents) the spill directory, and
    sweep staging ([.tmp]) files old enough that no live writer can
    still own them — leftovers of a writer killed mid-spill.
    @raise Invalid_argument when [budget_bytes < 0].
    @raise Unix.Unix_error when the directory cannot be created. *)

val dir : t -> string
val budget_bytes : t -> int

val put : t -> key:string -> string -> unit
(** Spill one payload under [key] (keys must not contain newlines —
    cache keys never do), overwriting any previous entry, then enforce
    the disk budget. Crash-safe via {!atomic_write}. An I/O failure
    (disk full, permissions, directory vanished) does {e not} raise:
    it counts [store.write_error], logs a [store.spill_failed] warn
    event, and leaves the store unchanged — callers keep serving from
    RAM.
    @raise Invalid_argument when the key contains a newline. *)

val find : t -> key:string -> string option
(** Load and verify the payload for [key]. [None] when absent; a
    present-but-corrupt entry (bad magic, checksum mismatch, embedded
    key mismatch, truncation) is quarantined and also reported as
    [None]. A hit refreshes the entry's mtime (the LRU clock). *)

val mem : t -> key:string -> bool
(** The entry file exists (no verification, no mtime touch). *)

val remove : t -> key:string -> bool
(** Delete the entry outright; [false] when absent. *)

val quarantine : t -> key:string -> reason:string -> unit
(** Move [key]'s entry file into [quarantine/] and count it as
    corrupt — for callers that discover payload-level corruption the
    store's own checksum cannot see (e.g. a codec version mismatch).
    No-op when the file is already gone. *)

val entry_path : t -> key:string -> string
(** Where [key]'s entry lives on disk (for tests and smoke checks). *)

val length : t -> int
(** Number of live entries (quarantined files excluded). *)

val total_bytes : t -> int
(** Bytes held by live entries. *)

val atomic_write : dir:string -> path:string -> string -> unit
(** The one sanctioned write path for spill files: write to a
    per-writer temp sibling ([path.<pid>.tmp], so concurrent daemon
    processes never truncate each other's staging file), fsync, rename
    over [path], then fsync [dir] so the rename itself survives a
    crash. On failure the temp file is unlinked and the original
    exception re-raised. Exposed so future writers of sidecar files
    under the spill directory use the same discipline. *)
