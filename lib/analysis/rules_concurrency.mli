(** Concurrency / determinism rules the old substring scanner could
    not express. All are lexical approximations over the token stream
    — each rule's doc states the approximation — tuned so the clean
    repo lints with zero blocking findings while each seeded
    violation in [test/test_analysis.ml]'s mutation fixtures fires. *)

val domain_escape : Rule.t
(** Top-level [ref]/[Hashtbl]/[Queue]/[Buffer] state used inside the
    lexical extent of a closure handed to
    [Domain_pool.submit]/[map]/[iteri] without [Atomic]/[Mutex]/DLS
    mediation: the worker domains race the owner on it. *)

val atomic_rmw : Rule.t
(** An [Atomic.get x] followed by [Atomic.set x] on the same name in
    one top-level item is a lost-update window; use
    [compare_and_set] / [fetch_and_add]. *)

val blocking_in_owner_loop : Rule.t
(** [Unix.sleep]/[Unix.sleepf]/[Thread.delay] anywhere in the owner
    select-loop modules (lib/service/server.ml, scheduler.ml), or
    blocking I/O inside a [~finish:] thunk (finish thunks run on the
    owning domain): one stalled call goes deaf to every socket. *)

val mutex_discipline : Rule.t
(** A [Mutex.lock m] whose top-level item has neither a
    [Mutex.unlock m] nor a [Fun.protect]: an exception between lock
    and unlock leaves [m] held forever. *)

val metric_name_registry : Rule.t
(** Every [Metrics.*] / [Log.event] name literal in lib/ and bin/
    must be registered at exactly one site repo-wide and appear in
    DESIGN.md's observability-name registry, like the existing span
    pairing. ([Obs.Window]s carry no name argument, so the rule has
    nothing to check for them.) *)

val all : Rule.t list
