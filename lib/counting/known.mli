(** A cache of the witnesses a caller has found, used to decide hashed
    cells without a solver call and to supply a cell's witnesses
    without finding them again. Each domain's warm worker ({!Warm})
    keeps one beside its solver session, filled by the ApproxMC cells
    the worker counted and then by the cells it draws.

    Each member's projection onto the sampling set S is stored
    bit-sliced (one bitset over the members per variable of S), so an
    XOR row over S is evaluated on [Sys.int_size] members per word
    operation. The full witnesses of the first members are stored
    too, bit-packed (⌈|X| / 8⌉ bytes each, see {!Cnf.Model.pack}) in
    fixed chunks of 512 members, Bigarrays that never move and that
    the GC does not scan. A cache of 504 to 98 304 members (on a
    64-bit host, for |S| <= 20) can also index the projections: a
    bitmap over {0,1}{^ S} and an open-addressing map from a
    projection to its member, both Bigarrays. {!in_cell} either scans
    the columns or walks the cell's points through the index,
    whichever it prices cheaper; the index is built and kept up to
    date by the lookups that walk, never by {!add}. A cache belongs to
    one domain.

    The cache is bounded with no knob, by three budgets of 2{^ 18}
    words (2 MiB each on a 64-bit host). The columns' budget fixes
    {!capacity}: |S| x members ≤ 2{^ 24} bits, about 917 k members at
    |S| = 18 and 826 k at |S| = 20. The witnesses' budget fixes how
    many of them keep their witness: members x ⌈|X| / 8⌉ ≤ 2 MiB, so
    every member up to about 131 k at |X| = 128, but only the first
    5.5 k at |X| = 3020. The index's budget fixes how many of them are
    indexed: 8 bytes per slot with slots at most 3/4 full, plus the
    bitmap (32 KiB at |S| = 18), so 98 304 members. Once full the
    cache ignores {!add}, past the witnesses' budget it keeps
    projections only, and past the index's it only scans; every
    decision made from it stays exact, it only holds fewer members
    (or witnesses) than it could. *)

type t

val create : Cnf.Formula.t -> t
(** An empty cache over the formula's sampling set. *)

val size : t -> int
(** Members held. *)

val capacity : t -> int
(** The most members the bound admits for this sampling set. *)

val has_model : t -> int -> bool
(** Whether [r] is a member whose full witness is kept: the members
    below the witnesses' budget, the first ones added. *)

val add : t -> Cnf.Model.t -> unit
(** Append the model as a new member, with its witness while the
    witnesses' budget lasts; a no-op once the cache holds {!capacity}
    members. The caller guarantees that its projection is
    not a member yet (for instance because the members it could equal
    were blocked in the enumeration that found the model).
    @raise Invalid_argument when the model is not over the formula's
    [num_vars] variables. *)

val blocking_clause : t -> int -> Cnf.Clause.t
(** The clause excluding member [r]: for each variable of S, in S's
    order, the literal that [r]'s projection makes false (the form
    [Sat.Bsat.Session.enumerate ~known] takes). *)

val holds : t -> int -> Cnf.Model.t -> bool
(** [holds t r m]: member [r] is the projection of [m] onto S. *)

val model : t -> int -> Cnf.Model.t
(** Member [r]'s full witness, as it was added.
    @raise Invalid_argument unless [has_model t r]. *)

val in_cell : t -> limit:int -> Cnf.Xor_clause.t list -> int list * int
(** [in_cell t ~limit xors] is [(members, k)]: the [limit]
    lowest-numbered members whose projection satisfies every XOR row
    of [xors] (rows over S only), highest first, and
    [k = List.length members] = min([limit], members in the cell). When
    [k < limit] the list holds every member in the cell. The result
    does not depend on how it was found: a scan of the columns, or a
    walk of the cell's 2{^ (|S| - rank)} points through the index, taken
    when its estimated cost is lower than the words the scan would
    read before finding [limit] members. Under audit mode a walked
    result is compared with a scan (invariant [known-index]).
    @raise Invalid_argument when a row has a variable outside S. *)

val audit_cell :
  ?deadline:float ->
  ?models:Cnf.Model.t list ->
  who:string ->
  limit:int ->
  known:int ->
  Cnf.Formula.t ->
  Cnf.Xor_clause.t list ->
  int * bool ->
  unit
(** [audit_cell ~who ~limit ~known f xors (count, exhausted)] checks a
    cell decided with [known] cached members: a fresh one-shot
    enumeration of [f] with [xors] and limit [limit] must return
    [count] witnesses and the same [exhausted] flag. With [models] (a
    cell whose witnesses were assembled from the cache and the
    session), every model must also satisfy [f] with [xors], and their
    sorted projections onto S must equal the fresh enumeration's. A
    failed check raises [Audit.Violation] with invariant [known-cell],
    naming [who]. A fresh enumeration that times out checks nothing. *)
