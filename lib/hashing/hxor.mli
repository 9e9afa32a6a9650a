(** The [Hxor(n, m, 3)] family of 3-wise independent hash functions
    from {0,1}^n to {0,1}^m (Gomes, Sabharwal, Selman 2007), realized
    as random XOR constraints:

      h(y)[i] = a(i,0) ⊕ (⊕_k a(i,k) · y[k])

    with every coefficient drawn uniformly and independently. This is
    the hash family at the heart of UniGen, ApproxMC, UniWit and
    XORSample′.

    A hash is sampled over an explicit variable set — the paper's key
    insight is to hash over a small independent support [S] rather
    than the full support [X], so that each XOR row mentions ~|S|/2
    variables instead of ~|X|/2.

    Every variable enters a row with probability exactly 1/2: sparser
    rows (Gomes et al. 2007 "Short XORs") are faster to solve but lose
    3-wise independence, and with it UniGen's guarantees. *)

type t
(** A sampled hash function together with a target value α, i.e. the
    constraint [h(y) = α]. *)

val sample : Rng.t -> vars:int array -> m:int -> t
(** Draw [h] uniformly from the family over the given variables, with
    [m] output bits, and draw α uniformly from {0,1}^m.
    @raise Invalid_argument if [m < 0] or [vars] is empty while
    [m > 0]. *)

val m : t -> int
(** Number of output bits / XOR rows. *)

val constraints : t -> Cnf.Xor_clause.t list
(** The XOR clauses encoding [h(y) = α]; conjoin them to a formula to
    restrict it to the cell α. Rows whose coefficient vector came out
    empty appear as 0-arity XORs (trivially true or false) — exactly
    the semantics of the algebraic definition. *)

val apply : t -> (int -> bool) -> bool array
(** [apply h value] computes h(y) for the assignment [value]. *)

val in_cell : t -> (int -> bool) -> bool
(** Whether the assignment lands in the selected cell (h(y) = α). *)

val alpha : t -> bool array
(** The target cell. *)

val total_xor_length : t -> int
(** Sum of row arities. *)

val average_xor_length : t -> float
(** Mean number of variables per XOR row — the "Avg XOR len" column of
    the paper's tables. 0 when [m = 0]. *)
