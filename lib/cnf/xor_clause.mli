(** XOR (parity) constraints: [v1 ⊕ v2 ⊕ ... ⊕ vk = rhs].

    These are the constraints produced by the {!Hxor} hash family; the
    SAT solver propagates them natively (the CryptoMiniSAT behaviour
    the paper relies on) rather than through a CNF expansion. *)

type t = { vars : int array; rhs : bool }
(** Variables must be distinct; the constraint asserts that the parity
    (number of true variables mod 2) equals [rhs]. The empty XOR with
    [rhs = true] is unsatisfiable; with [rhs = false] it is trivially
    true. *)

val make : int list -> bool -> t
(** Builds a normalized constraint: duplicate variables cancel in
    pairs (x ⊕ x = 0). *)

val eval : (int -> bool) -> t -> bool

val eval_bytes : Bytes.t -> t -> bool
(** [eval_bytes b x] is [eval value x] where [value v] is byte [v - 1]
    of [b], ['\000'] false and ['\001'] true; other bytes give an
    unspecified result. Every variable is read, repeated ones included,
    so a variable past the end of [b] raises [Invalid_argument]. *)

val arity : t -> int
val max_var : t -> int
val equal : t -> t -> bool

val to_cnf : fresh:(unit -> int) -> ?chunk:int -> t -> Clause.t list
(** CNF expansion used by solvers without native XOR support and as a
    test oracle: long XORs are cut into chunks of at most [chunk]
    (default 4) variables linked through fresh variables obtained from
    [fresh], and each small XOR is expanded into its 2^(k-1) clauses.
    The fresh variables are functionally determined by the originals
    (they form a dependent support). *)

val pp : Format.formatter -> t -> unit
