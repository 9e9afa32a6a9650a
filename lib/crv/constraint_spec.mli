(** Declarative constrained-random-stimulus specifications — the
    front end a verification engineer writes (the paper's Section 1:
    "the verification engineer declaratively specifies a set of
    constraints on the values of circuit inputs; a constraint solver
    is then used to generate random values").

    A spec declares named bit-vector {e fields} (the stimulus) and
    constrains them with bit-vector predicates; {!compile} lowers the
    spec through the circuit substrate to a CNF formula whose sampling
    set is exactly the stimulus bits, ready for UniGen (see
    {!Testbench}). *)

type spec
type field
type bv
(** A bit-vector expression over the fields. *)

type pred
(** A boolean predicate over bit-vector expressions. *)

val create : string -> spec
val field : spec -> name:string -> width:int -> field
(** Declare a stimulus field (1–30 bits). Names must be unique.
    @raise Invalid_argument otherwise, or after {!compile}. *)

(** {2 Bit-vector expressions} — operands of binary operations must
    have equal widths. *)

val var : field -> bv
val const : width:int -> int -> bv
val add : bv -> bv -> bv  (** modulo 2^width *)

val band : bv -> bv -> bv
val bor : bv -> bv -> bv
val bxor : bv -> bv -> bv
val bnot : bv -> bv
val zero_extend : bv -> width:int -> bv
val width : bv -> int

(** {2 Predicates} *)

val eq : bv -> bv -> pred
val ne : bv -> bv -> pred
val ult : bv -> bv -> pred  (** unsigned < *)

val ule : bv -> bv -> pred
val parity_odd : bv -> pred
val bit : bv -> int -> pred  (** the i-th bit is set *)

val ptrue : pred
val implies : pred -> pred -> pred

val constrain : spec -> pred -> unit
(** Conjoin a constraint. *)

(** {2 Compilation} *)

type compiled

val compile : spec -> compiled
(** Lower to CNF (Tseitin over the generated circuit); the spec
    becomes immutable. The formula's sampling set is the stimulus
    bits — an independent support by construction. *)

val formula : compiled -> Cnf.Formula.t
val fields : compiled -> field list
val decode : compiled -> Cnf.Model.t -> (string * int) list
(** All fields, in declaration order. *)

val stimulus_bits : compiled -> int
(** Total width of the sampling set. *)
