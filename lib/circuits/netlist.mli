(** Gate-level combinational netlists.

    This is the circuit substrate standing in for the paper's
    benchmark sources: bit-blasted BMC problems, ISCAS89 circuits with
    parity conditions, and program-synthesis sketches are all built as
    netlists here and Tseitin-encoded to CNF (see {!Tseitin}), which
    by construction yields formulas whose primary inputs form an
    independent support — the property UniGen exploits.

    Nodes are stored in topological order: a gate may only reference
    earlier nodes, so simulation is a single left-to-right pass. *)

type node =
  | Input of int  (** primary input, by input index *)
  | Const of bool
  | Not of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Mux of int * int * int  (** [Mux (sel, a, b)] = if sel then a else b *)

type t = private {
  name : string;
  nodes : node array;
  outputs : int array;  (** node indices *)
  num_inputs : int;
}

val simulate : t -> bool array -> bool array
(** Evaluate the outputs for the given input vector.
    @raise Invalid_argument on an input vector of the wrong length. *)

val num_gates : t -> int
(** Number of non-input, non-constant nodes. *)

(** Imperative netlist construction. Signals are node indices. *)
module Builder : sig
  type netlist := t
  type t

  val create : string -> t
  val input : t -> int
  (** Allocate the next primary input; returns its signal. *)

  val const : t -> bool -> int
  val not_ : t -> int -> int
  val and_ : t -> int -> int -> int
  val or_ : t -> int -> int -> int
  val xor_ : t -> int -> int -> int
  val mux : t -> sel:int -> int -> int -> int
  val nand_ : t -> int -> int -> int
  val xnor_ : t -> int -> int -> int

  val and_list : t -> int list -> int
  (** Conjunction of a signal list (true for the empty list). *)

  val or_list : t -> int list -> int
  val xor_list : t -> int list -> int

  val output : t -> int -> unit
  (** Mark a signal as a circuit output, in call order. *)

  val finish : t -> netlist
end
