(** Bit-vector arithmetic circuit constructors, used to build the
    "Squaring"-family benchmarks (combinational equivalence /
    multiplier circuits) of the paper's experimental suite.

    All word operands are little-endian signal lists (bit 0 first)
    inside a {!Netlist.Builder}. *)

type word = int list
(** Little-endian list of builder signals. *)

val constant : Netlist.Builder.t -> width:int -> int -> word
(** [constant b ~width v] builds the [width]-bit constant [v]. *)

val input_word : Netlist.Builder.t -> width:int -> word
(** Allocate [width] fresh primary inputs. *)

val ripple_adder : Netlist.Builder.t -> word -> word -> word
(** Sum of two equal-width words, one bit wider (carry out kept). *)

val multiplier : Netlist.Builder.t -> word -> word -> word
(** Array multiplier; result has width |x| + |y|. *)

val squarer : Netlist.Builder.t -> word -> word
(** [squarer b x] = multiplier b x x, width 2|x|. *)

val equal : Netlist.Builder.t -> word -> word -> int
(** Single signal: words are bit-for-bit equal (widths must match). *)

val less_than : Netlist.Builder.t -> word -> word -> int
(** Unsigned comparison x < y (equal widths). *)

val parity : Netlist.Builder.t -> word -> int
(** XOR of all bits. *)

val to_int : bool array -> int
(** Interpret a little-endian simulation output as an integer. *)

val of_int : width:int -> int -> bool array
(** Little-endian bit vector of an integer. *)
