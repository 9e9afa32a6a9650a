(** DIMACS CNF reader/writer.

    Supports the extended conventions used by the UniGen/ApproxMC tool
    family:
    - [c ind v1 v2 ... 0] comment lines declare the sampling set,
    - lines starting with [x] declare native XOR clauses ([x 1 -2 3 0]
      means [v1 ⊕ ¬v2 ⊕ v3 = true], i.e. [v1 ⊕ v2 ⊕ v3 = rhs] with the
      rhs flipped once per negative literal — the CryptoMiniSAT
      convention).

    Every integer, in the [p cnf] header and in clause, XOR and
    [c ind] lines, is [-?[0-9]+]; OCaml literal forms such as [0x3],
    [+5] or [1_000] are parse errors, as are negative header counts. *)

exception Parse_error of string

val parse_string : string -> Formula.t
val parse_file : string -> Formula.t
val to_string : Formula.t -> string
val write_file : string -> Formula.t -> unit
